"""Seeded, fixed-shape job lists for the four benchmark workloads.

The seed draws physical parameters only: couplings, energies, initial
states, end times, noise widths, sample seeds and the run order.  How
many jobs of each kind and size (grid points, RK4 steps, Trotter steps,
shots) a workload holds is fixed, so two seeds cost the same.  Initial
states are written to JSON files here, during set-up; the program under
test receives only argv and those files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import CALIBRATION

WORKLOADS = ("curves", "crosscheck", "ensemble", "points")

RK4_DT = 1e-3
TROTTER_STEPS = (64, 128, 256, 512, 1024, 2048)
TOMOGRAPHY_SHOTS = (0, 100, 10_000, 1_000_000)
CALIBRATE_SAMPLES = 100_000  # the acceptance gate's sample count
# (mode, CLI variant flag, package variant name) for every field placement.
FIELD_SETUPS = (
    ("A", "both-paths-independent", "both_paths_independent"),
    ("A", "single-field-one-path", "single_field_one_path"),
    ("A", "single-field-both-paths", "single_field_both_paths"),
    ("B", "both-paths-independent", "both_paths_independent"),
)
# Weight of the batched part of the host speed probe (see hostspeed.py):
# only the Monte Carlo workload spends its time in batched products.
PROBE_BATCHED_SHARE = {"curves": 0.0, "crosscheck": 0.0, "ensemble": 0.5, "points": 0.0}
# Mode-B coherence pairs relax (overdamped, 2|dE| < lambda), oscillate
# (2|dE| > lambda) or sit on the border, where evolve_mode_b takes its
# small-|mu t| series branch.
REGIMES = ("overdamped", "oscillatory", "critical")


@dataclass
class Job:
    """One closed-loop job: CLI argv plus what verification needs."""

    id: int
    kind: str  # sweep | evolve | tomography | ensemble | calibrate | crosscheck
    band: str
    argv: list[str]
    params: dict = field(default_factory=dict)
    rho0: np.ndarray | None = None

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "band": self.band,
                "argv": self.argv, "params": self.params}

    @classmethod
    def from_json(cls, obj: dict) -> "Job":
        return cls(obj["id"], obj["kind"], obj["band"], obj["argv"], obj["params"])


def num(x: float) -> str:
    """Shortest exact decimal, never in exponent form (argparse reads
    '-1e-05' as an option, not a number)."""
    return np.format_float_positional(float(x), unique=True, trim="0")


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """`count` sizes spaced geometrically from lo to hi."""
    return [int(round(x)) for x in np.geomspace(lo, hi, count)]


class _JobList:
    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(np.random.SeedSequence((int(seed), 1729)))
        self.workdir = workdir
        self.jobs: list[Job] = []

    def state(self, job_id: int, rank: int) -> tuple[str, np.ndarray]:
        """Random rank-`rank` density matrix, written exactly to a file."""
        g = self.rng.normal(size=(4, rank)) + 1j * self.rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        re = (rho.real + rho.real.T) / 2.0
        im = (rho.imag - rho.imag.T) / 2.0
        path = self.workdir / f"state_{job_id}.json"
        path.write_text(json.dumps({"dim": 4, "re": re.tolist(), "im": im.tolist()}))
        return str(path), re + 1j * im

    def energies(self, lam: float, regime: str) -> list[float]:
        base = self.rng.uniform(-1.0, 1.0, 2)
        signs = self.rng.choice((-1.0, 1.0), 2)
        if regime == "overdamped":
            ratio = self.rng.uniform(0.1, 0.9, 2)
        elif regime == "oscillatory":
            ratio = self.rng.uniform(1.1, 3.0, 2)
        else:
            ratio = np.array([1.0, self.rng.uniform(0.1, 3.0)])
        gap = signs * ratio * lam / 2.0
        # Order e1, e2, e3, e4: pairs (e1, e3) and (e2, e4) carry the gaps.
        return [float(base[0] + gap[0]), float(base[1] + gap[1]), float(base[0]), float(base[1])]

    def physics(self, k: int) -> tuple[str, float, list[float]]:
        mode = "AB"[k % 2]
        lam = float(self.rng.uniform(0.2, 3.0))
        return mode, lam, self.energies(lam, REGIMES[(k // 2) % 3])

    def add(self, kind: str, band: str, argv: list[str], rho0=None, **params) -> Job:
        job = Job(len(self.jobs), kind, band, argv, params, rho0)
        self.jobs.append(job)
        return job

    def finish(self) -> tuple[Job, list[Job]]:
        """Job 0 is the untimed first job; the rest run in a seeded order."""
        first, rest = self.jobs[0], self.jobs[1:]
        order = self.rng.permutation(len(rest))
        return first, [rest[i] for i in order]


def _curves(b: _JobList, smoke: bool) -> None:
    bands = [("small", 70, 20, 60), ("medium", 27, 120, 360), ("large", 3, 1500, 3500)]
    if smoke:
        bands = [("small", 3, 5, 20)]
    sizes = [("small", 20)] + [(name, s) for name, n, lo, hi in bands for s in ladder(lo, hi, n)]
    for k, (band, steps) in enumerate(sizes):
        mode, lam, energies = b.physics(k)
        path, rho0 = b.state(len(b.jobs), 1 + (k // 2) % 4)
        end = float(b.rng.uniform(1.0, 4.0)) / lam
        check_rows = sorted({0, steps - 1, *b.rng.integers(0, steps, 6).tolist()})
        argv = ["sweep", "--mode", mode, "--lambda", num(lam), "--time", num(end),
                "--steps", str(steps), "--energies", *map(num, energies), "--initial", path]
        b.add("sweep", f"{band}-{steps}", argv, rho0, mode=mode, lam=lam, energies=energies,
              time=end, steps=steps, check_rows=check_rows)


def _crosscheck(b: _JobList, smoke: bool) -> None:
    # RK4 runs of tens to hundreds of steps, each paired with a Trotter run.
    rk4 = ladder(20, 80, 50) + ladder(100, 300, 50)
    if smoke:
        rk4 = [20, 40]
    for k, steps in enumerate([20] + rk4):
        n = TROTTER_STEPS[k % len(TROTTER_STEPS)] if k else TROTTER_STEPS[0]
        mode, lam, energies = b.physics(k)
        path, rho0 = b.state(len(b.jobs), 1 + (k // 2) % 4)
        # A fractional last step exercises the shortened final RK4 step.
        t = (steps + float(b.rng.uniform(0.05, 0.95))) * RK4_DT
        argv = ["kraus-compare", "--mode", mode, "--lambda", num(lam), "--time", num(t),
                "--steps", str(n), "--initial", path]
        b.add("crosscheck", f"rk{steps}-n{n}", argv, rho0, state=path, mode=mode, lam=lam,
              energies=energies, time=t, steps=n,
              generator_dt=float(b.rng.uniform(0.005, 0.02)))


def _ensemble(b: _JobList, smoke: bool) -> None:
    # Per field setup: 18 x 1e4, 5 x 2.5e4 and 1 x 1e5 shots; the first two
    # of each setup have sigma = 0, the bit-exact identity path.
    samples = [10_000] * 18 + [25_000] * 5 + [100_000]
    if smoke:
        samples = [10_000, 10_000]
    shots = [(FIELD_SETUPS[0], 10_000, 0)] + [
        (setup, s, i) for i, s in enumerate(samples) for setup in FIELD_SETUPS
    ]
    for k, ((mode, flag, variant), count, position) in enumerate(shots):
        path, rho0 = b.state(len(b.jobs), 1 + (k // len(FIELD_SETUPS)) % 4)
        sigma = 0.0 if 0 < k and position < 2 else float(b.rng.uniform(0.05, 2.5))
        seed = int(b.rng.integers(0, 2**31))
        argv = ["ensemble", "--mode", mode, "--variant", flag, "--sigma", num(sigma),
                "--samples", str(count), "--seed", str(seed), "--initial", path]
        b.add("ensemble", f"mc{mode}-{count}", argv, rho0, mode=mode, variant=variant,
              sigma=sigma, samples=count, seed=seed)
    for mode, flag, variant in FIELD_SETUPS[: 1 if smoke else None]:
        c = CALIBRATION[(mode, variant)]
        # Two widths with lambda*t near 1, where -log|rho_23| is best resolved.
        sigmas = [np.sqrt(b.rng.uniform(lo, lo + 0.3) / c) for lo in (0.6, 1.1)]
        seed = int(b.rng.integers(0, 2**31))
        argv = ["calibrate", "--mode", mode, "--variant", flag, "--sigmas", *map(num, sigmas),
                "--samples", str(CALIBRATE_SAMPLES), "--seed", str(seed)]
        b.add("calibrate", f"cal{mode}-{variant}", argv, mode=mode, variant=variant, expected=c)


def _points(b: _JobList, smoke: bool) -> None:
    per_kind = 2 if smoke else 200
    for k in range(per_kind + 1):
        mode, lam, energies = b.physics(k)
        path, rho0 = b.state(len(b.jobs), 1 + (k // 2) % 4)
        t = float(b.rng.uniform(0.0, 4.0)) / lam
        argv = ["evolve", "--mode", mode, "--lambda", num(lam), "--time", num(t),
                "--energies", *map(num, energies), "--initial", path]
        b.add("evolve", f"evolve{mode}", argv, rho0, mode=mode, lam=lam, energies=energies, time=t)
    for k in range(per_kind * 2 if smoke else per_kind):
        shots = TOMOGRAPHY_SHOTS[k % len(TOMOGRAPHY_SHOTS)]
        path, rho0 = b.state(len(b.jobs), 1 + (k // 4) % 4)
        seed = int(b.rng.integers(0, 2**31))
        argv = ["tomography", "--shots", str(shots), "--seed", str(seed), "--initial", path]
        b.add("tomography", f"tomo{shots}", argv, rho0, shots=shots)


_MAKERS = {"curves": _curves, "crosscheck": _crosscheck, "ensemble": _ensemble, "points": _points}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> tuple[Job, list[Job]]:
    """(first job, timed jobs) for one workload and seed."""
    b = _JobList(seed, workdir)
    _MAKERS[workload](b, smoke)
    return b.finish()
