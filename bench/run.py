#!/usr/bin/env python3
"""spinpath benchmark: seeded job mixes run as closed loops.

    python3 bench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Workloads: curves (sweep), crosscheck (closed form vs RK4 vs Kraus),
ensemble (Monte Carlo and calibrate), points (single-state evolve and
tomography).  See bench/README.md.

One process, one thread, one job at a time: a job starts when the one
before it has finished.  The job list is run in whole passes for
--seconds; each job's latency is its median over the passes, taken at
the reference host speed (hostspeed.py), so neither a slow stretch nor
a slow host window moves a run.  Every output is verified outside the
timed region: the first run of a job in full, its repeats by
fingerprint.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics, and writes the spans
of the first traced pass to .bench_out/.  The last stdout line is the
result as one JSON object.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _layer(prefix: str, *stats: str) -> dict:
    units = {"calls": "count", "self_s": "s", "steps": "count", "us_per_step": "us",
             "shots": "count", "blocks": "count", "ns_per_shot": "ns", "states": "count",
             "max_err": "abs", "order": "1", "max": "stderr"}
    return {f"{prefix}.{stat}": units[stat] for stat in stats}


PER_LAYER = {
    **_layer("cli.main", "calls", "self_s"),
    "cli.output_bytes": "bytes",
    **_layer("states.validate_density_matrix", "calls", "self_s"),
    "states.validate_per_state": "ratio",
    **_layer("lindblad.evolve", "calls", "self_s", "states"),
    **_layer("lindblad.integrate_master", "calls", "self_s", "steps", "us_per_step", "max_err"),
    **_layer("kraus.trotter_evolve", "calls", "self_s", "steps", "us_per_step", "order"),
    **_layer("kraus.lindblad_generators_from_kraus", "calls", "self_s"),
    **_layer("interferometer.monte_carlo_A", "calls", "self_s", "shots", "blocks", "ns_per_shot"),
    **_layer("interferometer.monte_carlo_B", "calls", "self_s", "shots", "blocks", "ns_per_shot"),
    **_layer("interferometer.ensemble_average_analytic", "calls", "self_s"),
    **_layer("interferometer.consistency_ratio", "max"),
    **_layer("measures.measure_report", "calls", "self_s"),
    **_layer("tomography.simulate_counts", "calls", "self_s"),
    **_layer("tomography.exact_records", "calls", "self_s"),
    **_layer("tomography.reconstruct_linear", "calls", "self_s"),
    **_layer("tomography.project_psd", "calls", "self_s"),
    "tomography.clip_share": "ratio",
    "harness.verify_s": "s",
    "trace.overhead": "ratio",
}

# Functions whose return values are states, for validations per state.
STATE_PRODUCERS = ("lindblad.integrate_master", "kraus.trotter_evolve",
                   "interferometer.monte_carlo_A", "interferometer.monte_carlo_B",
                   "interferometer.ensemble_average_analytic", "tomography.reconstruct_linear")


class Ledger:
    """Counts job executions and failed ones.

    The first execution of a job is verified in full; a repeat must
    reproduce its fingerprint exactly.
    """

    def __init__(self, verify, digest):
        self._verify, self._digest = verify, digest
        self.attempted = 0
        self.failed = 0
        self.failed_jobs: set[int] = set()
        self.problems: list[str] = []
        self.observations: dict[int, dict] = {}
        self.verify_s = 0.0
        self._digests: dict[int, str | None] = {}

    def check(self, job, result) -> bool:
        self.attempted += 1
        start = time.perf_counter()
        try:
            if job.id in self._digests:
                same = self._digests[job.id] == self._digest(result)
                problems = [] if same else ["output differs from the verified first run"]
            else:
                problems, self.observations[job.id] = self._verify(job, result)
                self._digests[job.id] = None if problems else self._digest(result)
                self.verify_s += time.perf_counter() - start
        except Exception as exc:  # malformed output must count, not stop the run
            problems = [f"verification raised {type(exc).__name__}: {exc}"]
            self._digests[job.id] = None
        if problems:
            self.failed += 1
            self.failed_jobs.add(job.id)
            if len(self.problems) < 20:
                self.problems.append(f"job {job.id} ({job.kind} {job.band}): {'; '.join(problems[:3])}")
        return not problems


def run_pass(jobs, run_job, ledger, batched_share=0.0, tracer=None) -> tuple[list[float], list[float], int]:
    """Run every job once: (wall seconds, host slowdowns, bytes the CLI wrote)."""
    gc.collect()
    timeline = hostspeed.Timeline(batched_share)
    spans, output_bytes = [], 0
    for job in jobs:
        timeline.maybe_probe()
        if tracer is not None:
            tracer.job_id = job.id
        start = time.perf_counter()
        try:
            result = run_job(job)
        except (Exception, SystemExit) as exc:  # a job that raises or exits has failed
            result = {"code": None, "stdout": "", "stderr": f"{type(exc).__name__}: {exc}"}
        spans.append((start, time.perf_counter()))
        output_bytes += len(result.get("stdout", "").encode())
        ledger.check(job, result)
    timeline.maybe_probe()
    times = [end - start for start, end in spans]
    return times, [timeline.slowdown(start, end) for start, end in spans], output_bytes


def measure_setup(first_job, workdir: Path, repeats: int) -> tuple[float, list[str]]:
    """Median time, at the reference host speed, of a fresh interpreter
    that imports spinpath and runs the workload's first job; and the
    errors of runs that failed."""
    spec = workdir / "first_job.json"
    spec.write_text(json.dumps(first_job.to_json()))
    command = [sys.executable, str(BENCH_DIR / "first_job.py"), str(spec)]
    timeline = hostspeed.Timeline()
    spans, problems = [], []
    for _ in range(repeats):
        timeline.maybe_probe()
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        spans.append((start, time.perf_counter()))
        if proc.returncode != 0:
            problems.append(f"first job failed in a fresh process: {proc.stderr.strip()[-500:]}")
    timeline.maybe_probe()
    setup_s = statistics.median((end - start) / timeline.slowdown(start, end) for start, end in spans)
    return setup_s, problems


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def quantile(values, q: float) -> float:
    """Linear-interpolated q-quantile of a non-empty list."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end_metrics(per_job: list[list[float]], jobs, ledger, setup_s: float,
                       fail_ratio: float) -> dict:
    medians = [statistics.median(samples) for samples in per_job]
    verified = sum(1 for job in jobs if job.id not in ledger.failed_jobs)
    return {
        "setup_s": setup_s,
        "jobs_per_s": verified / sum(medians),
        "job_p50_ms": statistics.median(medians) * 1e3,
        "job_p90_ms": quantile(medians, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - fail_ratio,
    }


def per_layer_metrics(traced: list[dict], output_bytes: int, ledger, overhead: float) -> dict:
    first = traced[0]

    def count(name, stat="calls"):
        return first[name][stat]

    def per_pass(fn):
        return statistics.median(fn(stats) for stats in traced)

    def self_s(name):
        return per_pass(lambda s: s[name]["self_ns"] / 1e9)

    def per_unit(name, unit, scale):
        return per_pass(lambda s: s[name]["self_ns"] / scale / s[name][unit] if s[name][unit] else 0.0)

    out = {}
    for key in PER_LAYER:
        name, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = count(name)
        elif stat == "self_s":
            out[key] = self_s(name)
        elif stat in ("steps", "shots", "blocks", "states"):
            out[key] = count(name, stat)
    for name in ("lindblad.integrate_master", "kraus.trotter_evolve"):
        out[f"{name}.us_per_step"] = per_unit(name, "steps", 1e3)
    for name in ("interferometer.monte_carlo_A", "interferometer.monte_carlo_B"):
        out[f"{name}.ns_per_shot"] = per_unit(name, "shots", 1.0)
    states = count("lindblad.evolve", "states") + sum(count(name) for name in STATE_PRODUCERS)
    validations = count("states.validate_density_matrix")
    rk4_errors = [o["rk4_err"] for o in ledger.observations.values() if "rk4_err" in o]
    orders = [o["trotter_order"] for o in ledger.observations.values() if "trotter_order" in o]
    psd_calls = count("tomography.project_psd")
    out.update({
        "cli.output_bytes": output_bytes,
        "states.validate_per_state": validations / states if states else 0.0,
        "lindblad.integrate_master.max_err": max(rk4_errors, default=0.0),
        "kraus.trotter_evolve.order": statistics.median(orders) if orders else 0.0,
        "interferometer.consistency_ratio.max": float(first["interferometer.consistency_ratio"]["max"]),
        "tomography.clip_share": count("tomography.project_psd", "changed") / psd_calls if psd_calls else 0.0,
        "harness.verify_s": ledger.verify_s,
        "trace.overhead": overhead,
    })
    return out


def write_spans(spans, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id,name,start_ns,end_ns,parent,job\n")
        for span in spans:
            handle.write(",".join(map(str, span)) + "\n")
    return path


def run(args, workdir: Path) -> dict:
    import jobs as job_runner
    import verify
    import workloads
    from tracing import Tracer

    first, jobs = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
    share = workloads.PROBE_BATCHED_SHARE[args.workload]
    info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs), "machine": machine()}
    ledger = Ledger(verify.verify, job_runner.digest)

    setup_s, setup_problems, setup_runs = None, [], 0
    if not args.trace:
        setup_runs = 1 if args.smoke else SETUP_REPEATS
        setup_s, setup_problems = measure_setup(first, workdir, setup_runs)
    warm = Ledger(verify.verify, job_runner.digest)
    run_pass([first], job_runner.run_job, warm)  # untimed: lazy imports, caches

    per_job = [[] for _ in jobs]
    raw_job = [[] for _ in jobs]
    passes = {"untraced": [], "traced": []}
    traced_stats, tracer, output_bytes = [], Tracer(), 0
    restore_problems = []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        traced = bool(args.trace) and len(passes["traced"]) < len(passes["untraced"])
        if traced:
            tracer.record = not traced_stats
            tracer.install()
            try:
                times, slowdowns, output_bytes = run_pass(jobs, job_runner.run_job, ledger, share, tracer)
            finally:
                restore_problems += tracer.uninstall()
            traced_stats.append(tracer.take())
        else:
            times, slowdowns, _ = run_pass(jobs, job_runner.run_job, ledger, share)
            for samples, raw, t, slow in zip(per_job, raw_job, times, slowdowns):
                samples.append(t / slow)
                raw.append(t)
        passes["traced" if traced else "untraced"].append(sum(t / s for t, s in zip(times, slowdowns)))
        # Stop before a pass that would end past --seconds.
        now = time.perf_counter()
        done = now - began + (now - pass_began) > args.seconds
        if done and (not args.trace or passes["traced"]):
            break

    problems = setup_problems + warm.problems + ledger.problems + restore_problems
    attempted = ledger.attempted + warm.attempted + setup_runs
    failed = ledger.failed + warm.failed + len(setup_problems) + len(restore_problems)
    if args.trace:
        overhead = statistics.median(passes["traced"]) / statistics.median(passes["untraced"])
        metrics = per_layer_metrics(traced_stats, output_bytes, ledger, overhead)
        info["spans_file"] = str(write_spans(tracer.spans, args.workload, args.seed).relative_to(ROOT))
        info["trace_targets_missing"] = tracer.missing
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(per_job, jobs, ledger, setup_s, failed / attempted)
        raw = end_to_end_metrics(raw_job, jobs, ledger, setup_s, failed / attempted)
        info["raw_wall"] = {k: raw[k] for k in ("jobs_per_s", "job_p50_ms", "job_p90_ms")}
        info["fail_ratio"] = failed / attempted
        units = END_TO_END
    info["passes"] = {k: len(v) for k, v in passes.items()}
    info["samples_per_percentile"] = len(jobs)
    return {
        "info": info,
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curves", "crosscheck", "ensemble", "points"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny job lists, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinpath" / "__init__.py").is_file():
        print(f"error: no spinpath sources under {ROOT / 'src'}; run from a spinpath checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps(report["info"], sort_keys=True))
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    for name, metric in report["result"]["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
