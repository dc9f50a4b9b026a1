"""Host speed reference for job timings.

The host's speed drifts by tens of percent over seconds (shared cores,
frequency changes), in CPU time as much as in wall time.  Next to every
job the benchmark times a fixed probe that does not touch spinpath.  A
job's wall time divided by the probe's slowdown against its reference
time is the job's time at the reference host speed.

The probe has two parts, because the two kinds of work spinpath does
slow down differently: interpreter-bound 4x4 NumPy calls (evolve,
measures, RK4 and Trotter steps, tomography, CLI parsing) and batched
4x4 products on deep stacks (the Monte Carlo blocks).  Over repeated
runs on the reference machine, jobs of the first kind held steadiest
against the first part alone, Monte Carlo jobs against an even mix.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe times on the machine the baseline was taken on (2 cores,
# Python 3.11, NumPy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_SMALL_S = 4.2e-4
REFERENCE_BATCHED_S = 5.8e-4
EVERY_S = 0.02  # probe at most this often between jobs
# A single reading is noisy and the host's speed holds for a while, so a
# job takes the median of the readings within this distance of it.
WINDOW_S = 0.05

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
_M = _M @ _M.conj().T
_STACK = _RNG.normal(size=(256, 4, 4)) + 0j


def probe_small() -> float:
    """Seconds for interpreter-bound 4x4 calls."""
    m = _M
    start = time.perf_counter()
    for k in range(12):
        m = (m @ _M) / np.trace(m @ _M).real
        np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        float(np.abs(m - m.conj().T).max()) + k
    return time.perf_counter() - start


def probe_batched() -> float:
    """Seconds for batched 4x4 products on a 256-deep stack."""
    start = time.perf_counter()
    for _ in range(2):
        shots = _STACK @ _M @ _STACK.conj().transpose(0, 2, 1)
        (shots.real ** 2).sum(axis=0)
    return time.perf_counter() - start


class Timeline:
    """Probe readings taken between jobs, in order.

    ``batched_share`` is the weight of the batched part of the probe in
    the slowdown: 0 for interpreter-bound jobs, 0.5 for Monte Carlo.
    """

    def __init__(self, batched_share: float = 0.0):
        self.batched_share = batched_share
        self.readings: list[tuple[float, float]] = []  # (taken at, slowdown)

    def maybe_probe(self) -> None:
        """Probe unless the last reading is fresher than EVERY_S."""
        now = time.perf_counter()
        if self.readings and now - self.readings[-1][0] <= EVERY_S:
            return
        slowdown = probe_small() / REFERENCE_SMALL_S
        if self.batched_share:
            share = self.batched_share
            slowdown = (1.0 - share) * slowdown + share * probe_batched() / REFERENCE_BATCHED_S
        self.readings.append((now, slowdown))

    def slowdown(self, start: float, end: float) -> float:
        """Host slowdown over [start, end]: the median reading within
        WINDOW_S of it."""
        return float(np.median([s for t, s in self.readings
                                if start - WINDOW_S <= t <= end + WINDOW_S]))
