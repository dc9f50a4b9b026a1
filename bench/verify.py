"""Per-job output checks, run outside the timed region.

Tolerances come from the release gate in tests/test_acceptance.py where
it states one.  Every check compares against the independent routes in
``reference``, never against spinpath itself, except where the gate
itself compares two spinpath routes (RK4 against the closed form).

``verify(job, result)`` returns (problems, observations): a list of
messages, empty when the output is correct, and the measured values the
traced run reports (RK4 error, Trotter order).
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref
from workloads import Job

RK4_TOL = 1e-8  # gate criterion 4
TROTTER_ORDER_TOL = 0.3  # gate criterion 5
GENERATOR_RATIO = (3.5, 4.5)  # gate criterion 5: residual O(dt^2) per halving
ANALYTIC_TOL = 1e-12  # gate criterion 6
MC_RATIO_MAX = 5.0  # gate criterion 7
CALIBRATE_REL = 0.02  # gate criterion 7
TOMOGRAPHY_EXACT_TOL = 1e-9  # gate criterion 8
VALID_TOL = 1e-10  # gate criterion 9: trace and Hermiticity
EIGENVALUE_FLOOR = -1e-8  # gate criterion 9
# Closed form against the reference Liouvillian exponential.  Both reach
# about 1e-14; the margin covers the closed form's cosh/sinh cancellation
# just outside its small-|mu t| series branch.
STATE_TOL = 1e-9
# Sweep CSV values carry 12 significant digits.
CSV_TOL = 1e-9
# spinpath takes concurrence from eigvals of a non-normal product, which
# loses half the digits on pure states (2.5e-8 worst over 5000 draws).
CONCURRENCE_TOL = 1e-6
# Finite-shot tomography: Frobenius error * sqrt(shots) peaked at 2.7
# over 1200 random rank-1..4 states at 1e2, 1e4 and 1e6 shots.
TOMOGRAPHY_SHOT_SCALE = 6.0
# Agreement between a reported statistic and its recomputation.
RECOMPUTE_TOL = 1e-9


def _matrix(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _state_problems(name: str, rho: np.ndarray) -> list[str]:
    herm, trace, min_eig = ref.validity_defects(rho)
    if herm > VALID_TOL or trace > VALID_TOL or min_eig < EIGENVALUE_FLOOR:
        return [f"{name} invalid: herm {herm:.2e}, trace {trace:.2e}, min eig {min_eig:.2e}"]
    return []


def _measure_problems(rho: np.ndarray, mixedness: float, concurrence: float) -> list[str]:
    problems = []
    if not (0.25 - 1e-9 <= mixedness <= 1.0 + 1e-9) or not (0.0 <= concurrence <= 1.0 + 1e-9):
        problems.append(f"measures out of range: mixedness {mixedness}, concurrence {concurrence}")
    if abs(mixedness - ref.mixedness(rho)) > CSV_TOL:
        problems.append(f"mixedness {mixedness} != {ref.mixedness(rho)}")
    if abs(concurrence - ref.concurrence(rho)) > CONCURRENCE_TOL:
        problems.append(f"concurrence {concurrence} != {ref.concurrence(rho)}")
    return problems


def check_sweep(job: Job, result: dict):
    p = job.params
    lines = result["stdout"].splitlines()
    if not lines or lines[0] != "lambda_t,mixedness,concurrence" or len(lines) != p["steps"] + 1:
        return [f"sweep csv malformed: {len(lines)} lines"], {}
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    times = np.linspace(0.0, p["time"], p["steps"])
    problems = []
    if np.abs(rows[:, 0] - p["lam"] * times).max() > CSV_TOL * max(1.0, p["lam"] * p["time"]):
        problems.append("lambda_t column does not match the grid")
    if rows[:, 1].min() < 0.25 - 1e-9 or rows[:, 1].max() > 1.0 + 1e-9:
        problems.append("mixedness out of [1/4, 1]")
    if rows[:, 2].min() < 0.0 or rows[:, 2].max() > 1.0 + 1e-9:
        problems.append("concurrence out of [0, 1]")
    for i in p["check_rows"]:
        state = ref.evolve(job.rho0, p["mode"], p["lam"], p["energies"], times[i])
        problems += [f"row {i}: {m}" for m in _measure_problems(state, rows[i, 1], rows[i, 2])]
    return problems, {}


def check_evolve(job: Job, result: dict):
    p = job.params
    payload = json.loads(result["stdout"])
    state = _matrix(payload["state"])
    expected = ref.evolve(job.rho0, p["mode"], p["lam"], p["energies"], p["time"])
    problems = _state_problems("state", state)
    err = float(np.abs(state - expected).max())
    if err > STATE_TOL:
        problems.append(f"state off the reference by {err:.2e}")
    m = payload["measures"]
    problems += _measure_problems(expected, m["mixedness"], m["concurrence"])
    roots = m["wootters_roots"]
    if len(roots) != 4 or min(roots) < 0.0 or roots != sorted(roots, reverse=True):
        problems.append(f"wootters roots malformed: {roots}")
    return problems, {}


def check_tomography(job: Job, result: dict):
    shots = job.params["shots"]
    payload = json.loads(result["stdout"])
    problems = []
    settings = [(c["spin"], c["path"]) for c in payload["counts"]]
    if settings != [(s, q) for s in "XYZ" for q in "XYZ"]:
        return [f"settings out of order: {settings}"], {}
    for c in payload["counts"]:
        counts = np.array(c["counts"], dtype=float)
        if c["shots"] != shots or counts.min() < 0:
            problems.append(f"record {c['spin']}{c['path']} malformed")
        elif shots == 0:
            born = ref.born_probabilities(job.rho0, c["spin"], c["path"])
            if np.abs(counts - born).max() > RECOMPUTE_TOL:
                problems.append(f"record {c['spin']}{c['path']} is not the Born distribution")
        elif counts.sum() != shots:
            problems.append(f"record {c['spin']}{c['path']} sums to {counts.sum()}")
    estimate = _matrix(payload["estimate"])
    problems += _state_problems("estimate", estimate)
    err = float(np.linalg.norm(estimate - job.rho0))
    if abs(err - payload["frobenius_error_to_input"]) > RECOMPUTE_TOL:
        problems.append(f"reported error {payload['frobenius_error_to_input']} != {err}")
    bound = TOMOGRAPHY_EXACT_TOL if shots == 0 else TOMOGRAPHY_SHOT_SCALE / np.sqrt(shots)
    if err > bound:
        problems.append(f"reconstruction error {err:.3e} > {bound:.3e} at {shots} shots")
    return problems, {}


def check_ensemble(job: Job, result: dict):
    p = job.params
    payload = json.loads(result["stdout"])
    mc = payload["monte_carlo"]
    mean = _matrix(mc["mean"])
    analytic = _matrix(payload["analytic"])
    problems = []
    if (mc["samples"], mc["seed"], mc["sigma"], mc["mode"], mc["variant"]) != (
        p["samples"], p["seed"], p["sigma"], p["mode"], p["variant"]
    ):
        problems.append("monte carlo payload does not echo the request")
    expected = ref.gaussian_average(job.rho0, p["mode"], p["variant"], p["sigma"])
    err = float(np.abs(analytic - expected).max())
    if err > ANALYTIC_TOL:
        problems.append(f"analytic average off the reference by {err:.2e}")
    floor = 1e-15
    ratio = max(
        float((np.abs(mean.real - analytic.real) / np.maximum(mc["stderr_re"], floor)).max()),
        float((np.abs(mean.imag - analytic.imag) / np.maximum(mc["stderr_im"], floor)).max()),
    )
    reported = payload["max_abs_delta_over_stderr"]
    if abs(ratio - reported) > RECOMPUTE_TOL * max(1.0, ratio):
        problems.append(f"reported ratio {reported} != {ratio}")
    if reported > MC_RATIO_MAX:
        problems.append(f"monte carlo {reported:.2f} standard errors off the analytic mean")
    if p["sigma"] == 0.0 and not np.array_equal(mean, job.rho0):
        problems.append("sigma = 0 did not return the input bit-exactly")
    return problems, {}


def check_calibrate(job: Job, result: dict):
    p = job.params
    payload = json.loads(result["stdout"])
    coefficient = payload["coefficient"]
    problems = []
    if payload["expected_coefficient"] != p["expected"]:
        problems.append(f"expected coefficient {payload['expected_coefficient']} != {p['expected']}")
    if abs(coefficient - p["expected"]) > CALIBRATE_REL * p["expected"]:
        problems.append(f"coefficient {coefficient} not within 2% of {p['expected']}")
    return problems, {}


def check_crosscheck(job: Job, result: dict):
    p = job.params
    closed, rk4 = result["closed"], result["rk4"]
    problems = _state_problems("closed form", closed) + _state_problems("rk4", rk4)
    rk4_err = float(np.abs(rk4 - closed).max())
    if rk4_err > RK4_TOL:
        problems.append(f"rk4 off the closed form by {rk4_err:.2e}")
    err = float(np.abs(closed - ref.evolve(job.rho0, p["mode"], p["lam"], p["energies"], p["time"])).max())
    if err > STATE_TOL:
        problems.append(f"closed form off the reference by {err:.2e}")

    payload = json.loads(result["stdout"])
    order = payload["convergence_order"]
    if order is None or abs(order - 1.0) > TROTTER_ORDER_TOL:
        problems.append(f"trotter order {order} not within {TROTTER_ORDER_TOL} of 1")
    exact = ref.evolve(job.rho0, p["mode"], p["lam"], (0.0,) * 4, p["time"])
    for key, n in (("max_error", p["steps"]), ("max_error_half_steps", p["steps"] // 2)):
        expected = float(np.abs(ref.trotter(job.rho0, p["mode"], p["lam"], p["time"], n) - exact).max())
        if abs(payload[key] - expected) > RECOMPUTE_TOL * max(1.0, expected):
            problems.append(f"{key} {payload[key]} != reference {expected}")

    (ops, coarse), (_, fine) = result["generators"]
    if not (fine > 0.0 and GENERATOR_RATIO[0] <= coarse / fine <= GENERATOR_RATIO[1]):
        problems.append(f"generator residual ratio {coarse}/{fine} outside {GENERATOR_RATIO}")
    gram = sum(op.conj().T @ op for op in ops)
    if np.abs(gram - 0.75 * p["lam"] * ref.I4).max() > 1e-12 * max(1.0, p["lam"]):
        problems.append("generators do not carry the coupling strength")
    return problems, {"rk4_err": rk4_err, "trotter_order": order}


CHECKS = {
    "sweep": check_sweep,
    "evolve": check_evolve,
    "tomography": check_tomography,
    "ensemble": check_ensemble,
    "calibrate": check_calibrate,
    "crosscheck": check_crosscheck,
}


def verify(job: Job, result: dict) -> tuple[list[str], dict]:
    """Raises on output too malformed to parse; the caller counts that as a failure."""
    if result.get("code") != 0:
        return [f"exit code {result.get('code')}: {result.get('stderr', '').strip()}"], {}
    return CHECKS[job.kind](job, result)
