"""Run one benchmark job through spinpath's public entry points.

CLI jobs call ``spinpath.cli.main(argv)`` in-process with stdout and
stderr captured.  A crosscheck job also drives the ``lindblad`` and
``kraus`` API, which no subcommand exposes: closed form, RK4 and Kraus
generator extraction, plus ``spinpath kraus-compare``.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from spinpath import cli, kraus, lindblad, states
from workloads import RK4_DT, Job


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_crosscheck(job: Job) -> dict:
    p = job.params
    with open(p["state"], "r", encoding="utf-8") as handle:
        rho0 = states.matrix_from_json(json.load(handle))
    spec = lindblad.DecoherenceSpec(
        mode=p["mode"], lam=p["lam"], hamiltonian=lindblad.SystemHamiltonian(tuple(p["energies"]))
    )
    closed = lindblad.evolve(rho0, spec, p["time"])
    rk4 = lindblad.integrate_master(
        rho0, lindblad.projectors_for_mode(p["mode"]), spec, p["time"], dt=RK4_DT
    )
    result = run_cli(job.argv)
    generators = []
    for dt in (p["generator_dt"], p["generator_dt"] / 2.0):
        step = kraus.kraus_set_for_mode(p["mode"], p["lam"] * dt)
        generators.append(kraus.lindblad_generators_from_kraus(step, dt))
    result.update(closed=closed, rk4=rk4, generators=generators)
    return result


def run_job(job: Job) -> dict:
    """Result dict with at least "code", "stdout" and "stderr"."""
    if job.kind == "crosscheck":
        return run_crosscheck(job)
    return run_cli(job.argv)


def digest(result: dict) -> str:
    """Fingerprint of everything a job produced, to compare repeats."""
    h = hashlib.sha256()
    h.update(repr(result.get("code")).encode())
    h.update(result.get("stdout", "").encode())
    for key in ("closed", "rk4"):
        if key in result:
            h.update(np.ascontiguousarray(result[key]).tobytes())
    for ops, residual in result.get("generators", ()):
        for op in ops:
            h.update(np.ascontiguousarray(op).tobytes())
        h.update(repr(residual).encode())
    return h.hexdigest()
