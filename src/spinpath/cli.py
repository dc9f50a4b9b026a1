"""Command-line interface.

Subcommands: evolve, sweep, ensemble, kraus-compare, tomography,
calibrate.  All outputs are deterministic functions of the flags; JSON
is written with sorted keys and CSV numbers with 12 significant digits.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure, 4 produced-state validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import interferometer, kraus, lindblad, states, tomography
from .measures import measure_report

_NAMED_INITIALS = {
    "singlet": states.experiment_initial,
    "bell1": lambda: states.from_pure(states.bell_state(1)),
    "bell2": lambda: states.from_pure(states.bell_state(2)),
    "bell3": lambda: states.from_pure(states.bell_state(3)),
    "bell4": lambda: states.from_pure(states.bell_state(4)),
    "maximally-mixed": states.maximally_mixed,
}

# One evolve and one measure_report call per block of grid points bounds the working set.
_SWEEP_BLOCK = 256
_MAX_SWEEP_POINTS = 1_000_000
# Monte Carlo work is samples per sigma; these bound it before any sampling starts.
_MAX_SAMPLES = 10_000_000
_MAX_SIGMAS = 32


def _matrix_from_any_json(obj) -> np.ndarray:
    # Accept a bare matrix object or the output of evolve / tomography.
    if isinstance(obj, dict):
        for key in ("state", "estimate", "mean"):
            if key in obj and isinstance(obj[key], dict) and "re" in obj[key]:
                return states.matrix_from_json(obj[key])
        if "re" in obj:
            return states.matrix_from_json(obj)
    raise ValueError("no 4x4 matrix found in state file")


def _initial_state(name: str) -> np.ndarray:
    if name in _NAMED_INITIALS:
        return _NAMED_INITIALS[name]()
    path = name[5:] if name.startswith("file:") else name
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read state file {path!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"state file {path!r} is not valid json: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"state file {path!r} is nested too deeply to read") from exc
    try:
        return states.validate_density_matrix(_matrix_from_any_json(obj))
    except ValueError as exc:
        # Bad input is a configuration problem, not a produced-state failure,
        # so a StateValidationError leaves here as a plain ValueError.
        raise ValueError(f"state file {path!r}: {exc}") from exc


def _write_output(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {target!r}: {exc}") from exc


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _decoherence_spec(args) -> lindblad.DecoherenceSpec:
    return lindblad.DecoherenceSpec(
        mode=args.mode,
        lam=args.lam,
        hamiltonian=lindblad.SystemHamiltonian(args.energies),
    )


def cmd_evolve(args) -> str:
    rho0 = _initial_state(args.initial)
    spec = _decoherence_spec(args)
    state = lindblad.evolve(rho0, spec, args.time)
    payload = {
        "state": states.matrix_to_json(state),
        "measures": measure_report(state).to_json(),
    }
    return _dumps(payload)


def cmd_sweep(args) -> str:
    if args.steps < 2:
        raise ValueError(f"sweep needs at least 2 grid points, got {args.steps}")
    if args.steps > _MAX_SWEEP_POINTS:
        raise ValueError(f"--steps {args.steps} exceeds the limit of {_MAX_SWEEP_POINTS} grid points")
    rho0 = _initial_state(args.initial)
    spec = _decoherence_spec(args)
    times = np.linspace(0.0, args.time, args.steps)
    lines = ["lambda_t,mixedness,concurrence"]
    for start in range(0, args.steps, _SWEEP_BLOCK):
        block = times[start:start + _SWEEP_BLOCK]
        report = measure_report(lindblad.evolve(rho0, spec, block))
        lines.extend(
            f"{_fmt(spec.lam * t)},{_fmt(m)},{_fmt(c)}"
            for t, m, c in zip(block, report.mixedness, report.concurrence)
        )
    return "\n".join(lines) + "\n"


def _check_samples(samples: int) -> None:
    if samples > _MAX_SAMPLES:
        raise ValueError(f"--samples {samples} exceeds the limit of {_MAX_SAMPLES} shots")


def cmd_ensemble(args) -> str:
    _check_samples(args.samples)
    rho0 = _initial_state(args.initial)
    setup = interferometer.FieldSetup(
        mode=args.mode, sigma=args.sigma, variant=args.variant.replace("-", "_")
    )
    estimate = interferometer.ensemble_average_monte_carlo(
        rho0, setup, args.samples, args.seed
    )
    analytic = interferometer.ensemble_average_analytic(rho0, setup)
    payload = {
        "monte_carlo": estimate.to_json(),
        "analytic": states.matrix_to_json(analytic),
        "max_abs_delta_over_stderr": interferometer.consistency_ratio(estimate, analytic),
    }
    return _dumps(payload)


def cmd_kraus_compare(args) -> str:
    rho0 = _initial_state(args.initial)
    spec = lindblad.DecoherenceSpec(mode=args.mode, lam=args.lam)
    analytic = lindblad.evolve(rho0, spec, args.time)
    approx = kraus.trotter_evolve(rho0, args.mode, args.lam, args.time, args.steps)
    error = float(np.abs(approx - analytic).max())
    payload = {
        "mode": args.mode,
        "lambda": args.lam,
        "time": args.time,
        "steps": args.steps,
        "max_error": error,
        "max_error_half_steps": None,
        "convergence_order": None,
    }
    if args.steps >= 2:
        half = args.steps // 2
        approx_half = kraus.trotter_evolve(rho0, args.mode, args.lam, args.time, half)
        error_half = float(np.abs(approx_half - analytic).max())
        payload["max_error_half_steps"] = error_half
        if error > 0.0 and error_half > 0.0:
            payload["convergence_order"] = float(
                np.log(error_half / error) / np.log(args.steps / half)
            )
    return _dumps(payload)


def cmd_tomography(args) -> str:
    rho0 = _initial_state(args.initial)
    if args.shots == 0:
        counts = tomography.exact_records(rho0)
    else:
        counts = tomography.simulate_counts(rho0, args.shots, args.seed)
    reconstruction = tomography.reconstruct_linear(counts)
    payload = {
        "counts": tomography.counts_to_json(counts, args.shots),
        "estimate": states.matrix_to_json(reconstruction.estimate),
        "frobenius_residual": reconstruction.frobenius_residual,
        "frobenius_error_to_input": float(
            np.linalg.norm(reconstruction.estimate - rho0)
        ),
    }
    return _dumps(payload)


def cmd_calibrate(args) -> str:
    _check_samples(args.samples)
    if len(args.sigmas) > _MAX_SIGMAS:
        raise ValueError(f"--sigmas takes at most {_MAX_SIGMAS} values, got {len(args.sigmas)}")
    rho0 = states.experiment_initial()
    initial_magnitude = float(np.abs(rho0[1, 2]))
    variant = args.variant.replace("-", "_")
    points = []
    for i, sigma in enumerate(args.sigmas):
        setup = interferometer.FieldSetup(mode=args.mode, sigma=sigma, variant=variant)
        estimate = interferometer.ensemble_average_monte_carlo(
            rho0, setup, args.samples, args.seed + i
        )
        magnitude = float(np.abs(estimate.mean[1, 2]))
        if magnitude <= 0.0:
            raise np.linalg.LinAlgError(
                f"coherence lost entirely at sigma = {sigma}; cannot take log"
            )
        # Decay relative to the initial coherence, so sigma=0 (mean equals
        # the input bit-exactly) reports lambda_t = 0 exactly.
        lambda_t = float(-np.log(magnitude / initial_magnitude)) + 0.0
        points.append({"sigma": float(sigma), "lambda_t": lambda_t})
    # Fit against sigma^2 / 2^e, with 2^e the binade of the largest sigma^2,
    # so that sigma^4 neither overflows nor, for tiny sigmas, underflows to
    # 0 (a term that underflows is negligible next to the largest, about 1).
    # Where the largest sigma^2 would be subnormal or 0, sigma is scaled
    # before squaring.  Scaling by a power of two is exact, so the fit keeps
    # its digits; ldexp undoes it at the end.
    largest = max(p["sigma"] for p in points)
    shift = 0 if largest ** 2 >= sys.float_info.min else -math.frexp(largest)[1]
    sq = np.array([math.ldexp(p["sigma"], shift) ** 2 for p in points])
    binade = int(np.frexp(sq.max())[1])
    sq = np.ldexp(sq, -binade)
    exponent = binade - 2 * shift
    lt = np.array([p["lambda_t"] for p in points])
    denom = float((sq ** 2).sum())
    if denom == 0.0:
        raise ValueError("calibration needs at least one nonzero sigma")
    coefficient = float((lt * sq).sum() / denom)
    residuals = lt - coefficient * sq
    if len(points) > 1:
        spread = float((residuals ** 2).sum() / (len(points) - 1))
        coefficient_stderr = float(np.sqrt(spread / denom))
    else:
        coefficient_stderr = 0.0
    coefficient = float(np.ldexp(coefficient, -exponent))
    coefficient_stderr = float(np.ldexp(coefficient_stderr, -exponent))
    setup = interferometer.FieldSetup(mode=args.mode, sigma=1.0, variant=variant)
    payload = {
        "mode": args.mode,
        "variant": variant,
        "samples": args.samples,
        "seed": args.seed,
        "points": points,
        "coefficient": coefficient,
        "coefficient_stderr": coefficient_stderr,
        "expected_coefficient": interferometer.lambda_from_sigma(setup, 1.0),
    }
    return _dumps(payload)


def _add_common(parser, *, initial=True):
    if initial:
        parser.add_argument(
            "--initial",
            default="singlet",
            help="named state (singlet, bell1..bell4, maximally-mixed) or a json state file path",
        )
    parser.add_argument("--out", default="-", help="output path, or - for stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spinpath argument parser, built once per process.

    ``parse_args`` returns a fresh namespace on every call and nothing
    mutates the parser, so every ``main`` call shares this one.  The
    handlers it binds look up their kernels at call time.
    """
    parser = argparse.ArgumentParser(
        prog="spinpath",
        description="two-qubit spin-path decoherence simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --variant spells the field-layout variants with hyphens.
    variants = sorted(variant.replace("_", "-") for variant in interferometer.VARIANTS)

    p = sub.add_parser("evolve", help="closed-form evolution plus measures")
    p.add_argument("--mode", required=True, choices=("A", "B"))
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--energies", type=float, nargs=4, default=(0.0, 0.0, 0.0, 0.0))
    _add_common(p)
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("sweep", help="mixedness and concurrence on a time grid (csv)")
    p.add_argument("--mode", required=True, choices=("A", "B"))
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--time", type=float, required=True, help="end of the grid")
    p.add_argument("--steps", type=int, required=True, help="number of grid points")
    p.add_argument("--energies", type=float, nargs=4, default=(0.0, 0.0, 0.0, 0.0))
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("ensemble", help="monte carlo vs analytic gaussian average")
    p.add_argument("--mode", required=True, choices=("A", "B"))
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="both-paths-independent", choices=variants)
    _add_common(p)
    p.set_defaults(handler=cmd_ensemble)

    p = sub.add_parser("kraus-compare", help="trotterized kraus map vs closed form")
    p.add_argument("--mode", required=True, choices=("A", "B"))
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_kraus_compare)

    p = sub.add_parser("tomography", help="simulated measurement and reconstruction")
    p.add_argument("--shots", type=int, required=True, help="0 means exact probabilities")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=cmd_tomography)

    p = sub.add_parser("calibrate", help="fit lambda*t against sigma^2 from monte carlo")
    p.add_argument("--mode", required=True, choices=("A", "B"))
    p.add_argument("--sigmas", type=float, nargs="+", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", default="both-paths-independent", choices=variants)
    _add_common(p, initial=False)
    p.set_defaults(handler=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_output(args.out, args.handler(args))
    except states.StateValidationError as exc:
        print(f"error: produced state invalid: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
