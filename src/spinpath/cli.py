"""Command-line interface.

Subcommands: evolve, sweep, ensemble, kraus-compare, tomography,
calibrate.  ``_FLAGS`` declares every flag once, so a flag parses the
same in every subcommand; ``_SUBCOMMANDS`` gives each subcommand's handler,
help and flags in registration order.  All outputs are deterministic
functions of the flags; JSON is written with sorted keys and CSV numbers
with 12 significant digits.

JSON output is byte for byte ``json.dumps(payload, indent=2,
sort_keys=True) + "\n"``: floats as ``float.__repr__`` (NaN, Infinity
and -Infinity where not finite), strings and keys ASCII-escaped by
``json.encoder.encode_basestring_ascii``, empty containers as ``{}`` and
``[]``.  ``_dumps`` writes it directly, as ``json.dumps`` runs its
pure-Python encoder whenever ``indent`` is set.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure, 4 produced-state validation failure.  A state file that fails
validation is exit 2: the first kernel that reads the state validates
it, and ``main`` checks the file state again only when a validation
error escapes, to tell bad input from a bad produced state.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from . import interferometer, kraus, lindblad, states, tomography
from .measures import _mixedness_concurrence, measure_report
from .pauli import MODE_AXES

_NAMED_INITIALS = {
    "singlet": states.experiment_initial,
    "bell1": lambda: states.from_pure(states.bell_state(1)),
    "bell2": lambda: states.from_pure(states.bell_state(2)),
    "bell3": lambda: states.from_pure(states.bell_state(3)),
    "bell4": lambda: states.from_pure(states.bell_state(4)),
    "maximally-mixed": states.maximally_mixed,
}

# One _evolve and one _mixedness_concurrence call per block of grid points bounds
# the working set; the latter validates the block's states once and takes roots
# only of those not certified separable, and one format writes the block's rows.
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


def _initial_state(args) -> np.ndarray:
    """The ``--initial`` state: a named state, or a file state read and
    shape-checked here.  A file state is validated by the first kernel
    that reads it; ``main`` names the file when that check fails, so
    ``args.file_state`` keeps the matrix the handler used."""
    name = args.initial
    if name in _NAMED_INITIALS:
        return _NAMED_INITIALS[name]()
    try:
        with open(name, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read state file {name!r}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"state file {name!r} is not valid json: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"state file {name!r} is nested too deeply to read") from exc
    try:
        args.file_state = _matrix_from_any_json(obj)
    except ValueError as exc:
        raise ValueError(f"state file {name!r}: {exc}") from exc
    return args.file_state


def _write_output(target: str, text: str) -> None:
    if target == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file {target!r}: {exc}") from exc


_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = _FLOAT_REPR(x)
    return _NON_FINITE.get(text, text)


def _encode(o, newline: str) -> str:
    """JSON text of ``o`` as ``json.dumps(o, indent=2, sort_keys=True)``
    writes it, with ``newline`` ("\\n" and the current indent) opening
    each line.  Dict keys must be strings."""
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, str):
        return _escape(o)
    if isinstance(o, int):
        return "true" if o is True else "false" if o is False else _INT_REPR(o)
    if o is None:
        return "null"
    inner = newline + "  "
    separator = "," + inner
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_escape(key) + ": " + _encode(o[key], inner) for key in sorted(o)]
        return "{" + inner + separator.join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if isinstance(o[0], float):
            # A row of floats takes one repr per entry and no call; "n" marks nan or inf.
            try:
                text = separator.join(map(_FLOAT_REPR, o))
            except TypeError:
                pass
            else:
                if "n" in text:
                    text = separator.join(map(_float_text, o))
                return "[" + inner + text + newline + "]"
        elif type(o[0]) is int and set(map(type, o)) == {int}:
            # So does a row of plain ints; a bool, whose int repr is 1, takes the call.
            return "[" + inner + separator.join(map(_INT_REPR, o)) + newline + "]"
        return "[" + inner + separator.join([_encode(v, inner) for v in o]) + newline + "]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps(payload) -> str:
    return _encode(payload, "\n") + "\n"


def _decoherence_spec(args) -> lindblad.DecoherenceSpec:
    return lindblad.DecoherenceSpec(
        mode=args.mode,
        lam=args.lam,
        hamiltonian=lindblad.SystemHamiltonian(args.energies),
    )


def cmd_evolve(args) -> str:
    rho0 = _initial_state(args)
    spec = _decoherence_spec(args)
    # measure_report validates the produced state; nothing is written before it has.
    state = lindblad._evolve(rho0, spec, args.time)
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
    states.check_real(args.time, "time")
    rho0 = _initial_state(args)
    spec = _decoherence_spec(args)
    times = np.linspace(0.0, args.time, args.steps)
    chunks = ["lambda_t,mixedness,concurrence\n"]
    for start in range(0, args.steps, _SWEEP_BLOCK):
        block = times[start:start + _SWEEP_BLOCK]
        purity, entanglement = _mixedness_concurrence(lindblad._evolve(rho0, spec, block))
        rows = np.column_stack((spec.lam * block, purity, entanglement))
        chunks.append(("%.12g,%.12g,%.12g\n" * len(block)) % tuple(rows.ravel().tolist()))
    return "".join(chunks)


def _field_setup(args, sigma: float) -> interferometer.FieldSetup:
    try:
        return interferometer.FieldSetup(
            mode=args.mode, sigma=sigma, variant=args.variant.replace("-", "_")
        )
    except ValueError as exc:
        # FieldSetup names variants as the API spells them; --variant spells them with hyphens.
        raise ValueError(str(exc).replace("_", "-")) from None


def _check_samples(samples: int) -> None:
    if samples > _MAX_SAMPLES:
        raise ValueError(f"--samples {samples} exceeds the limit of {_MAX_SAMPLES} shots")


def cmd_ensemble(args) -> str:
    _check_samples(args.samples)
    rho0 = _initial_state(args)
    setup = _field_setup(args, args.sigma)
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
    """Closed form against the Trotter composition at --steps n and, when
    its weight passes, at n // 2, with the fitted convergence order.

    ``lindblad._evolve`` checks the input state once; ``kraus._trotter_evolve``
    runs on that state, and one check of the stack of produced states
    follows, so a bad one is named ``state 0`` (closed form), ``state 1``
    (n steps) or ``state 2`` (n // 2 steps) before anything is written.
    """
    rho0 = _initial_state(args)
    spec = lindblad.DecoherenceSpec(mode=args.mode, lam=args.lam)
    analytic = lindblad._evolve(rho0, spec, args.time)
    produced = [analytic, kraus._trotter_evolve(rho0, args.mode, args.lam, args.time, args.steps)]
    half = args.steps // 2
    if half and kraus._weight_ok(args.lam * args.time / half):
        produced.append(kraus._trotter_evolve(rho0, args.mode, args.lam, args.time, half))
    states.validate_density_matrix(np.stack(produced))
    error = float(np.abs(produced[1] - analytic).max())
    payload = {
        "mode": args.mode,
        "lambda": args.lam,
        "time": args.time,
        "steps": args.steps,
        "max_error": error,
        "max_error_half_steps": None,
        "convergence_order": None,
    }
    if len(produced) == 3:
        error_half = float(np.abs(produced[2] - analytic).max())
        payload["max_error_half_steps"] = error_half
        if error > 0.0 and error_half > 0.0:
            payload["convergence_order"] = float(
                np.log(error_half / error) / np.log(args.steps / half)
            )
    return _dumps(payload)


def cmd_tomography(args) -> str:
    states.check_count(args.seed, "seed")  # simulate_counts checks it too, but --shots 0 never calls it
    rho0 = _initial_state(args)
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
    # Every setup is built, and the fit's need checked, before any sampling.
    setups = [_field_setup(args, sigma) for sigma in args.sigmas]
    if not any(setup.sigma for setup in setups):
        raise ValueError("calibration needs at least one nonzero sigma")
    rho0 = states.experiment_initial()
    initial_magnitude = float(np.abs(rho0[1, 2]))
    points = []
    for i, setup in enumerate(setups):
        coherence = interferometer._element_mean_monte_carlo(rho0, setup, args.samples, args.seed + i, (1, 2))
        magnitude = float(np.abs(coherence))
        if magnitude <= 0.0:
            raise np.linalg.LinAlgError(
                f"coherence lost entirely at sigma = {setup.sigma}; cannot take log"
            )
        # Decay relative to the initial coherence, so sigma=0 (mean equals
        # the input bit-exactly) reports lambda_t = 0 exactly.
        lambda_t = float(-np.log(magnitude / initial_magnitude)) + 0.0
        points.append({"sigma": setup.sigma, "lambda_t": lambda_t})
    # Fit against (sigma / 2^e)^2, with 2^e the binade of the largest sigma,
    # so that the largest term is about 1 and sigma^4 neither overflows nor,
    # for tiny sigmas, underflows to 0 (a term that underflows is negligible
    # next to the largest).  Scaling by a power of two is exact, so the fit
    # keeps its digits; ldexp by -2e undoes it at the end.  The largest
    # sigma is nonzero, so its term is at least 1/16 and denom is positive.
    exponent = math.frexp(max(p["sigma"] for p in points))[1]
    sq = np.array([math.ldexp(p["sigma"], -exponent) ** 2 for p in points])
    lt = np.array([p["lambda_t"] for p in points])
    denom = float((sq ** 2).sum())
    coefficient = float((lt * sq).sum() / denom)
    residuals = lt - coefficient * sq
    if len(points) > 1:
        spread = float((residuals ** 2).sum() / (len(points) - 1))
        coefficient_stderr = float(np.sqrt(spread / denom))
    else:
        coefficient_stderr = 0.0
    coefficient = float(np.ldexp(coefficient, -2 * exponent))
    coefficient_stderr = float(np.ldexp(coefficient_stderr, -2 * exponent))
    setup = _field_setup(args, 1.0)
    payload = {
        "mode": args.mode,
        "variant": setup.variant,
        "samples": args.samples,
        "seed": args.seed,
        "points": points,
        "coefficient": coefficient,
        "coefficient_stderr": coefficient_stderr,
        "expected_coefficient": interferometer.lambda_from_sigma(setup, 1.0),
    }
    return _dumps(payload)


class _Number:
    """Matches a token that ``float`` reads, such as -1e3 or -5e-1."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token that parses as a number as a
    value, not as an option.  argparse's own test for a negative number
    misses exponents, so it takes -1e3 for an unknown option.  Subparsers
    are built by this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _Number


# Every flag's add_argument keywords, shared by each subcommand that takes the flag.
_FLAGS = {
    "--mode": dict(required=True, choices=tuple(MODE_AXES)),
    "--lambda": dict(dest="lam", type=float, required=True),
    "--time": dict(type=float, required=True),
    "--steps": dict(type=int, required=True),
    "--energies": dict(type=float, nargs=4, default=(0.0, 0.0, 0.0, 0.0)),
    "--sigma": dict(type=float, required=True),
    "--sigmas": dict(type=float, nargs="+", required=True),
    "--samples": dict(type=int, required=True),
    "--shots": dict(type=int, required=True, help="0 means exact probabilities"),
    "--seed": dict(type=int, default=0),
    # --variant spells the field-layout variants with hyphens.
    "--variant": dict(
        default="both-paths-independent",
        choices=sorted(variant.replace("_", "-") for variant in interferometer.VARIANTS),
    ),
    "--initial": dict(
        default="singlet",
        help="named state (singlet, bell1..bell4, maximally-mixed) or a json state file path",
    ),
    "--out": dict(default="-", help="output path, or - for stdout"),
}

# One row per subcommand: name, handler, help and its flags in registration order.
_SUBCOMMANDS = (
    ("evolve", cmd_evolve, "closed-form evolution plus measures",
     "--mode --lambda --time --energies --initial --out"),
    ("sweep", cmd_sweep, "mixedness and concurrence at --steps grid points from 0 to --time (csv)",
     "--mode --lambda --time --steps --energies --initial --out"),
    ("ensemble", cmd_ensemble, "monte carlo vs analytic gaussian average",
     "--mode --sigma --samples --seed --variant --initial --out"),
    ("kraus-compare", cmd_kraus_compare, "trotterized kraus map vs closed form",
     "--mode --lambda --time --steps --initial --out"),
    ("tomography", cmd_tomography, "simulated measurement and reconstruction",
     "--shots --seed --initial --out"),
    ("calibrate", cmd_calibrate, "fit lambda*t against sigma^2 from monte carlo",
     "--mode --sigmas --samples --seed --variant --out"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spinpath argument parser, built once per process.

    Every parse fills a fresh namespace and nothing mutates the parser,
    so every ``main`` call shares this one, and parses a subcommand's
    flags with that subcommand's parser within it.  The handlers it binds
    look up their kernels at call time.
    """
    parser = _ArgumentParser(
        prog="spinpath",
        description="two-qubit spin-path decoherence simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # The top-level parser would hand every token after a subcommand's name
    # on to that subcommand's parser unchanged, so a known name goes there
    # directly, and leftovers fail with the top-level usage as they would.
    (commands,) = parser._get_positional_actions()
    subparser = commands.choices.get(argv[0]) if argv else None
    if subparser is None:
        args = parser.parse_args(argv)
    else:
        args, extras = subparser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        _write_output(args.out, args.handler(args))
    except states.StateValidationError as exc:
        # Bad input is a configuration problem, not a produced-state failure.
        file_state = getattr(args, "file_state", None)
        if file_state is not None:
            try:
                states.validate_density_matrix(file_state)
            except states.StateValidationError as bad:
                print(f"error: state file {args.initial!r}: {bad}", file=sys.stderr)
                return 2
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
