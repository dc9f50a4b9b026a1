"""Construction, validation and serialization of two-qubit states, and the one
check of each count and real argument bound (``check_count``, ``check_real``).

States are 4x4 complex density matrices in the product basis
e1=|up,I>, e2=|up,II>, e3=|down,I>, e4=|down,II> (see :mod:`spinpath.pauli`).
The Bell basis used by :func:`bell_state` is

    psi1 = (e1 + e4)/sqrt(2)      psi2 = (e1 - e4)/sqrt(2)
    psi3 = (e2 + e3)/sqrt(2)      psi4 = (e2 - e3)/sqrt(2)

so ``bell_state(4)`` is the singlet-like state used as the reference
initial condition throughout.  The basis is held once, as the table of
sqrt(2) psi_i: :func:`bell_state` reads its rows and :func:`bell_diagonal`
forms ``sum_i nu_i |psi_i><psi_i|`` from it in one product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12
# c*1 with c = -EIGENVALUE_FLOOR/2: a Cholesky factorization of rho + c*1 exists
# only if min eig(rho) > -c - O(eps), a bound far above the floor.
_CHOLESKY_SHIFT = -EIGENVALUE_FLOOR / 2.0 * np.eye(4)

# Entry types a parsed JSON number has.
_JSON_NUMBERS = {int, float}
# The ints np.asarray reads as int64 or uint64; past them it gives an object array.
_INT_LOW, _INT_HIGH = -2**63, 2**64

# sqrt(2) times psi1..psi4 of the module docstring, one per row.
_BELL_TABLE = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex)
_BELL = _BELL_TABLE / np.sqrt(2.0)


class StateValidationError(ValueError):
    """Raised when a matrix violates a density-matrix invariant.

    The message names the violated invariant and its magnitude.
    """


def bell_state(index: int) -> np.ndarray:
    """Return one of the four maximally entangled basis vectors.

    Args:
        index: 1-based label, 1..4.

    Returns:
        Unit-norm complex vector of length 4.
    """
    if index not in (1, 2, 3, 4):
        raise ValueError(f"bell state index must be in 1..4, got {index!r}")
    return _BELL[int(index) - 1].copy()


def from_pure(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized 4-component vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"pure state must be a length-4 vector, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise ValueError("pure state must be finite")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"pure state not normalized: |<psi|psi> - 1| = {abs(norm_sq - 1.0):.3e}")
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class BellWeights:
    """Probability weights (nu1..nu4) of a Bell-diagonal mixture."""

    nu: tuple[float, float, float, float]

    def __post_init__(self):
        nu = tuple(check_real(x, "weight", signed=True) for x in self.nu)
        if len(nu) != 4:
            raise ValueError(f"expected 4 weights, got {len(nu)}")
        if not all(np.isfinite(nu)):
            raise ValueError(f"weights must be finite, got {nu}")
        if min(nu) < -1e-12:
            raise ValueError(f"weights must be nonnegative, got min = {min(nu):.3e}")
        total = sum(nu)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1: |sum - 1| = {abs(total - 1.0):.3e}")
        object.__setattr__(self, "nu", nu)


def bell_diagonal(weights) -> np.ndarray:
    """Mixture ``sum_i nu_i |psi_i><psi_i|`` of the four Bell projectors.

    Accepts a :class:`BellWeights` or any sequence of four weights.
    """
    if not isinstance(weights, BellWeights):
        weights = BellWeights(tuple(weights))
    # S^T diag(nu) S / 2 over the real table S of rows sqrt(2) psi_i is sum_i nu_i |psi_i><psi_i|.
    # The product forms each entry's nu_i +- nu_j exactly; halving after it rounds each entry
    # once, also where the weights are subnormal.
    return 0.5 * ((_BELL_TABLE.T * weights.nu) @ _BELL_TABLE)


def experiment_initial() -> np.ndarray:
    """The singlet-like reference state ``|psi4><psi4|``."""
    return from_pure(bell_state(4))


def maximally_mixed() -> np.ndarray:
    """The maximally mixed state (identity / 4)."""
    return np.eye(4, dtype=complex) / 4.0


def check_count(value, name: str, least: int = 0) -> None:
    """Raise ValueError unless ``value`` is an int or np.integer, never a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        bound = {0: "a nonnegative integer", 1: "a positive integer"}.get(least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def check_real(value, name: str, positive: bool = False, signed: bool = False) -> float:
    """Return ``value`` as a float, raising ValueError unless it is a real scalar: an int,
    a float or a 0-d array of one, never a bool, str, complex or sequence.  It must also be
    finite and >= 0 (> 0 if ``positive``) unless ``signed``, whose range its caller checks."""
    if type(value) is float or (type(value) is int and _INT_LOW <= value < _INT_HIGH):
        real, x = True, float(value)  # what asarray gives, without its cost
    else:
        array = np.asarray(None if isinstance(value, (list, tuple)) else value)  # a ragged list would fail in asarray
        real = array.ndim == 0 and array.dtype.kind in "iuf"
        x = float(array) if real else math.nan
    if signed:
        if not real:
            raise ValueError(f"{name} must be a real number, got {value!r}")
    elif not (math.isfinite(x) and (x > 0.0 if positive else x >= 0.0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {value!r}")
    return x


def _check(bad, defect, message: str) -> None:
    """Raise ``message`` for the first flagged state; a stack's is prefixed with its index."""
    if bad.ndim == 0:
        if bad:
            raise StateValidationError(message.format(defect))
    elif bad.any():
        i = int(np.argmax(bad))
        raise StateValidationError(f"state {i}: " + message.format(defect[i]))


def validate_density_matrix(m) -> np.ndarray:
    """Check the density-matrix invariants, returning the validated array.

    Accepts one state of shape (4, 4) or a stack of shape (N, 4, 4).
    Checks, in order and each over the whole stack: finiteness,
    Hermiticity within ``HERMITICITY_TOL``, unit trace within
    ``TRACE_TOL``, and positive semidefiniteness with eigenvalue floor
    ``EIGENVALUE_FLOOR``.  Each of the first three is tested over the
    whole input at once, and checked state by state only to name the
    first offending state.

    Positivity is first certified by a Cholesky factorization of
    ``rho + c*1`` with shift ``c = -EIGENVALUE_FLOOR/2 = 5e-10``.  LAPACK
    reads only its lower triangle (and the real part of its diagonal),
    that is, the Hermitian matrix whose lower triangle is rho's.  That
    matrix differs from ``(rho + rho^dagger)/2`` by at most
    ``HERMITICITY_TOL/2`` per off-diagonal entry, so by at most 1.5e-12
    in norm (three entries a row), and its eigenvalues by no more.  A
    factorization succeeds only when the least eigenvalue exceeds
    ``-c - O(eps)``; a shift of 1.5e-12 cannot carry a state across the
    5e-10 margin down to the floor, so every state of a stack that
    factors passes.  When any state fails to factor, the exact check
    decides alone: ``eigvalsh`` of every ``(rho + rho^dagger)/2``, which
    only this fallback forms, its least eigenvalue compared with the
    floor.  Accept/reject decisions and messages are therefore those of
    the exact check.

    Raises:
        StateValidationError: naming the violated invariant and its size;
            for a stack, prefixed with ``state i: `` for the first
            offending state.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise StateValidationError(f"shape violation: expected (4, 4) or (N, 4, 4), got {m.shape}")
    # Each invariant is tested over the whole input at once; the per-state
    # check that names the first offending state runs only when that fails.
    finite = np.isfinite(m)
    if not finite.all():
        finite = finite.all(axis=(-2, -1))
        _check(~finite, finite, "finiteness violation: matrix contains nan or inf")
    adjoint = m.conj().swapaxes(-2, -1)
    herm_defect = np.abs(m - adjoint)
    if not herm_defect.max(initial=0.0) <= HERMITICITY_TOL:
        herm_defect = herm_defect.max(axis=(-2, -1))
        _check(herm_defect > HERMITICITY_TOL, herm_defect,
               "hermiticity violation: max|rho - rho^dagger| = {:.3e}")
    trace_defect = np.abs(m.trace(axis1=-2, axis2=-1).real - 1.0)
    if not (trace_defect <= TRACE_TOL).all():
        _check(trace_defect > TRACE_TOL, trace_defect, "trace violation: |Tr rho - 1| = {:.3e}")
    try:
        np.linalg.cholesky(m + _CHOLESKY_SHIFT)
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh((m + adjoint) / 2.0)[..., 0]
        _check(min_eig < EIGENVALUE_FLOOR, min_eig,
               f"positivity violation: min eigenvalue = {{:.3e}} < {EIGENVALUE_FLOOR:.1e}")
    return m


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a 4x4 complex matrix to ``{"dim": 4, "re": ..., "im": ...}``."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return {"dim": 4, "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`.  Performs shape and type checks only:
    every entry must be an int or float (a JSON number), never a bool or str."""
    if not isinstance(obj, dict):
        raise ValueError("matrix json must be an object")
    if obj.get("dim") != 4:
        raise ValueError(f"unsupported dim: {obj.get('dim')!r}")
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix json: {exc}") from exc
    if re.shape != (4, 4) or im.shape != (4, 4):
        raise ValueError(f"matrix json parts must be 4x4, got {re.shape} and {im.shape}")
    for part in ("re", "im"):
        for k, x in enumerate(itertools.chain.from_iterable(obj[part])):
            # The type lookup is the fast test; isinstance lets float subclasses such as np.float64 pass.
            if type(x) not in _JSON_NUMBERS and (isinstance(x, bool) or not isinstance(x, (int, float))):
                raise ValueError(f"malformed matrix json: {part}[{k // 4}][{k % 4}] = {x!r} is not a number")
    return re + 1j * im
