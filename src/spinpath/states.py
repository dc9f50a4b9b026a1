"""Construction, validation and serialization of two-qubit states.

States are 4x4 complex density matrices in the product basis
e1=|up,I>, e2=|up,II>, e3=|down,I>, e4=|down,II> (see :mod:`spinpath.pauli`).
The Bell basis used by :func:`bell_state` is

    psi1 = (e1 + e4)/sqrt(2)      psi2 = (e1 - e4)/sqrt(2)
    psi3 = (e2 + e3)/sqrt(2)      psi4 = (e2 - e3)/sqrt(2)

so ``bell_state(4)`` is the singlet-like state used as the reference
initial condition throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9
NORM_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)


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
    if index == 1:
        v = [1.0, 0.0, 0.0, 1.0]
    elif index == 2:
        v = [1.0, 0.0, 0.0, -1.0]
    elif index == 3:
        v = [0.0, 1.0, 1.0, 0.0]
    elif index == 4:
        v = [0.0, 1.0, -1.0, 0.0]
    else:
        raise ValueError(f"bell state index must be in 1..4, got {index!r}")
    return np.array(v, dtype=complex) / _SQRT2


def from_pure(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a normalized 4-component vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"pure state must be a length-4 vector, got shape {psi.shape}")
    norm_sq = float(np.vdot(psi, psi).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"pure state not normalized: |<psi|psi> - 1| = {abs(norm_sq - 1.0):.3e}")
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class BellWeights:
    """Probability weights (nu1..nu4) of a Bell-diagonal mixture."""

    nu: tuple[float, float, float, float]

    def __post_init__(self):
        nu = tuple(float(x) for x in self.nu)
        if len(nu) != 4:
            raise ValueError(f"expected 4 weights, got {len(nu)}")
        if not all(np.isfinite(nu)):
            raise ValueError("weights must be finite")
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
    nu1, nu2, nu3, nu4 = weights.nu
    s1, s2, d1, d2 = nu1 + nu2, nu3 + nu4, nu1 - nu2, nu3 - nu4
    rho = 0.5 * np.array(
        [
            [s1, 0.0, 0.0, d1],
            [0.0, s2, d2, 0.0],
            [0.0, d2, s2, 0.0],
            [d1, 0.0, 0.0, s1],
        ],
        dtype=complex,
    )
    return rho


def experiment_initial() -> np.ndarray:
    """The singlet-like reference state ``|psi4><psi4|``."""
    return from_pure(bell_state(4))


def maximally_mixed() -> np.ndarray:
    """The maximally mixed state (identity / 4)."""
    return np.eye(4, dtype=complex) / 4.0


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
    ``EIGENVALUE_FLOOR``.

    Raises:
        StateValidationError: naming the violated invariant and its size;
            for a stack, prefixed with ``state i: `` for the first
            offending state.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise StateValidationError(f"shape violation: expected (4, 4) or (N, 4, 4), got {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    _check(~finite, finite, "finiteness violation: matrix contains nan or inf")
    adjoint = m.conj().swapaxes(-2, -1)
    herm_defect = np.abs(m - adjoint).max(axis=(-2, -1))
    _check(herm_defect > HERMITICITY_TOL, herm_defect,
           "hermiticity violation: max|rho - rho^dagger| = {:.3e}")
    trace_defect = np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
    _check(trace_defect > TRACE_TOL, trace_defect, "trace violation: |Tr rho - 1| = {:.3e}")
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
    """Inverse of :func:`matrix_to_json`.  Performs shape checks only."""
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
    return re + 1j * im
