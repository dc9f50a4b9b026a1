"""Mixedness and entanglement measures for two-qubit states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import SIGMA_Y
from .states import BellWeights, validate_density_matrix

_YY = np.kron(SIGMA_Y, SIGMA_Y)


@dataclass(frozen=True)
class MeasureReport:
    """Mixedness, concurrence and Wootters roots of one state or of a stack.

    For one state the fields are floats and a tuple of four floats; for an
    (N, 4, 4) stack they are arrays of shape (N,), (N,) and (N, 4).  The
    range checks run once over the whole stack.
    """

    mixedness: float | np.ndarray
    concurrence: float | np.ndarray
    wootters_roots: tuple[float, float, float, float] | np.ndarray

    def __post_init__(self):
        mixedness, concurrence = np.asarray(self.mixedness), np.asarray(self.concurrence)
        bad = ~((0.25 - 1e-9 <= mixedness) & (mixedness <= 1.0 + 1e-9))
        if bad.any():
            raise ValueError(f"mixedness out of range [1/4, 1]: {float(mixedness[bad][0])!r}")
        bad = ~((-1e-12 <= concurrence) & (concurrence <= 1.0 + 1e-9))
        if bad.any():
            raise ValueError(f"concurrence out of range [0, 1]: {float(concurrence[bad][0])!r}")
        roots = np.asarray(self.wootters_roots, dtype=float)
        if roots.shape[-1:] != (4,) or not (roots >= 0).all() or not (np.diff(roots) <= 0).all():
            raise ValueError("wootters_roots must be 4 nonnegative reals in decreasing order")
        if roots.ndim == 1:
            object.__setattr__(self, "wootters_roots", tuple(float(r) for r in roots))

    def to_json(self) -> dict:
        return {
            "mixedness": self.mixedness,
            "concurrence": self.concurrence,
            "wootters_roots": list(self.wootters_roots),
        }


def mixedness(rho: np.ndarray) -> float:
    """Purity Tr(rho^2) of one state: 1 for pure states, 1/4 for the maximally mixed one."""
    return measure_report(rho).mixedness


def wootters_roots(rho: np.ndarray) -> np.ndarray:
    """Decreasing Wootters roots of one state (4,) or of a stack (N, 4).

    They are the singular values of tau = W^T (sy (x) sy) W with
    rho = W W^dagger, W = V sqrt(lambda) (Wootters, PRL 80, 2245 (1998)),
    which keeps full precision on pure states.
    """
    rho = validate_density_matrix(rho)
    eigenvalues, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[..., None, :]
    tau = w.swapaxes(-2, -1) @ _YY @ w
    return np.linalg.svd(tau, compute_uv=False)


def concurrence(rho: np.ndarray) -> float:
    """Entanglement monotone max{0, mu1 - mu2 - mu3 - mu4} of one state.

    The mu_i are the decreasing Wootters roots (:func:`wootters_roots`).
    Returns 0 for separable states and 1 for maximally entangled ones.
    """
    return measure_report(rho).concurrence


def concurrence_bell_diagonal(weights) -> float:
    """Closed form max{0, 2*max(nu) - 1} for Bell-diagonal states."""
    if not isinstance(weights, BellWeights):
        weights = BellWeights(tuple(weights))
    return float(max(0.0, 2.0 * max(weights.nu) - 1.0))


def measure_report(rho: np.ndarray) -> MeasureReport:
    """Mixedness, concurrence and Wootters roots of one state or a stack.

    A (4, 4) state gives a :class:`MeasureReport` of floats; an (N, 4, 4)
    stack gives one report of arrays over the stack.  The state is
    validated once, by :func:`wootters_roots`.
    """
    rho = np.asarray(rho, dtype=complex)
    mu = wootters_roots(rho)
    purity = np.einsum("...ij,...ji->...", rho, rho).real
    entanglement = np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])
    if rho.ndim == 3:
        return MeasureReport(mixedness=purity, concurrence=entanglement, wootters_roots=mu)
    return MeasureReport(mixedness=float(purity), concurrence=float(entanglement), wootters_roots=mu)
