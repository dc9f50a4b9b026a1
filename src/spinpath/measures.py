"""Mixedness and entanglement measures; det(rho^Gamma) > 1e-12 certifies concurrence 0.
``measure_report`` is the one entry for the Wootters roots of a state or of a stack."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import ID4, SIGMA_Y
from .states import EIGENVALUE_FLOOR, HERMITICITY_TOL, TRACE_TOL, BellWeights, validate_density_matrix

# sy (x) sy is anti-diagonal; its entry in row i, (-1, 1, 1, -1), as a column.
_YY_SIGNS = np.fliplr(np.kron(SIGMA_Y, SIGMA_Y)).diagonal().real[:, None]
# A validated state has trace 1 and no eigenvalue below -1e-9, so det > 1e-12
# leaves none negative and, as the other three multiply to at most 1/27, puts
# the least above 2.7e-11: far above the Hermiticity slack (< 2e-12) of the
# lower triangle that Cholesky reads, and above where LAPACK Cholesky fails.
_DET_FLOOR = 1e-12
# rho^Gamma, the partial transpose on the path factor: (s, p), (s', p') gathers (s, p'), (s', p).
_PATH_TRANSPOSE = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).ravel()


# The upper bounds of a validated state's measures, plus 16 ulps for rounding.  Its
# eigenvalues are >= EIGENVALUE_FLOOR = f and sum to at most 1 + TRACE_TOL, so Tr rho^2
# peaks with three at f: (1 + TRACE_TOL - 3f)^2 + 3f^2, about 1 + 6e-9.  C <= mu_1 <=
# Tr rho_+ <= 1 + TRACE_TOL + 3|f|, about 1 + 3e-9, with 1.5 HERMITICITY_TOL more per
# eigenvalue for the lower triangle that Cholesky and eigh read.
_ROUNDING = 16 * 2.0**-52
_MIXEDNESS_MAX = (1.0 + TRACE_TOL - 3.0 * EIGENVALUE_FLOOR) ** 2 + 3.0 * EIGENVALUE_FLOOR**2 + _ROUNDING
_CONCURRENCE_MAX = 1.0 + TRACE_TOL + 3.0 * (1.5 * HERMITICITY_TOL - EIGENVALUE_FLOOR) + _ROUNDING


def _check_ranges(mixedness: np.ndarray, concurrence: np.ndarray) -> None:
    bounds = (("mixedness", mixedness, 0.25 - 1e-9, _MIXEDNESS_MAX, "1/4"),
              ("concurrence", concurrence, -1e-12, _CONCURRENCE_MAX, "0"))
    for name, values, low, high, text in bounds:
        bad = ~((low <= values) & (values <= high))
        if bad.any():
            raise ValueError(f"{name} out of range [{text}, 1]: {float(values[bad][0])!r}")


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
        _check_ranges(np.asarray(self.mixedness), np.asarray(self.concurrence))
        roots = np.asarray(self.wootters_roots, dtype=float)
        # Decreasing with the last one >= 0 means all are >= 0; a nan fails a comparison.
        if roots.shape[-1:] != (4,) or not (
            (roots[..., 1:] <= roots[..., :-1]).all() and (roots[..., 3] >= 0).all()
        ):
            raise ValueError("wootters_roots must be 4 nonnegative reals in decreasing order")
        if roots.ndim == 1:
            object.__setattr__(self, "wootters_roots", tuple(roots.tolist()))

    def to_json(self) -> dict:
        """Floats and a list of four roots for one state; lists for a stack."""
        return {
            "mixedness": np.asarray(self.mixedness).tolist(),
            "concurrence": np.asarray(self.concurrence).tolist(),
            "wootters_roots": np.asarray(self.wootters_roots).tolist(),
        }


def mixedness(rho: np.ndarray) -> float | np.ndarray:
    """Purity Tr(rho^2): 1 for pure states, 1/4 for the maximally mixed one.

    A float for one state, an (N,) array for an (N, 4, 4) stack.
    """
    return _mixedness_concurrence(rho)[0]


def _roots(rho: np.ndarray) -> np.ndarray:
    """Decreasing Wootters roots of one validated state (4,) or of a stack (N, 4).

    They are the singular values of tau = W^T (sy (x) sy) W for any factor
    rho = W W^dagger (Wootters, PRL 80, 2245 (1998)): W -> W U leaves them
    unchanged.  W is the Cholesky factor of each state with det rho above
    1e-12; a state below that floor (rank-deficient, such as a pure state)
    takes W = V sqrt(lambda) from ``eigh`` with negative eigenvalues clipped
    to 0, which keeps full precision on pure states.  Which route a state
    takes depends on that state alone.

    sy (x) sy is anti-diagonal with entries (-1, 1, 1, -1), so W^T (sy (x) sy)
    is the row-reversed W scaled by those signs and transposed: one product
    fewer, and the same terms paired as (W^T (sy (x) sy)) W, bit for bit.
    """
    w = _factor(rho)
    tau = (_YY_SIGNS * w[..., ::-1, :]).swapaxes(-2, -1) @ w
    return np.linalg.svd(tau, compute_uv=False)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _det_above_floor(m: np.ndarray) -> np.ndarray:
    """det(m) > 1e-12 for a matrix or each of a stack.  LAPACK's LU can meet a
    subnormal pivot (an entry near 1e-318) and divide by it, and the det comes
    back nan or inf with a floating-point warning: such a det is read as not
    above the floor, explicitly and without the warning."""
    det = np.linalg.det(m).real
    return (det > _DET_FLOOR) & (det < np.inf)  # nan fails both, +inf the second


def _factor(rho: np.ndarray) -> np.ndarray:
    """A factor W with rho = W W^dagger of each validated state in rho."""
    clear = _det_above_floor(rho)
    w = np.linalg.cholesky(np.where(clear[..., None, None], rho, ID4))
    if not clear.all():
        eigenvalues, vectors = np.linalg.eigh(rho[~clear])
        w[~clear] = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[..., None, :]
    return w


def _separable(rho: np.ndarray) -> np.ndarray:
    """det(rho^Gamma) > 1e-12 certifies a validated state separable: a two-qubit rho^Gamma has
    at most one negative eigenvalue (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)), and none
    iff the state is separable (Horodecki, PLA 223, 1 (1996)).  As rho + 1e-9 >= 0, a second
    one lies in [-1e-9, 0) and comes with lambda < 0 < eps < 1e-9 in (rho + 1e-9)^Gamma, where
    lambda^2 <= eps (equal on pure states: p1, p2, +-sqrt(p1 p2)); such a pair has |det| < 1e-14.
    A det that LU does not return finite certifies nothing (``_det_above_floor``)."""
    gamma = rho.reshape(rho.shape[:-2] + (16,))[..., _PATH_TRANSPOSE].reshape(rho.shape)
    return _det_above_floor(gamma)


def _mixedness_concurrence(rho: np.ndarray):
    """``measure_report``'s mixedness and concurrence, bit for bit, with roots only of uncertified states."""
    rho = validate_density_matrix(rho)
    purity, entanglement = np.einsum("...ij,...ji->...", rho, rho).real, np.zeros(rho.shape[:-2])
    if (open_ := ~_separable(rho)).any():
        mu = _roots(rho[open_])
        entanglement[open_] = np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])
    _check_ranges(purity, entanglement)
    return (purity, entanglement) if rho.ndim == 3 else (float(purity), float(entanglement))


def concurrence(rho: np.ndarray) -> float | np.ndarray:
    """Entanglement monotone max{0, mu1 - mu2 - mu3 - mu4}.

    The mu_i are the decreasing Wootters roots (as :func:`measure_report` gives them).
    Returns 0 for separable states and 1 for maximally entangled ones:
    a float for one state, an (N,) array for an (N, 4, 4) stack.
    """
    return _mixedness_concurrence(rho)[1]


def concurrence_bell_diagonal(weights) -> float:
    """Closed form max{0, 2*max(nu) - 1} for Bell-diagonal states."""
    if not isinstance(weights, BellWeights):
        weights = BellWeights(tuple(weights))
    return float(max(0.0, 2.0 * max(weights.nu) - 1.0))


def measure_report(rho: np.ndarray) -> MeasureReport:
    """Mixedness, concurrence and Wootters roots of one state or a stack.

    A (4, 4) state gives a :class:`MeasureReport` of floats; an (N, 4, 4)
    stack gives one report of arrays over the stack.  The state is
    validated once, here, as the CLI's ``evolve`` relies on; a state
    certified separable (:func:`_separable`) takes concurrence 0.0.
    """
    rho = validate_density_matrix(rho)
    mu = _roots(rho)
    purity = np.einsum("...ij,...ji->...", rho, rho).real
    entanglement = np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])
    if np.count_nonzero(entanglement):  # zeros stay; a certified state's nonzero value becomes 0.0
        entanglement = np.where(_separable(rho), 0.0, entanglement)
    if rho.ndim == 2:
        purity, entanglement = float(purity), float(entanglement)
    return MeasureReport(mixedness=purity, concurrence=entanglement, wootters_roots=mu)
