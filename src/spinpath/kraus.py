"""Discrete Kraus maps matching the two decoherence modes.

Each mode has a four-operator set parametrized by a step weight
w = lam * t (valid for 0 <= w <= 4/3) and built from the mode's spin
axis s (``pauli.MODE_AXES``: sz for mode A, sx for mode B):

    sqrt(1 - 3w/4) * 1,  sqrt(w/4) * {1 (x) sz, s (x) 1, s (x) sz}

With J_0 = 1 and J_1..J_3 the jump operators, the step map is
(1 - w) * 1 + w * T with T = 1/4 sum_k J_k (x) J_k^*, the 16x16 twirl
that ``_TWIRL`` holds for each mode, built once.  The J_k form a Klein
group up to sign, so T is a projector and weights compose as
1 - W = (1 - w_1)(1 - w_2): n steps of weight w are one step of weight
W = 1 - (1 - w)^n, which ``trotter_evolve`` applies as (1 - W) * 1 + W * T.
The n-fold composition with per-step weight lam*t/n converges to the
continuous-time solution at first order in 1/n, which the test suite
cross-checks.  T is also, bit for bit, the projector dephasing
sum_k P_k (x) P_k^* of the master equation's mode, which
:mod:`spinpath.lindblad` builds from its own projectors.
"""

from __future__ import annotations

import math

import numpy as np

from . import superop
from .pauli import ID2, ID4, MODE_AXES, SIGMA_Z, check_mode, spin_path_stack
from .states import check_count, check_real, validate_density_matrix

MAX_WEIGHT = 4.0 / 3.0
_COMPLETENESS_TOL = 1e-12
# Least normal float, the least step duration lindblad_generators_from_kraus takes.
_MIN_DT = float(np.finfo(float).tiny)


def completeness_defect(operators) -> float:
    """Max elementwise deviation of sum M^dagger M from the identity, over a (k, 4, 4) stack of operators M."""
    operators = np.asarray(operators, dtype=complex)
    total = np.einsum("kba,kbc->ac", operators.conj(), operators)
    return float(np.abs(total - ID4).max())


def _weight_ok(weight: float) -> bool:
    return 0.0 <= weight <= MAX_WEIGHT  # False at nan and at +-inf


def _check_weight(weight: float) -> float:
    weight = check_real(weight, "step weight")
    if not _weight_ok(weight):
        raise ValueError(f"step weight must lie in [0, 4/3], got {weight!r}")
    return weight


def _fewest_steps(lam_t: float) -> int:
    """Smallest step count n whose weight lam_t / n passes ``_check_weight``, for finite lam_t >= 0.

    Counts are stepped as floats, so past 2**53 only counts that are floats
    are tried, and each search takes a few steps at any lam_t.
    """
    n = max(1.0, float(math.ceil(lam_t / MAX_WEIGHT)))
    while not _weight_ok(lam_t / n):
        n = max(n + 1.0, math.nextafter(n, math.inf))
    while n > 1.0 and _weight_ok(lam_t / (fewer := min(n - 1.0, math.nextafter(n, 0.0)))):
        n = fewer
    return int(n)


# Each mode's three jump operators 1 (x) sz, s (x) 1 and s (x) sz, the companions of the identity.
_JUMPS = {mode: spin_path_stack([(ID2, SIGMA_Z), (s, ID2), (s, SIGMA_Z)]) for mode, s in MODE_AXES.items()}

# Each mode's twirl T = 1/4 sum_k J_k (x) J_k^* over {1, J_1, J_2, J_3}, the
# step map of weight 1, as the read-only Kraus map of those operators / 2.
_TWIRL = {mode: superop.kraus_map(np.concatenate(([ID4], jumps)) / 2.0) for mode, jumps in _JUMPS.items()}


def kraus_set_for_mode(mode: str, weight: float) -> np.ndarray:
    """Step map of ``mode`` with weight w, as a fresh (4, 4, 4) stack of Kraus
    operators [sqrt(1 - 3w/4) * 1, sqrt(w/4) * J_1, sqrt(w/4) * J_2, sqrt(w/4) * J_3]."""
    check_mode(mode)
    w = _check_weight(weight)
    return np.concatenate(([np.sqrt(1.0 - 3.0 * w / 4.0) * ID4], np.sqrt(w / 4.0) * _JUMPS[mode]))


def _trotter_evolve(rho: np.ndarray, mode: str, lam: float, t: float, n: int) -> np.ndarray:
    """``trotter_evolve`` of a state already validated, without the check of
    its output, for a caller that validates what it produced in one stack,
    as the CLI's ``kraus-compare`` does.

    ``rho`` must be a state as ``validate_density_matrix`` returns it.  The
    step count, coupling, time, their product, the step weight and the
    mode are checked here with ``trotter_evolve``'s messages, and the drift
    against its 1e-9 budget; the settled state is returned unchecked.
    """
    check_count(n, "step count", 1)
    check_real(lam, "coupling strength")
    check_real(t, "time")
    lam_t = float(lam) * float(t)  # Python floats overflow to inf without a warning
    if not math.isfinite(lam_t):
        raise ValueError(f"lam * t is not finite for lam {lam!r} at time {t!r}")
    w = lam_t / n
    if not _weight_ok(w):
        raise ValueError(
            f"step weight lam * t / n = {w!r} exceeds 4/3 at n = {n}; "
            f"the fewest steps whose weight passes is n = {_fewest_steps(lam_t)}"
        )
    check_mode(mode)
    total = -np.expm1(n * np.log1p(-w)) if w < 1.0 else 1.0 - (1.0 - w) ** n
    out = (1.0 - total) * rho + total * superop.apply(_TWIRL[mode], rho)
    trace = float(np.trace(rho).real)
    return superop.settle(out, 1e-9, f"Trotter composition (n={n})", trace)


def trotter_evolve(rho0: np.ndarray, mode: str, lam: float, t: float, n: int) -> np.ndarray:
    """n-fold composition of the per-step map with weight w = lam*t/n.

    The weight is checked per step as in ``kraus_set_for_mode``; a weight
    above 4/3 is rejected naming n and the fewest steps whose weight
    passes.  The n steps are then applied as the one step of weight
    W = 1 - (1 - w)^n (see the module docstring), (1 - W) * rho + W * T rho
    with the mode's twirl T, where W is computed as -expm1(n * log1p(-w))
    for w < 1 and by the power for w >= 1, so rounding does not grow with
    n.  Hermiticity and trace drift are checked against a fixed budget of
    1e-9; within it the result is re-Hermitized and renormalized to the
    input's trace (the map preserves it).  The input and the output are
    validated here, once each, around ``_trotter_evolve``; the CLI's
    ``kraus-compare`` calls that directly and checks its produced states
    together.

    Raises:
        ValueError: for a bad state, step count, coupling, time or mode,
            or when lam * t is not finite.
        numpy.linalg.LinAlgError: when the drift exceeds the budget,
            naming n.
    """
    return validate_density_matrix(_trotter_evolve(validate_density_matrix(rho0), mode, lam, t, n))


def lindblad_generators_from_kraus(operators: np.ndarray, dt: float) -> tuple[list[np.ndarray], float]:
    """Recover continuous-time jump operators from a small-weight step map.

    For a step map with weight w = lam*dt the non-identity operators
    scale as sqrt(dt); dividing by sqrt(dt) yields the jump operators
    A_k of the continuous equation.  Returns the list [A_1, A_2, A_3]
    and the residual max|M_0 - (1 - dt/2 * sum A_k^dagger A_k)|, which
    is O(dt^2) for these maps.

    ``operators`` is a (4, 4, 4) stack of Kraus operators, as
    ``kraus_set_for_mode`` returns; its completeness sum M^dagger M = 1 is
    checked here to 1e-12.  Only the four-operator structure above
    (identity leader plus unitary-proportional companions) is supported.
    The three Gram matrices A_k^dagger A_k are formed as one stacked
    product and tested together, and their sum is taken in the order
    A_1, A_2, A_3.  Completeness bounds each Gram matrix by about 1/dt, so
    a normal dt keeps them finite; a subnormal dt, which would overflow
    them, is rejected.

    Raises:
        ValueError: for a dt that is not a finite positive real or is
            below the least normal float, a stack of another shape, an
            incomplete stack, or one of another structure.
    """
    check_real(dt, "step duration dt", positive=True)
    if not dt >= _MIN_DT:  # a subnormal dt would overflow the Gram matrices
        raise ValueError(f"step duration dt must be finite and normal (at least {_MIN_DT!r}), got {dt!r}")
    operators = np.asarray(operators, dtype=complex)
    if operators.shape != (4, 4, 4):
        raise ValueError(f"unsupported kraus set: expected a (4, 4, 4) stack, got shape {operators.shape}")
    defect = completeness_defect(operators)
    if not defect <= _COMPLETENESS_TOL:  # also when an entry is nan
        raise ValueError(f"kraus completeness violated: max|sum M^t M - 1| = {defect:.3e}")
    leader = operators[0]
    scale = leader[0, 0]
    if abs(scale.imag) > 1e-12 or scale.real <= 0.0 or np.abs(leader - scale * ID4).max() > 1e-12:
        raise ValueError("unsupported kraus set: leading operator is not a positive multiple of the identity")
    generators = operators[1:] / np.sqrt(dt)
    grams = generators.conj().swapaxes(-2, -1) @ generators
    g = grams[:, 0, 0]
    defect = np.abs(grams - g[:, None, None] * ID4).max(axis=(1, 2))
    if not (defect <= 1e-12 * np.maximum(1.0, np.abs(g))).all():  # also when an entry is nan
        raise ValueError("unsupported kraus set: jump operator is not unitary-proportional")
    correction = grams.sum(axis=0)
    residual = float(np.abs(leader - (ID4 - 0.5 * dt * correction)).max())
    return list(generators), residual
