"""Discrete Kraus maps matching the two decoherence modes.

Each mode has a four-operator set parametrized by a step weight
w = lam * t (valid for 0 <= w <= 4/3):

    mode A: sqrt(1 - 3w/4) * 1,  sqrt(w/4) * {1 (x) sz, sz (x) 1, sz (x) sz}
    mode B: sqrt(1 - 3w/4) * 1,  sqrt(w/4) * {1 (x) sz, sx (x) 1, sx (x) sz}

Applying the n-fold composition with per-step weight lam*t/n converges
to the continuous-time solution at first order in 1/n, which
``trotter_evolve`` exploits and the test suite cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import superop
from .pauli import ID2, ID4, SIGMA_X, SIGMA_Z, spin_path
from .states import validate_density_matrix

MAX_WEIGHT = 4.0 / 3.0
_COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operators of a completely positive trace-preserving map.

    The operators are stored as read-only copies, so the completeness
    checked here holds for the life of the set.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        operators = tuple(np.array(op, dtype=complex) for op in self.operators)
        if not operators:
            raise ValueError("kraus set must contain at least one operator")
        for i, op in enumerate(operators):
            if op.shape != (4, 4):
                raise ValueError(f"operator {i} has shape {op.shape}, expected (4, 4)")
            op.flags.writeable = False
        object.__setattr__(self, "operators", operators)
        defect = completeness_defect(self)
        if defect > _COMPLETENESS_TOL:
            raise ValueError(f"kraus completeness violated: max|sum M^t M - 1| = {defect:.3e}")


def completeness_defect(kraus_set: KrausSet) -> float:
    """Max elementwise deviation of sum M^dagger M from the identity."""
    total = np.einsum("kba,kbc->ac", np.conj(kraus_set.operators), kraus_set.operators)
    return float(np.abs(total - ID4).max())


def _check_weight(weight: float) -> float:
    weight = float(weight)
    if not np.isfinite(weight) or weight < 0.0 or weight > MAX_WEIGHT:
        raise ValueError(f"step weight must lie in [0, 4/3], got {weight!r}")
    return weight


# (spin, path) factors of each mode's three jump operators, the companions of the identity.
_JUMP_FACTORS = {
    "A": ((ID2, SIGMA_Z), (SIGMA_Z, ID2), (SIGMA_Z, SIGMA_Z)),
    "B": ((ID2, SIGMA_Z), (SIGMA_X, ID2), (SIGMA_X, SIGMA_Z)),
}


def kraus_set_for_mode(mode: str, weight: float) -> KrausSet:
    """Step map of ``mode`` with weight w: sqrt(1 - 3w/4) * 1 and sqrt(w/4) * each jump operator."""
    if mode not in _JUMP_FACTORS:
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    w = _check_weight(weight)
    c = np.sqrt(w / 4.0)
    jumps = tuple(c * spin_path(spin, path) for spin, path in _JUMP_FACTORS[mode])
    return KrausSet(operators=(np.sqrt(1.0 - 3.0 * w / 4.0) * ID4,) + jumps)


def trotter_evolve(rho0: np.ndarray, mode: str, lam: float, t: float, n: int) -> np.ndarray:
    """n-fold composition of the per-step map with weight lam*t/n.

    The composition is the n-th matrix power of the step's 16x16 map.
    """
    rho = validate_density_matrix(rho0)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"step count must be a positive integer, got {n!r}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"coupling strength must be nonnegative, got {lam!r}")
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    step_map = superop.kraus_map(kraus_set_for_mode(mode, lam * t / n).operators)
    return validate_density_matrix(superop.apply(np.linalg.matrix_power(step_map, int(n)), rho))


def lindblad_generators_from_kraus(kraus_set: KrausSet, dt: float) -> tuple[list[np.ndarray], float]:
    """Recover continuous-time jump operators from a small-weight step map.

    For a step map with weight w = lam*dt the non-identity operators
    scale as sqrt(dt); dividing by sqrt(dt) yields the jump operators
    A_k of the continuous equation.  Returns the list [A_1, A_2, A_3]
    and the residual max|M_0 - (1 - dt/2 * sum A_k^dagger A_k)|, which
    is O(dt^2) for these maps.

    Only the four-operator structure above (identity leader plus
    unitary-proportional companions) is supported.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step duration dt must be finite and positive, got {dt!r}")
    operators = kraus_set.operators
    if len(operators) != 4:
        raise ValueError(f"unsupported kraus set: expected 4 operators, got {len(operators)}")
    leader = operators[0]
    scale = leader[0, 0]
    if abs(scale.imag) > 1e-12 or scale.real <= 0.0 or np.abs(leader - scale * ID4).max() > 1e-12:
        raise ValueError("unsupported kraus set: leading operator is not a positive multiple of the identity")
    generators = []
    correction = np.zeros((4, 4), dtype=complex)
    for op in operators[1:]:
        gen = op / np.sqrt(dt)
        gram = gen.conj().T @ gen
        g = gram[0, 0]
        if np.abs(gram - g * ID4).max() > 1e-12 * max(1.0, abs(g)):
            raise ValueError("unsupported kraus set: jump operator is not unitary-proportional")
        generators.append(gen)
        correction += gram
    residual = float(np.abs(leader - (ID4 - 0.5 * dt * correction)).max())
    return generators, residual

