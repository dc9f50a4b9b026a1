"""Master-equation dynamics for two projector-valued decoherence modes.

The equation of motion is

    d
    -- rho = -i [H, rho] - lam * (rho - sum_k P_k rho P_k)
    dt

with H diagonal in the product basis and {P_k} a complete family of
orthogonal rank-1 projectors.  Two families are supported:

* mode A: projectors onto the product basis vectors themselves, which
  purely dephases off-diagonal elements;
* mode B: projectors onto the states (e1 +/- e3)/sqrt(2) and
  (e2 +/- e4)/sqrt(2), i.e. the product basis rotated by a Hadamard on
  the spin factor.  This additionally mixes populations pairwise.

Both modes have closed-form solutions, reached through ``evolve``, which
dispatches on ``spec.mode``; ``integrate_master`` provides an independent
fixed-step numerical route for cross-checking them.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import superop
from .states import validate_density_matrix

_MODES = ("A", "B")


@dataclass(frozen=True)
class SystemHamiltonian:
    """Diagonal Hamiltonian, specified by its four energies."""

    energies: tuple[float, float, float, float]

    def __post_init__(self):
        energies = tuple(float(e) for e in self.energies)
        if len(energies) != 4:
            raise ValueError(f"expected 4 energies, got {len(energies)}")
        if not all(np.isfinite(energies)):
            raise ValueError("energies must be finite")
        object.__setattr__(self, "energies", energies)

    @classmethod
    def degenerate(cls) -> "SystemHamiltonian":
        return cls((0.0, 0.0, 0.0, 0.0))

    def diagonal(self) -> np.ndarray:
        return np.diag(np.array(self.energies, dtype=complex))


@dataclass(frozen=True)
class DecoherenceSpec:
    """Mode label, coupling strength and Hamiltonian for one evolution."""

    mode: str
    lam: float
    hamiltonian: SystemHamiltonian = field(default_factory=SystemHamiltonian.degenerate)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be 'A' or 'B', got {self.mode!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"coupling strength must be finite and nonnegative, got {self.lam!r}")


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Complete family of orthogonal projectors defining the damping term."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projectors = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        total = np.zeros((4, 4), dtype=complex)
        for i, p in enumerate(projectors):
            if p.shape != (4, 4):
                raise ValueError(f"projector {i} has shape {p.shape}, expected (4, 4)")
            if np.abs(p - p.conj().T).max() > 1e-12:
                raise ValueError(f"projector {i} is not Hermitian")
            if np.abs(p @ p - p).max() > 1e-12:
                raise ValueError(f"projector {i} is not idempotent")
            total += p
        if np.abs(total - np.eye(4)).max() > 1e-12:
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projectors)


# Rows: the unit vectors whose rank-1 projectors define each mode.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_PROJECTOR_VECTORS = {
    "A": np.eye(4),
    "B": _INV_SQRT2 * np.array([[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1]]),
}


def projectors_for_mode(mode: str) -> ProjectorSet:
    """Projectors onto the product basis (mode A), or onto (e1 +/- e3)/sqrt(2)
    and (e2 +/- e4)/sqrt(2) (mode B)."""
    if mode not in _PROJECTOR_VECTORS:
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    return ProjectorSet(tuple(np.outer(v, v) for v in _PROJECTOR_VECTORS[mode]))


def _times(t) -> np.ndarray:
    """Evaluation time(s) as a float array: a scalar or a 1-d array of finite t >= 0."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"time must be a scalar or a 1-d array, got shape {times.shape}")
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        raise ValueError(f"time must be finite and nonnegative, got {float(times[bad][0])!r}")
    return times


def _evolve_mode_a(rho0: np.ndarray, spec: DecoherenceSpec, t: np.ndarray) -> np.ndarray:
    """Closed-form mode-A state(s) at the time(s) t.

    Off-diagonal elements pick up the free phase and an exp(-lam*t)
    envelope; populations are constants of motion.
    """
    energies = np.array(spec.hamiltonian.energies)
    factors = np.exp(
        (-1j * np.subtract.outer(energies, energies) - spec.lam) * t[..., None, None]
    )
    factors[..., range(4), range(4)] = 1.0
    return rho0 * factors


def _damped_cosh_sinh(lam: float, gap: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-safe exp(-lam*t/2)*cosh(mu*t/2) and exp(-lam*t/2)*sinh(mu*t/2)/mu
    with mu = sqrt(lam^2 - gap^2).

    For gap != 0, mu is formed as sqrt(lam - gap) * sqrt(lam + gap) in
    complex arithmetic, so lam^2 never overflows, and mu - lam as
    -gap^2 / (mu + lam), which does not cancel when lam >> |gap| (mu + lam
    is nonzero whenever gap is).  At gap = 0, mu = lam exactly.
    Re(mu) <= lam always holds, so both exponents below are nonpositive
    and never overflow.  The sinh term uses a series, elementwise, where
    |mu*t| is small, to avoid cancellation.  A complex division by a
    subnormal divisor overflows, so lam and |gap| both below 2^-500 are
    scaled up by 2^600 and t down by as much, which leaves lam*t and gap*t
    unchanged; the sinh term is scaled back.
    """
    if 0.0 < max(lam, abs(gap)) < 2.0 ** -500:
        ch, sh = _damped_cosh_sinh(lam * 2.0 ** 600, gap * 2.0 ** 600, t / 2.0 ** 600)
        return ch, sh * 2.0 ** 600
    if gap == 0.0:
        mu, mu_minus_lam = complex(lam), 0.0
    else:
        mu = np.sqrt(complex(lam - gap)) * np.sqrt(complex(lam + gap))
        mu_minus_lam = -gap * (gap / (mu + lam))
    ea = np.exp(0.5 * mu_minus_lam * t)
    eb = np.exp(-0.5 * (mu + lam) * t)
    ch = 0.5 * (ea + eb)
    x = 0.5 * mu * t
    small = np.abs(x) < 1e-6  # everywhere when mu == 0
    if not small.any():
        return ch, 0.5 * (ea - eb) / mu
    x = np.where(small, x, 0.0)  # the series is kept only where |x| is small; elsewhere it may overflow
    series = 0.5 * t * np.exp(-0.5 * lam * t) * (1.0 + x * x / 6.0 + x ** 4 / 120.0)
    if small.all():  # mu may be 0 or subnormal: no division
        return ch, series
    return ch, np.where(small, series, 0.5 * (ea - eb) / mu)


def _evolve_mode_b(rho0: np.ndarray, spec: DecoherenceSpec, t: np.ndarray) -> np.ndarray:
    """Closed-form mode-B state(s) at the time(s) t.

    The equations of motion split into three families:

    * elements connecting {e1, e3} to {e2, e4} decay exactly as in
      mode A;
    * the population pairs (rho11, rho33) and (rho22, rho44) relax
      toward their pairwise means with rate lam;
    * the coherence pairs (rho13, rho31) and (rho24, rho42) couple
      through a 2x2 linear system whose eigenfrequencies involve
      mu = sqrt(lam^2 - 4*dE^2); for 2*|dE| > lam the square root is
      taken complex, which analytically continues the same expressions
      into the damped-oscillation regime.
    """
    lam = spec.lam
    energies = spec.hamiltonian.energies
    out = np.zeros(t.shape + (4, 4), dtype=complex)

    # Cross-block elements: same form as mode A.
    decay = np.exp(-lam * t)
    for k, j in ((0, 1), (0, 3), (2, 1), (2, 3)):
        phase = np.exp(-1j * (energies[k] - energies[j]) * t)
        out[..., k, j] = phase * decay * rho0[k, j]
        out[..., j, k] = np.conj(phase * decay) * rho0[j, k]

    # Population pairs: exponential approach to the pairwise mean.
    ep = 0.5 * (1.0 + decay)
    em = 0.5 * (1.0 - decay)
    for k, j in ((0, 2), (1, 3)):
        out[..., k, k] = ep * rho0[k, k] + em * rho0[j, j]
        out[..., j, j] = em * rho0[k, k] + ep * rho0[j, j]

    # Coupled coherence pairs.
    for k, j in ((0, 2), (1, 3)):
        de = energies[k] - energies[j]
        ch, sh = _damped_cosh_sinh(lam, 2.0 * de, t)
        out[..., k, j] = (ch - 2.0j * de * sh) * rho0[k, j] + lam * sh * rho0[j, k]
        out[..., j, k] = (ch + 2.0j * de * sh) * rho0[j, k] + lam * sh * rho0[k, j]

    return out


def evolve(rho0: np.ndarray, spec: DecoherenceSpec, t) -> np.ndarray:
    """Closed-form state(s) of the mode ``spec.mode``.

    ``t`` is a scalar, giving one (4, 4) state, or a 1-d array of
    times, giving the (N, 4, 4) stack of states at those times.  The
    input and the output are validated here, once each.
    """
    rho0 = validate_density_matrix(rho0)
    closed_form = _evolve_mode_a if spec.mode == "A" else _evolve_mode_b
    return validate_density_matrix(closed_form(rho0, spec, _times(t)))


def integrate_master(
    rho0: np.ndarray,
    projectors: ProjectorSet,
    spec: DecoherenceSpec,
    t: float,
    dt: float = 1e-3,
) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation up to time t.

    Takes steps of size ``dt`` with a single shortened final step to
    land exactly on ``t``; each step is the RK4 step map of the 16x16
    Liouvillian, so n full steps are its n-th matrix power.  A step size
    whose step map has spectral radius above 1 (outside the RK4
    stability region) is rejected up front.  Hermiticity and trace drift
    are monitored (budget 1e-9 per unit time) and the result is
    re-Hermitized and trace-renormalized before validation.
    """
    rho = np.array(validate_density_matrix(rho0))
    if not (np.isfinite(t) and t >= 0.0):
        raise ValueError(f"time must be finite and nonnegative, got {t!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"step size dt must be finite and positive, got {dt!r}")
    if t == 0.0:
        return rho
    generator = superop.liouvillian(spec.hamiltonian.diagonal(), projectors.projectors, spec.lam)
    step_map = superop.rk4_step(generator, dt)
    radius = float(np.abs(np.linalg.eigvals(step_map)).max())
    if radius > 1.0 + 1e-12:
        raise ValueError(
            f"RK4 step dt={dt!r} is unstable for lam={spec.lam!r}: the step map has "
            f"spectral radius {radius:.6g} > 1; use a smaller dt"
        )

    n_full, remainder = divmod(t, dt)
    propagator = np.linalg.matrix_power(step_map, int(n_full))
    if remainder > 1e-12 * dt:
        propagator = superop.rk4_step(generator, remainder) @ propagator
    rho = superop.apply(propagator, rho)

    herm_drift = float(np.abs(rho - rho.conj().T).max())
    trace_drift = abs(float(np.trace(rho).real) - 1.0)
    budget = 1e-9 * max(t, 1.0)
    if herm_drift > budget or trace_drift > budget:
        raise np.linalg.LinAlgError(
            f"integration drift exceeded budget {budget:.1e}: "
            f"hermiticity {herm_drift:.3e}, trace {trace_drift:.3e}"
        )
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / np.trace(rho).real
    return validate_density_matrix(rho)
