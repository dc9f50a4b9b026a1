"""Master-equation dynamics for two projector-valued decoherence modes.

The equation of motion is

    d
    -- rho = -i [H, rho] - lam * (rho - sum_k P_k rho P_k)
    dt

with H diagonal in the product basis and {P_k} the four rank-1
projectors (1 +/- s)/2 (x) |p><p| of a mode's spin axis s
(``pauli.MODE_AXES``) on the paths p = I, II:

* mode A, s = sz: projectors onto the product basis vectors themselves,
  which purely dephases off-diagonal elements;
* mode B, s = sx: projectors onto the states (e1 +/- e3)/sqrt(2) and
  (e2 +/- e4)/sqrt(2), i.e. the product basis rotated by a Hadamard on
  the spin factor.  This additionally mixes populations pairwise.

Both modes have one closed form, reached through ``evolve``: the state
at time t is D * rho0 + E * rho0[F][:, F] elementwise, with F the spin
flip on each path (e1 <-> e3, e2 <-> e4).  Mode A has E = 0; mode B's
coupled coherence pairs take real cosh/sinh forms when damped
(2|dE| < lam) and real cos/sin forms when critical or oscillating.
``integrate_master`` provides an independent fixed-step numerical route
for cross-checking them.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import superop
from .pauli import ID2, MODE_AXES, PATH_I, PATH_II, check_mode, spin_path_stack
from .states import check_real, validate_density_matrix


@dataclass(frozen=True)
class SystemHamiltonian:
    """Diagonal Hamiltonian, specified by its four energies."""

    energies: tuple[float, float, float, float]

    def __post_init__(self):
        energies = tuple(check_real(e, "energy", signed=True) for e in self.energies)
        if len(energies) != 4:
            raise ValueError(f"expected 4 energies, got {len(energies)}")
        if not all(map(math.isfinite, energies)):
            raise ValueError(f"energies must be finite, got {energies}")
        object.__setattr__(self, "energies", energies)

    @classmethod
    def degenerate(cls) -> "SystemHamiltonian":
        """The one shared Hamiltonian of four zero energies; it is frozen, so every spec may hold it."""
        return _DEGENERATE

    def diagonal(self) -> np.ndarray:
        return np.diag(np.array(self.energies, dtype=complex))


_DEGENERATE = SystemHamiltonian((0.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class DecoherenceSpec:
    """Mode label, coupling strength and Hamiltonian for one evolution; ``lam`` is stored as a float."""

    mode: str
    lam: float
    hamiltonian: SystemHamiltonian = _DEGENERATE

    def __post_init__(self):
        check_mode(self.mode)
        object.__setattr__(self, "lam", check_real(self.lam, "coupling strength"))


def _projectors(axis: np.ndarray) -> np.ndarray:
    """Read-only (4, 4, 4) stack of the rank-1 projectors (1 +/- axis)/2 (x) |p><p|."""
    halves = ((ID2 + axis) / 2.0, (ID2 - axis) / 2.0)
    return spin_path_stack((half, path) for half in halves for path in (PATH_I, PATH_II))


_PROJECTORS = {mode: _projectors(axis) for mode, axis in MODE_AXES.items()}


def projectors_for_mode(mode: str) -> np.ndarray:
    """The mode's shared read-only (4, 4, 4) stack of projectors (1 +/- s)/2 (x) |p><p|."""
    check_mode(mode)
    return _PROJECTORS[mode]


# Each mode's read-only dephasing map D = sum_k P_k (x) P_k^*, which names the
# mode of a caller's projectors whatever their order.
_DEPHASING = {mode: superop.kraus_map(projectors) for mode, projectors in _PROJECTORS.items()}


def _times(t) -> np.ndarray:
    """Evaluation time(s) as a float array: a scalar or 1-d array of times as ``check_real`` takes them."""
    try:
        times = np.asarray(t)
    except ValueError:  # a ragged sequence
        check_real(t, "time")  # raises: a sequence is not a real number
    if times.ndim > 1:
        raise ValueError(f"time must be a scalar or a 1-d array, got shape {times.shape}")
    if times.dtype.kind not in "iuf":
        check_real(t, "time")  # raises: a bool, str, complex or object time is not a real number
    bad = ~(np.isfinite(times) & (times >= 0.0))
    if bad.any():
        check_real(float(times[bad][0]), "time")  # raises, naming the first bad time
    return times.astype(float, copy=False)


# Spin flip on each path: e1 <-> e3, e2 <-> e4, as one gather rho0[_FLIP_GATHER] = rho0[F][:, F].
_FLIP_GATHER = np.ix_([2, 3, 0, 1], [2, 3, 0, 1])
# Index of the diagonal of a (..., 4, 4) array.
_DIAGONAL = (Ellipsis, np.arange(4), np.arange(4))


def _damped_cosh_sinh(lam: float, gap: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-lam*t/2)*cosh(mu*t/2) and exp(-lam*t/2)*sinh(mu*t/2)/mu with
    mu = sqrt(lam^2 - 4 gap^2), in real arithmetic.

    With h = lam/2 and k = |gap|, the overdamped regime k < h takes
    m = mu/2 = sqrt(h - k) sqrt(h + k) (h exactly at k = 0) and
    m - h = -k^2 / (m + h), which does not cancel when lam >> |gap|, and
    sinh through expm1.  The critical and underdamped regime k >= h has
    mu = 2iw with w = sqrt(k - h) sqrt(k + h): cos(w*t) and sin(w*t)/(2w),
    or t/2 at w = 0.  Where k + h overflows, w takes it as 4 (k/4 + h/4);
    so with lam*t and |gap|*t finite nothing overflows, and |sin x| <= |x|
    and -expm1(-x) <= x keep a division by a subnormal m or w finite.
    """
    h, k = 0.5 * float(lam), abs(float(gap))  # Python floats: k + h overflows without a warning
    if k < h:
        m = h if k == 0.0 else min(h, math.sqrt(h - k) * math.sqrt(h + k))  # m <= h despite rounding
        slow = np.exp(-k * (k / (m + h)) * t)
        ch = 0.5 * (slow + np.exp(-(m + h) * t))
        return ch, 0.5 * slow * (-0.5 * np.expm1(-2.0 * m * t) / m)
    w = math.sqrt(k - h) * (math.sqrt(k + h) if k + h < math.inf else 2.0 * math.sqrt(0.25 * k + 0.25 * h))
    envelope = np.exp(-h * t)
    sinc = t if w == 0.0 else np.sin(w * t) / w
    return envelope * np.cos(w * t), 0.5 * envelope * sinc


def _closed_form(rho0: np.ndarray, spec: DecoherenceSpec, t: np.ndarray) -> np.ndarray:
    """Closed-form state(s) at the time(s) t: D * rho0 + E * rho0[F][:, F]
    elementwise, with F the spin flip on each path.

    D holds mode A's factors, the free phase under an exp(-lam*t)
    envelope on each coherence and 1 on the populations, and E = 0.
    Mode B overwrites the entries of its two spin pairs (e_j, e_Fj):
    populations relax to the pair's mean, 1/2 (1 -/+ exp(-lam*t)) in D
    and E; the coherences rho_{j,Fj} take ch -/+ 2i dE sh in D and
    lam * sh in E, from ``_damped_cosh_sinh`` at gap dE.
    """
    lam = spec.lam
    energies = np.array(spec.hamiltonian.energies)
    gaps = np.subtract.outer(energies, energies)
    d = np.exp((-1j * gaps - lam) * t[..., None, None])
    if spec.mode == "A":
        d[_DIAGONAL] = 1.0
        return rho0 * d
    e = np.zeros(d.shape)
    decay = np.exp(-lam * t)[..., None]
    d[_DIAGONAL] = 0.5 * (1.0 + decay)
    e[_DIAGONAL] = 0.5 * (1.0 - decay)
    for j, f in ((0, 2), (1, 3)):
        ch, sh = _damped_cosh_sinh(lam, gaps[j, f], t)
        turn = 2j * (gaps[j, f] * sh)
        d[..., j, f] = ch - turn
        d[..., f, j] = ch + turn
        e[..., j, f] = e[..., f, j] = lam * sh
    return d * rho0 + e * rho0[_FLIP_GATHER]


def _check_phases(spec: DecoherenceSpec, times: np.ndarray) -> None:
    """Reject an energy difference that is not finite, and times at which an
    energy phase (E_k - E_j) * t or the coupling-time product lam * t is not.

    Mode B's coupled coherence pairs turn at 2 (|dE| t), not inf where that
    phase is finite.  Their gaps |E_j - E_Fj| are finite where the spread
    max(E) - min(E) is, since rounding is monotone.  Python floats overflow
    to inf without a warning.
    """
    energies = spec.hamiltonian.energies
    t_max = float(times.max()) if times.size else 0.0
    spread = max(energies) - min(energies)
    if not math.isfinite(spread):
        raise ValueError(f"energy difference max(E) - min(E) is not finite for energies {energies}")
    phases = [spread * t_max]
    if spec.mode == "B":
        phases += [2.0 * (abs(energies[j] - energies[f]) * t_max) for j, f in ((0, 2), (1, 3))]
    if not all(map(math.isfinite, phases)):
        raise ValueError(
            f"energy phase (E_k - E_j) * t is not finite for energies {energies} at time {t_max!r}"
        )
    if not math.isfinite(spec.lam * t_max):
        raise ValueError(f"lam * t is not finite for lam {spec.lam!r} at time {t_max!r}")


def _evolve(rho0: np.ndarray, spec: DecoherenceSpec, t) -> np.ndarray:
    """``evolve`` without the check of its output, for a caller that
    validates the state(s) where it reads them (the CLI's ``evolve`` in
    ``measure_report``, ``sweep`` in ``measures._mixedness_concurrence``)
    or in one stack with other produced states (``kraus-compare``).

    The input state, the time(s) and the energy phases are checked here,
    with ``evolve``'s messages, before the closed form runs.
    """
    rho0 = validate_density_matrix(rho0)
    times = _times(t)
    _check_phases(spec, times)
    return _closed_form(rho0, spec, times)


def evolve(rho0: np.ndarray, spec: DecoherenceSpec, t) -> np.ndarray:
    """Closed-form state(s) of the mode ``spec.mode``.

    ``t`` is a scalar, giving one (4, 4) state, or a 1-d array of
    times, giving the (N, 4, 4) stack of states at those times.  The
    input and the output are validated here, once each; a time at which
    an energy phase or lam * t overflows is rejected before the closed
    form runs.  The CLI calls ``_evolve`` and leaves the output's check
    to the kernel that reads it, as ``_evolve`` lists.
    """
    return validate_density_matrix(_evolve(rho0, spec, t))


def integrate_master(
    rho0: np.ndarray,
    projectors: np.ndarray,
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

    The caller's projectors are any (k, 4, 4) stack, identified by their
    dephasing map D = sum_k P_k (x) P_k^*, computed once: it must match
    ``spec.mode``'s within 1e-12 elementwise, which holds for that mode's
    projectors in any order and for no coarser, incomplete, rescaled or
    rotated family.  The same D enters the Liouvillian, which reads
    nothing else of the projectors, so this one check stands in for
    testing that they are Hermitian, idempotent and sum to the identity.

    Raises:
        ValueError: when the projectors are not a (k, 4, 4) stack, naming
            its shape, or when their dephasing map is not ``spec.mode``'s,
            naming both modes.
    """
    projectors = np.asarray(projectors, dtype=complex)
    if projectors.ndim != 3 or projectors.shape[1:] != (4, 4):
        raise ValueError(f"projectors must be a (k, 4, 4) stack, got shape {projectors.shape}")
    dephasing = superop.kraus_map(projectors)
    found = next((mode for mode, d in _DEPHASING.items() if np.abs(dephasing - d).max() <= 1e-12), None)
    if found != spec.mode:
        named = f"mode {found}'s" if found else "neither mode A's nor mode B's"
        raise ValueError(f"projectors are {named} projectors, but spec.mode is {spec.mode!r}")
    rho = np.array(validate_density_matrix(rho0))
    check_real(t, "time")
    check_real(dt, "step size dt", positive=True)
    if t == 0.0:
        return rho
    generator = superop.liouvillian(spec.hamiltonian.diagonal(), dephasing, spec.lam)
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
    return validate_density_matrix(superop.settle(rho, 1e-9 * max(t, 1.0), "integration"))
