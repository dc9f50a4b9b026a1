"""Conditioned spin rotations with Gaussian-fluctuating field angles.

A magnetic field inside one interferometer arm rotates the spin only on
that path component, i.e. it applies the block unitary

    V = U_I (x) |I><I|  +  U_II (x) |II><II|

with per-path spin rotations U_p.  Mode A uses z-rotations with angles
(alpha, beta); mode B additionally applies x-rotations (gamma, delta)
before the z-rotations on each path.  When the angles fluctuate shot to
shot as independent zero-mean Gaussians of width sigma, the ensemble
average over shots reproduces the continuous decoherence channels of
:mod:`spinpath.lindblad` with a coupling fixed by sigma
(:func:`lambda_from_sigma`).

``ensemble_average_analytic`` evaluates the Gaussian average in closed
form for arbitrary input states; ``ensemble_average_monte_carlo`` does
the same by sampling.  Monte Carlo results depend only on (seed,
samples): sampling is organized in fixed-size blocks with per-block
child seeds, so the outcome is bitwise independent of how the work
would be scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from . import superop
from .pauli import ID2, SIGMA_X, SIGMA_Z, spin_path
from .states import matrix_to_json, validate_density_matrix

VARIANTS = ("both_paths_independent", "single_field_one_path", "single_field_both_paths")

_BLOCK_SIZE = 8192
# Shots per elementwise pass within a block: its (4, 4, 1024) complex
# temporaries take 256 KiB each.  Whole 8192-shot passes cost about 1.4x
# more per shot and 8 MB more peak memory on a 2-core Xeon (L2 4 MiB).
_PASS_SIZE = 1024
_STDERR_FLOOR = 1e-15

_AXES = {"x": SIGMA_X, "z": SIGMA_Z}


@dataclass(frozen=True)
class FieldSetup:
    """Decoherence mode, fluctuation width and field-placement variant."""

    mode: str
    sigma: float
    variant: str = "both_paths_independent"

    def __post_init__(self):
        if self.mode not in ("A", "B"):
            raise ValueError(f"mode must be 'A' or 'B', got {self.mode!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be nonnegative, got {self.sigma!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.mode == "B" and self.variant != "both_paths_independent":
            raise ValueError(
                f"variant {self.variant!r} is not supported for mode B; "
                "only 'both_paths_independent' is"
            )


@dataclass(frozen=True, eq=False)
class EnsembleEstimate:
    """Monte Carlo mean state with per-element standard errors."""

    mean: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    samples: int
    seed: int
    setup: FieldSetup

    def to_json(self) -> dict:
        return {
            "mean": matrix_to_json(self.mean),
            "stderr_re": np.asarray(self.stderr_re).tolist(),
            "stderr_im": np.asarray(self.stderr_im).tolist(),
            "samples": self.samples,
            "seed": self.seed,
            "sigma": self.setup.sigma,
            "mode": self.setup.mode,
            "variant": self.setup.variant,
        }


# Index of the opposite spin on the same path: F e_j = e_{_SPIN_FLIP[j]}.
_SPIN_FLIP = np.array([2, 3, 0, 1])


def _shot_factors(alpha, beta, gamma=None, delta=None) -> tuple:
    """Factors of the block unitaries V = diag(a) + diag(b) F of N shots.

    Takes length-N angle arrays and returns a and b of shape (4, N); F is
    the spin flip on each path.  The z-rotations give the phases
    z = exp(i/2 (alpha, beta, -alpha, -beta)).  Without gamma/delta
    (mode A) a = z and b is None (zero); with them (mode B) each path
    applies its x-rotation first, then its z-rotation, so
    a = z cos(x/2) and b = i z sin(x/2) with x = (gamma, delta, gamma, delta).
    """
    half = np.exp(0.5j * np.stack((alpha, beta)))
    z = np.concatenate((half, half.conj()))
    if gamma is None:
        return z, None
    x = 0.5 * np.stack((gamma, delta))
    cos, sin = np.cos(x), np.sin(x)
    return z * np.concatenate((cos, cos)), 1j * (z * np.concatenate((sin, sin)))


def _shot_states(rho0: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """(4, 4, N) shot states V rho0 V^dagger, shots along the last axis.

    Elementwise from the factors of V: mode A is rho0_jk a_j a_k*; mode B
    forms L = V rho0 = a (.) rho0 + b (.) rho0[F] row-wise, then
    L V^dagger = L (.) a* + L[:, F] (.) b* column-wise.
    """
    rho = rho0[:, :, None]
    if b is None:
        return a[:, None, :] * rho * a.conj()[None, :, :]
    left = a[:, None, :] * rho + b[:, None, :] * rho[_SPIN_FLIP]
    return left * a.conj()[None, :, :] + left[:, _SPIN_FLIP] * b.conj()[None, :, :]


# --- closed-form Gaussian averaging -----------------------------------------
#
# Every conditioned rotation in a single Gaussian angle theta decomposes
# into harmonics V(theta) = sum_m exp(i*m*theta/2) G_m with m in
# {-1, 0, +1}.  Averaging V rho V^dagger over theta ~ N(0, sigma) gives
#
#     Phi(rho) = sum_{m,m'} exp(-(m - m')^2 sigma^2 / 8) G_m rho G_m'^dagger
#
# and independent angles average as the composition of their channels.
# A rotation about spin axis s on the paths selected by projector P has
# G_{+1} = (1 + s)/2 (x) P, G_{-1} = (1 - s)/2 (x) P and G_0 = 1 (x) (1 - P).

_PATHS = {"I": np.diag([1.0, 0.0]), "II": np.diag([0.0, 1.0]), "both": ID2}
_ORDERS = np.array([1, -1, 0])


@cache
def _harmonics(axis: str, path: str):
    """Stacked harmonics G_m, m in _ORDERS, of a spin rotation on ``path``.

    Cached, so the returned array is read-only.
    """
    here, spin = _PATHS[path], _AXES[axis]
    operators = np.array([
        spin_path((ID2 + spin) / 2.0, here),
        spin_path((ID2 - spin) / 2.0, here),
        spin_path(ID2, ID2 - here),
    ])
    operators.flags.writeable = False
    return operators


def _angle_map(harmonics: np.ndarray, sigma: float) -> np.ndarray:
    """16x16 superoperator of the Gaussian average over one angle."""
    gap = np.subtract.outer(_ORDERS, _ORDERS)
    return superop.chi_map(harmonics, np.exp(-(gap ** 2) * sigma * sigma / 8.0))


def _channel_sequence(setup: FieldSetup):
    """Per-angle channels in application order (innermost rotation first)."""
    if setup.mode == "A":
        if setup.variant == "both_paths_independent":
            return (_harmonics("z", "II"), _harmonics("z", "I"))
        if setup.variant == "single_field_one_path":
            return (_harmonics("z", "II"),)
        return (_harmonics("z", "both"),)
    return (_harmonics("x", "II"), _harmonics("z", "II"), _harmonics("x", "I"), _harmonics("z", "I"))


def ensemble_average_analytic(rho0: np.ndarray, setup: FieldSetup) -> np.ndarray:
    """Exact Gaussian ensemble average of the shot states."""
    rho = validate_density_matrix(rho0)
    maps = [_angle_map(harmonics, setup.sigma) for harmonics in _channel_sequence(setup)]
    average = reduce(np.matmul, reversed(maps))
    return validate_density_matrix(superop.apply(average, rho))


# --- Monte Carlo -------------------------------------------------------------


def _sampled_angles(rng: np.random.Generator, setup: FieldSetup, count: int) -> tuple:
    """Per-shot angle arrays of one block, in the fixed draw order."""
    sigma = setup.sigma
    if setup.mode == "B":
        return tuple(rng.normal(0.0, sigma, count) for _ in range(4))
    if setup.variant == "single_field_one_path":
        return np.zeros(count), rng.normal(0.0, sigma, count)
    alpha = rng.normal(0.0, sigma, count)
    if setup.variant == "single_field_both_paths":
        return alpha, alpha
    return alpha, rng.normal(0.0, sigma, count)


def _deviation_sums(rho0: np.ndarray, a: np.ndarray, b) -> np.ndarray:
    """Sums over the shots of Re, Im, Re^2 and Im^2 of V rho0 V^dagger - rho0.

    Takes the factors of V from ``_shot_factors`` and returns shape (4, 4, 4).
    """
    sums = np.zeros((4, 4, 4))
    for start in range(0, a.shape[1], _PASS_SIZE):
        part = np.s_[:, start:start + _PASS_SIZE]
        shots = _shot_states(rho0, a[part], None if b is None else b[part])
        dev_re = shots.real - rho0.real[:, :, None]
        dev_im = shots.imag - rho0.imag[:, :, None]
        sums += (
            dev_re.sum(axis=-1),
            dev_im.sum(axis=-1),
            np.einsum("jkn,jkn->jk", dev_re, dev_re),
            np.einsum("jkn,jkn->jk", dev_im, dev_im),
        )
    return sums


def ensemble_average_monte_carlo(
    rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int
) -> EnsembleEstimate:
    """Sample mean of the shot states over Gaussian angle draws.

    Sampling runs in fixed blocks of 8192 shots; block i uses the child
    seed SeedSequence((seed, i)) and blocks are merged in index order,
    so the estimate is a pure function of (rho0, setup, samples, seed).
    Each block's shot states are built elementwise from the factors of
    V = diag(a) + diag(b) F (``_shot_states``), without 4x4 products.

    Sums are accumulated as deviations from the input state (shifted-data
    form), so a zero-width angle distribution reproduces the input
    bit-exactly instead of picking up summation roundoff.
    """
    rho0 = validate_density_matrix(rho0)
    if not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    sums = np.zeros((4, 4, 4))
    remaining = int(samples)
    block_index = 0
    while remaining > 0:
        count = min(_BLOCK_SIZE, remaining)
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), block_index)))
        sums += _deviation_sums(rho0, *_shot_factors(*_sampled_angles(rng, setup, count)))
        remaining -= count
        block_index += 1
    sum_re, sum_im, sumsq_re, sumsq_im = sums
    n = float(samples)
    mean = (rho0.real + sum_re / n) + 1j * (rho0.imag + sum_im / n)
    var_re = np.clip((sumsq_re - sum_re ** 2 / n) / (n - 1.0), 0.0, None)
    var_im = np.clip((sumsq_im - sum_im ** 2 / n) / (n - 1.0), 0.0, None)
    return EnsembleEstimate(
        mean=mean,
        stderr_re=np.sqrt(var_re / n),
        stderr_im=np.sqrt(var_im / n),
        samples=int(samples),
        seed=int(seed),
        setup=setup,
    )


def consistency_ratio(estimate: EnsembleEstimate, reference: np.ndarray) -> float:
    """Largest |mean - reference| / stderr over elements (re and im apart).

    Standard errors are floored at 1e-15 so elements whose shot-to-shot
    variance sits at rounding level do not produce spurious blowups.
    """
    reference = np.asarray(reference, dtype=complex)
    delta_re = np.abs(estimate.mean.real - reference.real)
    delta_im = np.abs(estimate.mean.imag - reference.imag)
    ratio_re = delta_re / np.maximum(estimate.stderr_re, _STDERR_FLOOR)
    ratio_im = delta_im / np.maximum(estimate.stderr_im, _STDERR_FLOOR)
    return float(max(ratio_re.max(), ratio_im.max()))


_LAMBDA_T_COEFF = {
    ("A", "both_paths_independent"): 0.25,
    ("A", "single_field_one_path"): 0.125,
    ("A", "single_field_both_paths"): 0.5,
    ("B", "both_paths_independent"): 0.5,
}


def lambda_from_sigma(setup: FieldSetup, dwell_time: float) -> float:
    """Coupling strength whose continuous evolution over ``dwell_time``
    matches the Gaussian ensemble average of the setup.

    The product lam * dwell_time equals c * sigma^2 with c = 1/4 for
    mode A with independent fields in both paths, 1/8 with a single
    field in one path, 1/2 with one shared field on both paths, and
    1/2 for mode B.
    """
    if not (np.isfinite(dwell_time) and dwell_time > 0.0):
        raise ValueError(f"dwell_time must be positive and finite, got {dwell_time!r}")
    return _LAMBDA_T_COEFF[setup.mode, setup.variant] * setup.sigma ** 2 / dwell_time
