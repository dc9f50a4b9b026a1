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
the same by sampling.  It builds no shot states: a shot's deviation from
the input is linear in a few real numbers per shot (36 in mode B, of
which mode A, a mode-B shot with no x-rotation, needs 8), with
coefficients that each element takes from its own entries of the input
state, and one kernel serves both modes.  Monte Carlo results depend
only on (seed, samples): sampling is organized in fixed-size blocks
with per-block child seeds, so the outcome is bitwise independent of
how the work would be scheduled.
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
# Shots per pass within a block, either mode.  A mode-B pass keeps its
# (36, 2048) columns, the rows mapped from them and its cos/sin in about
# 1.2 MB, inside one core's 2 MiB L2 on the 2-core Xeon measured; there
# passes of 1024, 4096 and 8192 shots cost 16 %, 4 % and 13 % more per shot.
_PASS_SIZE = 2048
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
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if not np.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma {self.sigma!r} is too large: its square overflows")
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
    return superop.chi_map(harmonics, np.exp(-(gap ** 2) * (sigma * sigma / 8.0)))


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


# Mode A multiplies rho0_jk by exp(i theta_jk), theta_jk = phi_j - phi_k
# with the phases phi = (alpha, beta, -alpha, -beta) / 2.  Each theta_jk is
# _PHASE_SIGN[j, k] times the difference d[_PHASE_INDEX[j, k]] of
# d = ((alpha - beta) / 2, (alpha + beta) / 2, alpha, beta, 0); the last
# one, theta = 0, sits on the diagonal.
_PHASE_INDEX = np.array([[4, 0, 2, 1], [0, 4, 1, 3], [2, 1, 4, 0], [1, 3, 0, 4]])
_PHASE_SIGN = np.array([[1, 1, 1, 1], [-1, 1, 1, 1], [-1, -1, 1, -1], [-1, -1, 1, 1]])


def _phase_data(cos: np.ndarray, sin: np.ndarray, mixed: np.ndarray, single: np.ndarray) -> None:
    """Write x = cos(d) - 1 and y = sin(d) of the four phase differences d,
    from cos and sin, shape (2, N), of alpha/2 and beta/2 by the
    angle-addition rules.  ``mixed`` receives [[x, x], [y, y]] of
    d = (alpha - beta)/2, (alpha + beta)/2 and ``single`` those of
    d = alpha, beta; both have shape (2, 2, N)."""
    (cos_a, cos_b), (sin_a, sin_b) = cos, sin
    cc, ss = cos_a * cos_b, sin_a * sin_b
    np.add(cc, ss, out=mixed[0, 0])
    np.subtract(cc, ss, out=mixed[0, 1])
    mixed[0] -= 1.0
    np.multiply(sin, sin, out=single[0])
    single[0] *= -2.0
    sc, cs = sin_a * cos_b, cos_a * sin_b
    np.subtract(sc, cs, out=mixed[1, 0])
    np.add(sc, cs, out=mixed[1, 1])
    np.multiply(sin, cos, out=single[1])
    single[1] *= 2.0


# Mode B turns the spin on each path about x, by gamma on path I and delta
# on path II, and then about z as in mode A.  With c_j and s_j the cos and
# sin of half the x-angle on e_j's path (path j % 2) and F the opposite
# spin on the same path (F e_j = e_{_SPIN_FLIP[j]}), a shot maps
#
#     rho_jk -> exp(i theta_jk) [c_j c_k rho_jk - i c_j s_k rho_{j,Fk}
#                                + i s_j c_k rho_{Fj,k} + s_j s_k rho_{Fj,Fk}]
#
# with theta_jk as in mode A.  Its deviation from rho_jk is real-linear in
# 36 per-shot columns, each exactly 0 at zero angles.  Columns 0-19 serve
# the cross-path elements and 20-35 the others, so the coefficients form
# two blocks:
#   0-3    x = cos d - 1, then y = sin d, of d = (alpha -/+ beta)/2;
#   4-19   cos d (4 + 8 D + q) and sin d (8 + 8 D + q) of those two
#          differences D times the x-factor product q of
#          (cg cd - 1, cg sd, sg cd, sg sd), g for gamma/2, d for delta/2;
#   20-23  x, then y, of d = alpha and beta;
#   24-27  s^2 of paths I and II, then s c of paths I and II;
#   28-35  those four times cos (28-31) and sin (32-35) of alpha on
#          path I or beta on path II.
# Diagonal elements use two columns, same-path coherences six and
# cross-path coherences ten.
# A mode-A shot is a mode-B shot with gamma = delta = 0, where every column
# outside _PHASE_COLUMNS (0-3 and 20-23) is exactly 0; mode A fills only
# those eight, whose cross-path block ends at column 4.
_SPIN_FLIP = np.array([2, 3, 0, 1])
_SHOT_COLUMNS, _CROSS_COLUMNS = 36, 20
_PHASE_COLUMNS = np.r_[0:4, 20:24]
# Re (first 16) and Im rows of the cross-path elements, row-major.
_CROSS_ROWS = np.tile((np.add.outer(range(4), range(4)) % 2 == 1).ravel(), 2)


def _column_table() -> np.ndarray:
    """Read-only (16 * 36, 16) complex table T of the mode-B deviations.

    The deviation of element (j, k) in a shot with columns g is
    sum_c g_c (T vec rho0)[36 (4 j + k) + c], vec row-major.  The row of
    (j, k) reads rho0_jk, rho0_{j,Fk}, rho0_{Fj,k} and rho0_{Fj,Fk} only,
    never the conjugate element: an input is Hermitian only within
    tolerance.
    """
    table = np.zeros((4, 4, _SHOT_COLUMNS, 4, 4), dtype=complex)
    for j, k in np.ndindex(4, 4):
        d, phase = _PHASE_INDEX[j, k], 1j * _PHASE_SIGN[j, k]  # exp(i theta) = cos d + phase sin d
        here = table[j, k]
        if d != 4:  # (exp(i theta) - 1) rho_jk
            x = 20 * (d // 2) + d % 2
            here[x, j, k] += 1.0
            here[x + 2, j, k] += phase
        # The bracket minus rho_jk, term by term; sj and sk pick s (1) or c (0).
        for sj, sk in np.ndindex(2, 2):
            entry = (_SPIN_FLIP[j] if sj else j, _SPIN_FLIP[k] if sk else k)
            weight = (1.0, -1j, 1j, 1.0)[2 * sj + sk]
            if j % 2 == k % 2:  # one path: c^2 = 1 - s^2 and c s = s c
                if not (sj or sk):
                    sj = sk = 1
                    weight = -weight
                alone = 24 + 2 * (sj != sk) + j % 2
                cos_col, sin_col = alone + 4, alone + 8
            else:
                q = 2 * (sj, sk)[j % 2] + (sk, sj)[j % 2]
                alone, cos_col, sin_col = None, 4 + 8 * d + q, 8 + 8 * d + q
            if d == 4:
                here[alone][entry] += weight
            else:
                here[cos_col][entry] += weight
                here[sin_col][entry] += phase * weight
    table = table.reshape(16 * _SHOT_COLUMNS, 16)
    table.flags.writeable = False
    return table


_COLUMN_TABLE = _column_table()


def _shot_coefficients(rho0: np.ndarray) -> np.ndarray:
    """Real (32, 36) U: a mode-B shot with columns g maps rho0 to rho0 + D
    with Re D (rows 0-15) and Im D (rows 16-31), row-major, equal to U g."""
    u = (_COLUMN_TABLE @ rho0.ravel()).reshape(16, _SHOT_COLUMNS)
    return np.concatenate((u.real, u.imag))


def _phase_columns(trig: np.ndarray, out: np.ndarray) -> None:
    """Write the 8 columns of N mode-A shots, mode B's _PHASE_COLUMNS, into
    out, shape (8, N), from trig, shape (2, 2, N): cos and sin of the half
    angles (alpha, beta) / 2."""
    cos, sin = trig
    _phase_data(cos, sin, out[:4].reshape(2, 2, -1), out[4:].reshape(2, 2, -1))


def _shot_columns(trig: np.ndarray, out: np.ndarray) -> None:
    """Write the 36 columns of N mode-B shots into out, shape (36, N), from
    trig, shape (2, 4, N): cos and sin of the half angles (alpha, beta,
    gamma, delta) / 2."""
    cos, sin = trig
    _phase_data(cos[:2], sin[:2], out[:4].reshape(2, 2, -1), out[20:24].reshape(2, 2, -1))
    cos_mixed, sin_mixed = out[:2] + 1.0, out[2:4]
    cos_single, sin_single = out[20:22] + 1.0, out[22:24]
    np.multiply(sin[2:], sin[2:], out=out[24:26])
    np.multiply(sin[2:], cos[2:], out=out[26:28])
    path = out[24:28].reshape(2, 2, -1)
    np.multiply(path, cos_single, out=out[28:32].reshape(2, 2, -1))
    np.multiply(path, sin_single, out=out[32:36].reshape(2, 2, -1))
    products = (trig[:, None, 2] * trig[None, :, 3]).reshape(4, -1)
    products[0] -= 1.0
    cross = out[4:20].reshape(2, 2, 4, -1)
    np.multiply(products, cos_mixed[:, None], out=cross[:, 0])
    np.multiply(products, sin_mixed[:, None], out=cross[:, 1])


def _shot_moments(rho0: np.ndarray, blocks, n: int, mode: str) -> tuple:
    """Mean state and per-element variances of Re and Im over the shots.

    No shot state is built.  Mode B uses all 36 columns and U; mode A
    its 8 phase columns and those columns of U.  Per pass of
    ``_PASS_SIZE`` shots the kernel takes the column sums, centres the
    columns on the pass mean and adds, for each row of U that is not all
    zero, the squared norm of that row times the centred columns (one
    product per block of U); an all-zero row has variance exactly 0.
    Passes merge by Chan's update: each adds
    count * (U (pass mean - overall mean))^2.  The mean state is
    rho0 + U (overall column mean).  One set of pass buffers serves the
    whole call.
    """
    u = _shot_coefficients(rho0)
    if mode == "A":
        u, split, width, fill = u[:, _PHASE_COLUMNS], 4, 2, _phase_columns
    else:
        split, width, fill = _CROSS_COLUMNS, 4, _shot_columns
    nonzero = np.any(u != 0.0, axis=1)
    cross, other = np.flatnonzero(nonzero & _CROSS_ROWS), np.flatnonzero(nonzero & ~_CROSS_ROWS)
    u_cross, u_other = u[cross, :split], u[other, split:]
    live = np.concatenate((cross, other))
    trig = np.empty((2, width, _PASS_SIZE))
    columns = np.empty((u.shape[1], _PASS_SIZE))
    mapped = np.empty((len(live), _PASS_SIZE))
    scatter = np.zeros(len(live))
    counts, sums = [], []
    for angles in blocks:
        half = np.stack(angles)
        half *= 0.5
        for start in range(0, half.shape[1], _PASS_SIZE):
            count = min(_PASS_SIZE, half.shape[1] - start)
            part, pass_trig = half[:, start:start + count], trig[:, :, :count]
            np.cos(part, out=pass_trig[0])
            np.sin(part, out=pass_trig[1])
            g, y = columns[:, :count], mapped[:, :count]
            fill(pass_trig, g)
            total = g.sum(axis=1)
            g -= (total / count)[:, None]
            np.matmul(u_cross, g[:split], out=y[:len(cross)])
            np.matmul(u_other, g[split:], out=y[len(cross):])
            scatter += np.einsum("rn,rn->r", y, y)
            counts.append(count)
            sums.append(total)
    counts, sums = np.array(counts, dtype=float), np.array(sums)
    mean = sums.sum(axis=0) / n
    scatter += counts @ np.square((sums / counts[:, None] - mean) @ u[live].T)
    variance = np.zeros(2 * 16)
    variance[live] = scatter / (n - 1)
    re, im = (u @ mean).reshape(2, 4, 4)
    var_re, var_im = variance.reshape(2, 4, 4)
    return (rho0.real + re) + 1j * (rho0.imag + im), var_re, var_im


def ensemble_average_monte_carlo(
    rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int
) -> EnsembleEstimate:
    """Sample mean of the shot states over Gaussian angle draws.

    Sampling runs in fixed blocks of 8192 shots; block i uses the child
    seed SeedSequence((seed, i)) and blocks are merged in index order,
    so the estimate is a pure function of (rho0, setup, samples, seed).

    Neither mode builds shot states.  In mode B a shot's deviation from
    rho0 is U g: g holds 36 real numbers per shot built from the four
    angles, and the real (32, 36) U holds Re and Im of each element's
    coefficients, taken from that element's own four entries of rho0.
    A mode-A shot is a mode-B shot with gamma = delta = 0, whose only
    nonzero columns are the (cos d - 1, sin d) of the four phase
    differences, so mode A fills just those 8 columns and uses those
    columns of U.  Passes of shots reduce to column sums and, per row of
    U, the squared norm of U times the centred columns
    (``_shot_moments``, one kernel for both modes).

    Both modes accumulate deviations from the input state (shifted
    data).  At zero width every angle is exactly 0, so every column is
    exactly zero: the input comes back bit-exactly, with zero standard
    errors.
    """
    rho0 = validate_density_matrix(rho0)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    n = int(samples)
    blocks = (
        _sampled_angles(
            np.random.default_rng(np.random.SeedSequence((int(seed), block_index))),
            setup,
            min(_BLOCK_SIZE, n - start),
        )
        for block_index, start in enumerate(range(0, n, _BLOCK_SIZE))
    )
    mean, var_re, var_im = _shot_moments(rho0, blocks, n, setup.mode)
    return EnsembleEstimate(
        mean=mean,
        stderr_re=np.sqrt(var_re / n),
        stderr_im=np.sqrt(var_im / n),
        samples=n,
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
