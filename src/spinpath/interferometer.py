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
the input is linear in a few real numbers per shot (two per phase
difference in mode A, 36 in mode B), with coefficients that each
element takes from its own entries of the input state.  Monte Carlo
results depend only on (seed, samples): sampling is organized in
fixed-size blocks with per-block child seeds, so the outcome is bitwise
independent of how the work would be scheduled.
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
# Mode-B shots per pass within a block.  A pass keeps its (36, 2048)
# columns, the rows mapped from them and its cos/sin in about 1.2 MB,
# inside one core's 2 MiB L2 on the 2-core Xeon measured; there passes of
# 1024, 4096 and 8192 shots cost 16 %, 4 % and 13 % more per shot.
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


def _phase_block(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """Shot count, sums and scatter factor of one mode-A block.

    Per shot and difference d the data are x = cos(d) - 1 and y = sin(d)
    (``_phase_data``).  Returns their sums, shape (4, 2), and an
    upper-triangular R of shape (4, 2, 2) with R^T R the scatter of (x, y)
    about the block mean.  R comes from a two-column Gram-Schmidt on the
    centred data, so a spread that is tiny next to the mean or along one
    direction keeps its digits.
    """
    # In-place steps keep each block to five large arrays.
    half = np.stack((alpha, beta))
    half *= 0.5
    x, y = data = np.empty((2, 4, len(alpha)))
    _phase_data(np.cos(half), np.sin(half), data[:, :2], data[:, 2:])
    sums = np.stack((x.sum(axis=1), y.sum(axis=1)), axis=-1)
    x -= sums[:, :1] / len(alpha)
    y -= sums[:, 1:] / len(alpha)
    sxx, sxy = np.einsum("dn,dn->d", x, x), np.einsum("dn,dn->d", x, y)
    x *= (sxy / np.where(sxx > 0.0, sxx, 1.0))[:, None]
    y -= x
    r11 = np.sqrt(sxx)
    r12 = sxy / np.where(r11 > 0.0, r11, 1.0)
    r22 = np.sqrt(np.einsum("dn,dn->d", y, y))
    return len(alpha), sums, np.stack((r11, r12, np.zeros_like(r11), r22), axis=-1).reshape(4, 2, 2)


def _phase_moments(rho0: np.ndarray, blocks, n: int) -> tuple:
    """Mode-A mean state and per-element variances of Re and Im over the shots.

    A shot deviates from rho0 by rho0_jk (exp(i theta_jk) - 1), whose Re
    and Im are linear in the (x, y) of its difference d with coefficients
    from rho0_jk alone (never from the conjugate element, as an input is
    Hermitian only within tolerance).  So the block data of the four
    differences carry every element: the mean from the summed (x, y),
    the variance as the squared norm of the coefficient vector mapped by
    the stacked scatter factors of all blocks, plus one row per block for
    its mean's offset from the overall mean.
    """
    counts, sums, factors = zip(*(_phase_block(*angles) for angles in blocks))
    mean = np.sum(sums, axis=0) / n
    offsets = [
        np.sqrt(count) * (total / count - mean)[:, None, :] for count, total in zip(counts, sums)
    ]
    rows = np.concatenate(factors + tuple(offsets), axis=1)
    # Difference 4 (theta = 0) has all-zero data.
    mean = np.concatenate((mean, np.zeros((1, 2))))[_PHASE_INDEX]
    rows = np.concatenate((rows, np.zeros((1,) + rows.shape[1:])))[_PHASE_INDEX]
    re, im = rho0.real, rho0.imag
    x, y = mean[..., 0], _PHASE_SIGN * mean[..., 1]
    mean_state = (re + (re * x - im * y)) + 1j * (im + (re * y + im * x))
    coeff_re = np.stack((re, -_PHASE_SIGN * im), axis=-1)
    coeff_im = np.stack((im, _PHASE_SIGN * re), axis=-1)
    var_re = np.square(np.einsum("jkrc,jkc->jkr", rows, coeff_re)).sum(axis=-1) / (n - 1)
    var_im = np.square(np.einsum("jkrc,jkc->jkr", rows, coeff_im)).sum(axis=-1) / (n - 1)
    return mean_state, var_re, var_im


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
_SPIN_FLIP = np.array([2, 3, 0, 1])
_SHOT_COLUMNS, _CROSS_COLUMNS = 36, 20
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


def _shot_moments(rho0: np.ndarray, blocks, n: int) -> tuple:
    """Mode-B mean state and per-element variances of Re and Im over the shots.

    No shot state is built.  Per pass of ``_PASS_SIZE`` shots the kernel
    takes the column sums, centres the columns on the pass mean and adds,
    for each row of U that is not all zero, the squared norm of that row
    times the centred columns (one product per block of U); an all-zero
    row has variance exactly 0.  Passes merge by Chan's update: each adds
    count * (U (pass mean - overall mean))^2.  The mean state is
    rho0 + U (overall column mean).  One set of pass buffers serves the
    whole call.
    """
    u = _shot_coefficients(rho0)
    nonzero = np.any(u != 0.0, axis=1)
    cross, other = np.flatnonzero(nonzero & _CROSS_ROWS), np.flatnonzero(nonzero & ~_CROSS_ROWS)
    u_cross, u_other = u[cross, :_CROSS_COLUMNS], u[other, _CROSS_COLUMNS:]
    live = np.concatenate((cross, other))
    trig = np.empty((2, 4, _PASS_SIZE))
    columns = np.empty((_SHOT_COLUMNS, _PASS_SIZE))
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
            _shot_columns(pass_trig, g)
            total = g.sum(axis=1)
            g -= (total / count)[:, None]
            np.matmul(u_cross, g[:_CROSS_COLUMNS], out=y[:len(cross)])
            np.matmul(u_other, g[_CROSS_COLUMNS:], out=y[len(cross):])
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

    Neither mode builds shot states.  In mode A a shot only multiplies
    rho0_jk by the phase exp(i theta_jk), and theta_jk is one of four
    phase differences (or 0 on the diagonal), so each block reduces to the
    sums and a scatter factor of (cos d - 1, sin d) per difference, which
    every element combines with its own Re and Im of rho0
    (``_phase_moments``).  In mode B a shot's deviation from rho0 is
    U g: g holds 36 real numbers per shot built from the four angles, and
    the real (32, 36) U holds Re and Im of each element's coefficients,
    taken from that element's own four entries of rho0.  Passes of shots
    reduce to column sums and, per row of U, the squared norm of U times
    the centred columns (``_shot_moments``).

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
    moments = _phase_moments if setup.mode == "A" else _shot_moments
    mean, var_re, var_im = moments(rho0, blocks, n)
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
