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
(:func:`lambda_from_sigma`) on Bell-diagonal input states; on other
inputs some coherences decay at other rates.

Every average reads one table, ``_shot_table``.  Each rotation's
harmonics expand a shot's superoperator as sum_q exp(i q.theta/2) C_q, and
the layout table ``_LAYOUTS`` alone fixes which C_q are nonzero.  So a
shot's deviation from the input is U g, linear in two real columns g,
cos(q.theta/2) - 1 and sin(q.theta/2), per pair {q, -q}: 8, 4, 2 and 32
columns for the four layouts.  An average is the input plus U times the
columns' mean.  ``ensemble_average_analytic`` takes their exact Gaussian
means, so it is exact for arbitrary input states;
``ensemble_average_monte_carlo`` takes their sample mean, with standard
errors, and ``ensemble_mean_monte_carlo`` gives that mean alone, bit for
bit, from the same per-pass phasor sums at less cost.  Calibration reads
one element, so its route (``_element_mean_monte_carlo``) builds and sums
only the phasors of the pairs whose columns reach it, and gives that
element of the mean bit for bit.  A pair's phasor exp(i q.theta/2) is one
product of two cached factors, over the first and the second half of the
rotations (``_phasor_plan``).  No route builds shot states, and at
sigma = 0 none draws.  Each element takes its
coefficients from its own entries of the input state, and the table's
support splits them into independent blocks; one kernel serves every
layout.  Monte Carlo results depend only on (seed, samples): sampling is
organized in fixed-size blocks with per-block child seeds, so the outcome
is bitwise independent of how the work would be scheduled.  Each block
draws its Gaussian angles by the Box-Muller transform (Box & Muller, Ann.
Math. Statist. 29, 610 (1958)) from one array of uniforms, with vectorized
ufuncs only (``_rotation_angles``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import superop
from .pauli import ID2, PATH_I, PATH_II, SIGMA_X, SIGMA_Z, check_mode, spin_path_stack
from .states import check_count, check_real, matrix_to_json, validate_density_matrix

# Every field layout: (mode, variant) -> (rotations, lambda t / sigma^2).
# A rotation is a (spin axis, path) pair with its own Gaussian angle.  The
# Monte Carlo draws the angles in table order; a shot applies the last
# rotation first (x before z on each path in mode B).
_LAYOUTS = {
    ("A", "both_paths_independent"): ((("z", "I"), ("z", "II")), 0.25),
    ("A", "single_field_one_path"): ((("z", "II"),), 0.125),
    ("A", "single_field_both_paths"): ((("z", "both"),), 0.5),
    ("B", "both_paths_independent"): ((("z", "I"), ("z", "II"), ("x", "I"), ("x", "II")), 0.5),
}
VARIANTS = tuple(dict.fromkeys(variant for _, variant in _LAYOUTS))

_BLOCK_SIZE = 8192
# Shots per pass within a block, every layout.  A mode-B pass keeps its 32
# complex phasor rows, reused by its 32 centred columns and 28 mapped rows,
# in about 2.1 MB, past one core's 2 MiB L2 on the 2-core Xeon measured;
# yet there passes of 4096 shots cost 10-12 % less per shot than passes of
# 2048 in every layout, since each pass pays a fixed cost in NumPy calls.
_PASS_SIZE = 4096
_STDERR_FLOOR = 1e-15

_AXES = {"x": SIGMA_X, "z": SIGMA_Z}


@dataclass(frozen=True)
class FieldSetup:
    """Decoherence mode, fluctuation width and field-placement variant; ``sigma`` is stored as a float."""

    mode: str
    sigma: float
    variant: str = "both_paths_independent"

    def __post_init__(self):
        check_mode(self.mode)
        object.__setattr__(self, "sigma", check_real(self.sigma, "sigma"))
        if not np.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma {self.sigma!r} is too large: its square overflows")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if (self.mode, self.variant) not in _LAYOUTS:
            supported = " or ".join(repr(v) for m, v in _LAYOUTS if m == self.mode)
            raise ValueError(
                f"variant {self.variant!r} is not supported for mode {self.mode}; only {supported} is"
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


# --- the shot table ----------------------------------------------------------
#
# Every conditioned rotation in a single Gaussian angle theta decomposes
# into harmonics V(theta) = sum_m exp(i*m*theta/2) G_m with m in
# {-1, 0, +1}.  A rotation about spin axis s on the paths selected by
# projector P has G_{+1} = (1 + s)/2 (x) P, G_{-1} = (1 - s)/2 (x) P and
# G_0 = 1 (x) (1 - P).  With one angle per rotation, a shot's superoperator
# V (x) V^* is sum_q exp(i q.theta/2) C_q, where C_q sums A_m (x) A_m'^* over
# the harmonic sequences with m - m' = q and A_m = G_m1 ... G_mR.  The sum is
# 1 at zero angles, so over one q of each pair {q, -q} a shot's deviation
# from rho0 is
#
#     sum_q [(cos(q.theta/2) - 1) (C_q + C_-q) + sin(q.theta/2) i (C_q - C_-q)] vec rho0 = U g:
#
# two columns per pair, each exactly 0 at zero angles.  Every average is
# rho0 + U E[g].  The Monte Carlo takes E[g] as the sample mean of the
# shots' columns; independent Gaussian angles of width sigma give it
# exactly, exp(-|q|^2 sigma^2/8) - 1 for a cos column and 0 for a sin column.

_PATHS = {"I": PATH_I, "II": PATH_II, "both": ID2}
_ORDERS = np.array([1, -1, 0])


def _harmonics(axis: str, path: str):
    """Read-only stacked harmonics G_m, m in _ORDERS, of a spin rotation on ``path``."""
    here, spin = _PATHS[path], _AXES[axis]
    return spin_path_stack([
        ((ID2 + spin) / 2.0, here),
        ((ID2 - spin) / 2.0, here),
        (ID2, ID2 - here),
    ])


@dataclass(frozen=True, eq=False)
class _ShotTable:
    """The columns of one layout: ``phases`` holds one q per pair,
    grouped by block (columns 2p, 2p + 1 are pair p's cos - 1 and sin);
    ``table @ vec rho0`` is U, element-major; ``blocks`` lists the rows of
    U and the columns of each connected block of the table's support.  The
    rest is ``_phasor_plan``'s."""

    phases: np.ndarray
    table: np.ndarray
    blocks: tuple
    slopes: np.ndarray
    steps: tuple
    phasors: int


@cache
def _shot_table(mode: str, variant: str) -> _ShotTable:
    """The pairs of nonzero C_q of a layout and the blocks they form."""
    rotations, _ = _LAYOUTS[mode, variant]
    sequences = {(): np.eye(4)}  # A_m by harmonic sequence m, vanishing products dropped
    for rotation in rotations:
        sequences = {
            m + (int(order),): product
            for m, a in sequences.items()
            for order, g in zip(_ORDERS, _harmonics(*rotation))
            if np.any(product := a @ g)
        }
    c = {}
    for m, a in sequences.items():
        for n, b in sequences.items():
            q = tuple(x - y for x, y in zip(m, n))
            c[q] = c.get(q, 0.0) + superop.sandwich(a, b)
    c = {q: term for q, term in c.items() if np.any(term)}
    pairs = [q for q in c if q > tuple(-x for x in q)]
    base = [1 if any(abs(q[r]) == 1 for q in pairs) else 2 for r in range(len(rotations))]
    columns = np.array([(c[q] + c[neg], 1j * (c[q] - c[neg]))
                        for q, neg in ((q, tuple(-x for x in q)) for q in pairs)])
    support = np.any(columns != 0.0, axis=(1, 3)).T  # (element, pair)
    linked = support.T @ support
    while not np.array_equal(reach := linked @ linked, linked):
        linked = reach
    first = linked.argmax(axis=1)  # the lowest pair of each pair's block
    order, sizes = np.argsort(first, kind="stable"), np.bincount(first)
    blocks = []
    for label in np.flatnonzero(sizes):
        stop = int(sizes[:label + 1].sum())
        elements = np.flatnonzero(support[:, first == label].any(axis=1))
        blocks.append((np.r_[elements, elements + 16], slice(2 * (stop - int(sizes[label])), 2 * stop)))
    table = columns[order].transpose(2, 0, 1, 3).reshape(-1, 16)
    table.flags.writeable = False
    phases = [pairs[i] for i in order]
    return _ShotTable(np.array(phases), table, tuple(blocks), *_phasor_plan(phases, base))


def _phasor_plan(phases: list, base: list) -> tuple:
    """How ``_shot_phasors`` builds exp(i q.theta/2): the tan slopes b/4, the
    steps (ufunc, row, a, b), each writing ufunc(row a[, row b]) to the row
    or, with ufunc None, copying row a, and the row count.

    Row r is rotation r's base factor exp(i b_r theta_r/2); every phase
    entry is 0, +-b_r or +-2 b_r.  Any other factor, over the rotations
    [lo, hi), is built once and kept by its exponent vector x: if its first
    entry is negative it is the conjugate of -x, if it has one entry 2 b_r
    the square of the base, else the product of its factors over the first
    and the second half of [lo, hi), in rotation order.  A pair's phasor is
    its factor over all rotations, and a factor that is a pair is built
    straight into the pair's row; only a pair that is a base alone is a
    copy.  The pairs start at row max(rows ahead, pairs)."""
    zero = (0,) * len(base)
    pair_rows = {tuple(q): ~p for p, q in enumerate(phases)}  # front + p, once front is known
    row = {zero[:r] + (b,) + zero[r + 1:]: r for r, b in enumerate(base)}
    ahead, steps = itertools.count(len(base)), []

    def factor(x: tuple, lo: int, hi: int) -> int:
        """The row of factor x, nonzero only in the rotations [lo, hi), built if new."""
        if x in row:
            return row[x]
        live = [r for r in range(lo, hi) if x[r]]
        mid = (lo + hi + 1) // 2
        if x[live[0]] < 0:  # tan is odd to the bit (16.8 M values checked), cos = 1 - t sin even
            step = (np.conjugate, factor(tuple(-e for e in x), lo, hi), None)
        elif len(live) == 1:  # x_r = 2 b_r
            step = (np.multiply, live[0], live[0])
        elif live[-1] < mid:
            return factor(x, lo, mid)
        elif live[0] >= mid:
            return factor(x, mid, hi)
        else:
            step = (np.multiply, factor(x[:mid] + zero[mid:], lo, mid), factor(zero[:mid] + x[mid:], mid, hi))
        # A new row, so no step writes a row it reads: NumPy's in-place product of one element skips the FMA.
        row[x] = pair_rows[x] if x in pair_rows else next(ahead)
        steps.append((step[0], row[x], *step[1:]))
        return row[x]

    for q in pair_rows:
        if factor(q, 0, len(base)) != pair_rows[q]:
            steps.append((None, pair_rows[q], row[q], None))  # a copy
    front = max(next(ahead), len(phases))
    steps = [(ufunc, *(front + ~r if r is not None and r < 0 else r for r in rows)) for ufunc, *rows in steps]
    return np.array(base) / 4.0, tuple(steps), front + len(phases)


@cache
def _element_pairs(mode: str, variant: str, element: tuple) -> tuple:
    """The pairs of a layout's table whose columns reach ``element`` (row,
    column) of the state, read from the table's support, and a plan of
    their phasors alone with the layout's base factors, so each phasor is
    the full plan's bit for bit."""
    table = _shot_table(mode, variant)
    reach = table.table.reshape(16, len(table.phases), 2, 16)[4 * element[0] + element[1]]
    indices = np.flatnonzero(reach.any(axis=(1, 2)))
    phases = table.phases[indices]
    base = (4 * table.slopes).astype(int).tolist()
    return indices, _ShotTable(phases, None, (), *_phasor_plan(phases.tolist(), base))


def _shot_coefficients(table: _ShotTable, rho0: np.ndarray) -> np.ndarray:
    """Real U, shape (32, columns): a shot with columns g maps rho0 to
    rho0 + D with Re D (rows 0-15) and Im D (rows 16-31), row-major, equal
    to U g.  Each element's row reads rho0 itself, never the conjugate
    element: an input is Hermitian only within tolerance."""
    u = (table.table @ rho0.ravel()).reshape(16, -1)
    return np.concatenate((u.real, u.imag))


def _mean_state(rho0: np.ndarray, u: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """rho0 + U (column mean), Re and Im apart."""
    re, im = (u @ mean).reshape(2, 4, 4)
    return (rho0.real + re) + 1j * (rho0.imag + im)


def ensemble_average_analytic(rho0: np.ndarray, setup: FieldSetup) -> np.ndarray:
    """Exact Gaussian ensemble average of the shot states, rho0 + U E[g] with
    the columns' exact means: at sigma = 0 the input comes back bit for bit."""
    rho = validate_density_matrix(rho0)
    table = _shot_table(setup.mode, setup.variant)
    mean = np.zeros((len(table.phases), 2))
    mean[:, 0] = np.expm1(np.square(table.phases).sum(axis=1) * (-setup.sigma * setup.sigma / 8.0))
    return validate_density_matrix(_mean_state(rho, _shot_coefficients(table, rho), mean.ravel()))


# --- Monte Carlo -------------------------------------------------------------


def _rotation_angles(rng: np.random.Generator, setup: FieldSetup, count: int) -> np.ndarray:
    """Per-shot angles of one block, shape (rotations, count): one Gaussian
    draw of width sigma per rotation of the layout, in table order.

    Box-Muller from one ``rng.random((2, half))`` call, half = ceil(size/2):
    uniforms (u, v) give the independent normals r cos phi and r sin phi with
    r = sqrt(-2 log1p(-u)) and phi = 2 pi (v - 1/2), the cosine and sine
    read from t = tan(phi/2) as 2/(1 + t^2) - 1 and 2t/(1 + t^2) (NumPy's
    float64 sin and cos cost 2-5 times its vectorized tan).  The cosine
    partners fill the first half of the flat (rotations, count) array and the
    sine partners the second, in the uniforms' own buffer; an odd size drops
    the last sine.  sigma multiplies last, so the angles at sigma are sigma
    times those at 1 bit for bit, and sigma is never squared."""
    rotations, _ = _LAYOUTS[setup.mode, setup.variant]
    size = len(rotations) * count
    draw = rng.random((2, (size + 1) // 2))
    r, t = draw
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t -= 0.5
    t *= np.pi
    np.tan(t, out=t)  # finite at v = 0: pi/2 rounds below its true value
    d = t * t
    d += 1.0
    np.divide(2.0, d, out=d)
    t *= d  # sin
    d -= 1.0  # cos
    t *= r
    r *= d
    draw *= setup.sigma
    return draw.reshape(-1)[:size].reshape(len(rotations), count)


def _angle_blocks(setup: FieldSetup, n: int, seed: int):
    """The angles of each block of up to ``_BLOCK_SIZE`` shots, block i drawn
    from the child seed SeedSequence((seed, i)).  At sigma = 0 nothing is
    drawn: the one block is a single shot at zero angles."""
    if setup.sigma == 0.0:  # every column is exactly 0: one shot's sums over n are all n shots'
        yield np.zeros((len(_LAYOUTS[setup.mode, setup.variant][0]), 1))
        return
    for index, start in enumerate(range(0, n, _BLOCK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield _rotation_angles(rng, setup, min(_BLOCK_SIZE, n - start))


def _shot_phasors(table: _ShotTable, angles: np.ndarray, phasors: np.ndarray) -> np.ndarray:
    """The pairs' phasors exp(i q.theta/2), shape (pairs, N), of N shots with
    angles of shape (rotations, N), built in ``phasors`` from one tan of an
    exact argument per rotation, squares, conjugates and products, so no phase
    is rounded as a sum of angles.  At zero angles every phasor is exactly 1."""
    bases = phasors[:len(table.slopes)]
    t = table.slopes[:, None] * angles
    np.tan(t, out=t)
    d = t * t
    d += 1.0
    np.divide(2.0, d, out=d)
    np.multiply(t, d, out=bases.imag)  # sin = 2t/(1 + t^2)
    np.multiply(bases.imag, t, out=bases.real)
    np.subtract(1.0, bases.real, out=bases.real)  # cos = 1 - t sin
    for ufunc, row, a, b in table.steps:
        if ufunc is None:  # a copy, three times faster than np.positive
            phasors[row] = phasors[a]
        elif b is None:
            ufunc(phasors[a], out=phasors[row])
        else:
            ufunc(phasors[a], phasors[b], out=phasors[row])
    return phasors[table.phasors - len(table.phases):table.phasors]


def _phasor_sums(table: _ShotTable, blocks, phasors: np.ndarray):
    """Yield the phasors z, shape (pairs, count), of each pass of up to
    ``_PASS_SIZE`` shots of each block of angles, and their sums over the
    pass's shots.  z is a view of ``phasors`` (rows, _PASS_SIZE), valid until
    the caller writes there."""
    for angles in blocks:
        for start in range(0, angles.shape[1], _PASS_SIZE):
            count = min(_PASS_SIZE, angles.shape[1] - start)
            z = _shot_phasors(table, angles[:, start:start + count], phasors[:, :count])
            yield z, z.sum(axis=1)
        del angles  # freed before the next block is drawn


def _column_mean(counts: list, totals: list, n: int) -> tuple:
    """The passes' counts, their column sums, shape (passes, columns), and the
    overall column mean, from each pass's count and phasor sums: a cos - 1
    column sums to its phasors' real parts minus the count.  The sums are
    the totals' own float view, Re and Im of pair p in columns 2p, 2p + 1."""
    counts, sums = np.array(counts, dtype=float), np.array(totals).view(float)
    sums[:, 0::2] -= counts[:, None]
    return counts, sums, sums.sum(axis=0) / n


def _shot_mean(rho0: np.ndarray, blocks, n: int, table: _ShotTable, pairs: tuple | None = None) -> np.ndarray:
    """Mean state over the shots.  A pass costs only its phasors and their
    sums: nothing is centred, mapped by U or squared.  Given ``pairs``
    (indices, plan) from ``_element_pairs``, only those pairs' phasors are
    built and the other columns' means are 0: the state is exact, bit for
    bit, only in the elements that no other pair reaches."""
    indices, plan = pairs or (slice(None), table)
    phasors = np.empty((plan.phasors, _PASS_SIZE), dtype=complex)
    counts, totals = zip(*((z.shape[1], total) for z, total in _phasor_sums(plan, blocks, phasors)))
    mean = np.zeros((len(table.phases), 2))
    mean[indices] = _column_mean(counts, totals, n)[2].reshape(-1, 2)
    return _mean_state(rho0, _shot_coefficients(table, rho0), mean.ravel())


def _shot_moments(rho0: np.ndarray, blocks, n: int, table: _ShotTable) -> tuple:
    """Mean state and per-element variances of Re and Im over the shots.

    No shot state is built.  Per pass of ``_PASS_SIZE`` shots the kernel
    takes the column sums, centres the columns on the pass mean and adds,
    for each row of U that is not all zero, the squared norm of that row
    times the centred columns (one product per block); an all-zero row has
    variance exactly 0.  Passes merge by Chan's update: each adds
    count * (U (pass mean - overall mean))^2.  The mean state is the one
    ``_shot_mean`` gives, bit for bit.
    """
    u = _shot_coefficients(table, rho0)
    nonzero = np.any(u != 0.0, axis=1)
    pieces = [(rows[nonzero[rows]], cols) for rows, cols in table.blocks]
    pieces = [(rows, u[rows, cols], cols) for rows, cols in pieces if len(rows)]
    live = np.concatenate([rows for rows, _, _ in pieces] or [np.zeros(0, dtype=int)])
    # One buffer serves each pass: the centred columns take the rows ahead of
    # the pairs (no fewer than the pairs), the mapped rows the pair rows.
    front = table.phasors - len(table.phases)
    phasors = np.empty((max(table.phasors, front + (len(live) + 1) // 2), _PASS_SIZE), dtype=complex)
    free = phasors.view(float).reshape(-1, _PASS_SIZE)
    columns = free[:2 * len(table.phases)]
    mapped = free[2 * front:2 * front + len(live)]
    scatter = np.zeros(len(live))
    counts, totals = [], []
    for z, total in _phasor_sums(table, blocks, phasors):
        count = z.shape[1]
        g, y = columns[:, :count], mapped[:, :count]
        np.subtract(z.real, (total.real / count)[:, None], out=g[0::2])
        np.subtract(z.imag, (total.imag / count)[:, None], out=g[1::2])
        at = 0
        for rows, coefficients, cols in pieces:
            np.matmul(coefficients, g[cols], out=y[at:at + len(rows)])
            at += len(rows)
        scatter += np.einsum("rn,rn->r", y, y)
        counts.append(count)
        totals.append(total)
    counts, sums, mean = _column_mean(counts, totals, n)
    scatter += counts @ np.square((sums / counts[:, None] - mean) @ u[live].T)
    variance = np.zeros(2 * 16)
    variance[live] = scatter / (n - 1)
    var_re, var_im = variance.reshape(2, 4, 4)
    return _mean_state(rho0, u, mean), var_re, var_im


def _sampling(rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int) -> tuple:
    """The validated input, angle blocks, shot count and table of a Monte Carlo call."""
    rho0 = validate_density_matrix(rho0)
    check_count(samples, "samples", 2)
    check_count(seed, "seed")
    n = int(samples)
    return rho0, _angle_blocks(setup, n, int(seed)), n, _shot_table(setup.mode, setup.variant)


def ensemble_mean_monte_carlo(rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int) -> np.ndarray:
    """The mean state of ``ensemble_average_monte_carlo`` with the same
    arguments, bit for bit, without its standard errors: the same checks,
    blocks, child seeds and passes, but per pass only the phasor sums."""
    return _shot_mean(*_sampling(rho0, setup, samples, seed))


def _element_mean_monte_carlo(rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int,
                              element: tuple) -> complex:
    """``ensemble_mean_monte_carlo(...)[element]`` from the phasors of only
    the pairs whose columns reach that element (``_element_pairs``), with
    the same checks, blocks, child seeds and passes."""
    pairs = _element_pairs(setup.mode, setup.variant, element)
    return _shot_mean(*_sampling(rho0, setup, samples, seed), pairs)[element]


def ensemble_average_monte_carlo(
    rho0: np.ndarray, setup: FieldSetup, samples: int, seed: int
) -> EnsembleEstimate:
    """Sample mean of the shot states over Gaussian angle draws.

    Sampling runs in fixed blocks of 8192 shots; block i uses the child
    seed SeedSequence((seed, i)) and blocks are merged in index order,
    so the estimate is a pure function of (rho0, setup, samples, seed).

    No shot state is built.  A shot's deviation from rho0 is U g: g holds
    cos(q.theta/2) - 1 and sin(q.theta/2) for each pair {q, -q} of nonzero
    C_q of the layout (``_shot_table``), and the real U holds Re and Im of
    (C_q + C_-q) vec rho0 and i (C_q - C_-q) vec rho0 (``_shot_moments``,
    one kernel for every layout).  The kernel accumulates these deviations
    (shifted data).  At zero width nothing is drawn: the same passes run on
    one shot at zero angles, where every column is exactly 0, so the input
    comes back bit-exactly, with zero standard errors.
    """
    rho0, blocks, n, table = _sampling(rho0, setup, samples, seed)
    mean, var_re, var_im = _shot_moments(rho0, blocks, n, table)
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


def lambda_from_sigma(setup: FieldSetup, dwell_time: float) -> float:
    """Coupling strength whose continuous evolution over ``dwell_time``
    matches the Gaussian ensemble average of the setup on Bell-diagonal
    input states.

    The product lam * dwell_time equals c * sigma^2, with c the layout's
    coefficient in ``_LAYOUTS``.
    """
    dwell_time = check_real(dwell_time, "dwell_time", positive=True)
    return _LAYOUTS[setup.mode, setup.variant][1] * setup.sigma ** 2 / dwell_time
