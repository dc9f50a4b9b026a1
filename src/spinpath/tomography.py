"""Simulated two-qubit state tomography on (9, 4) arrays.

Measurement model: for each of the nine settings (spin observable,
path observable) in {X, Y, Z} x {X, Y, Z}, both qubits are projected
onto the +/-1 eigenspaces of their observables.  Outcome probabilities
follow the Born rule; finite-shot data are multinomial draws, all nine
settings from one seeded generator.

Data are (9, 4) arrays: row i is setting ``ALL_SETTINGS[i]``, column k
is outcome k in the order (+,+), (+,-), (-,+), (-,-).  Exact data hold
the Born probabilities (floats, rows summing to 1); finite-shot data
hold integer counts, every row summing to the shot count.

All 36 probabilities are one product with the 36x16 Born matrix (row
4i + k: the conjugated, vectorized projector of outcome k of setting i),
and reconstruction is its pseudo-inverse.  Outcomes of one setting are
orthogonal, so this least-squares estimate takes correlators from their
own setting and averages single-qubit expectations over the three
settings that share the observable:

    raw = 1/4 * (1 + sum_i <s_i> s_i(x)1 + sum_j <p_j> 1(x)p_j
                   + sum_ij <s_i p_j> s_i(x)p_j).

Finite statistics can push raw outside the physical set, so the
returned estimate is its eigenvalue-clipped projection
(:func:`project_psd`), with the Frobenius distance between the two
reported as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, spin_path
from .states import check_count, validate_density_matrix

_OBSERVABLES = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

# (spin, path) Pauli letters of the nine settings: the row order of every (9, 4) array.
ALL_SETTINGS = tuple((s, p) for s in "XYZ" for p in "XYZ")

# Outcome order for counts and probabilities: (+,+), (+,-), (-,+), (-,-).
_OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Largest shot count a multinomial draw takes: NumPy counts in int64.
_MAX_SHOTS = int(np.iinfo(np.int64).max)

_BORN = np.array([
    spin_path((ID2 + a * _OBSERVABLES[s]) / 2.0, (ID2 + b * _OBSERVABLES[p]) / 2.0).conj().reshape(16)
    for s, p in ALL_SETTINGS
    for a, b in _OUTCOME_SIGNS
])
_INVERSE = np.linalg.pinv(_BORN)
_BORN.flags.writeable = False
_INVERSE.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Physical estimate and its Frobenius distance to the raw linear inversion."""

    estimate: np.ndarray
    frobenius_residual: float


def _born_probabilities(rho: np.ndarray) -> np.ndarray:
    """(9, 4) outcome probabilities of a validated state, settings in ALL_SETTINGS order."""
    probs = (_BORN @ rho.reshape(16)).real.reshape(9, 4)
    if probs.min() < -1e-9:
        raise np.linalg.LinAlgError(f"negative outcome probability: {probs.min():.3e}")
    probs = np.maximum(probs, 0.0)
    return probs / probs.sum(axis=1, keepdims=True)


def exact_records(rho: np.ndarray) -> np.ndarray:
    """(9, 4) Born probabilities of every outcome: infinite-statistics data."""
    return _born_probabilities(validate_density_matrix(rho))


def simulate_counts(rho: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """(9, 4) integer multinomial counts, ``shots`` per setting.

    One ``default_rng(seed)`` draws the whole Born table in one
    ``multinomial`` call, row by row in ALL_SETTINGS order, so counts are
    a pure function of (rho, shots, seed).  ``shots`` is at most
    2**63 - 1, the int64 limit of the multinomial draw.
    """
    rho = validate_density_matrix(rho)
    check_count(shots, "shots", 1)
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots {shots} exceeds the limit of {_MAX_SHOTS}")
    check_count(seed, "seed")
    return np.random.default_rng(int(seed)).multinomial(int(shots), _born_probabilities(rho))


def _frequencies(counts) -> np.ndarray:
    """Outcome frequencies of a (9, 4) count or probability array, checked.

    Rows that each sum to 1 within 1e-9 are probabilities; otherwise the
    entries must be integers whose nine rows share one positive total.
    """
    data = np.asarray(counts)
    if data.shape != (9, 4):
        raise ValueError(f"expected a (9, 4) array, one row per setting, got shape {data.shape}")
    if data.dtype.kind not in "iuf":
        raise ValueError(f"tallies must be real numbers, got dtype {data.dtype}")
    data = data.astype(float)
    if not np.isfinite(data).all():
        raise ValueError("tallies contain nan or inf")
    if data.min() < 0.0:
        raise ValueError(f"tallies must be nonnegative, got {float(data.min())!r}")
    totals = data.sum(axis=1)
    off = int(np.abs(totals - 1.0).argmax())
    if abs(totals[off] - 1.0) <= 1e-9:
        return data
    fractional = np.flatnonzero(data != np.rint(data))
    if fractional.size:
        i, k = divmod(int(fractional[0]), 4)
        raise ValueError(
            f"tallies are neither integer counts nor probability rows summing to 1 within 1e-9: "
            f"entry ({i}, {k}) = {float(data[i, k])!r} is not an integer "
            f"and row {off} sums to {float(totals[off])!r}"
        )
    if totals[0] <= 0.0 or (totals != totals[0]).any():
        raise ValueError(
            f"count rows must share one positive total (the shot count), got {totals.tolist()}"
        )
    return data / totals[0]


def reconstruct_linear(counts) -> Reconstruction:
    """Linear inversion of a (9, 4) count or probability array."""
    raw = (_INVERSE @ _frequencies(counts).reshape(36)).reshape(4, 4)
    estimate = project_psd(raw)
    residual = float(np.linalg.norm(raw - estimate))
    return Reconstruction(estimate=estimate, frobenius_residual=residual)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Eigenvalue-clipped projection: clip negative eigenvalues, renormalize trace.

    The result is a valid state but in general not the Frobenius-nearest
    one.  The input must be Hermitian within 1e-9 (it is symmetrized before
    the eigendecomposition).  Raises if every clipped eigenvalue is
    zero, since no state can be formed then.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains nan or inf")
    adjoint = m.conj().T
    herm_defect = float(np.abs(m - adjoint).max())
    if herm_defect > 1e-9:
        raise ValueError(f"matrix not Hermitian: max|m - m^dagger| = {herm_defect:.3e}")
    vals, vecs = np.linalg.eigh((m + adjoint) / 2.0)
    vals = np.maximum(vals, 0.0)
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("cannot project: all eigenvalues nonpositive")
    vals = vals / total
    return validate_density_matrix((vecs * vals) @ vecs.conj().T)


def counts_to_json(counts, shots: int) -> list:
    """Serialize a (9, 4) array as per-setting objects; shots = 0 marks probabilities."""
    return [
        {"spin": s, "path": p, "counts": row, "shots": shots}
        for (s, p), row in zip(ALL_SETTINGS, np.asarray(counts).tolist())
    ]
