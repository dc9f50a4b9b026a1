"""Simulated two-qubit state tomography.

Measurement model: for each of the nine settings (spin observable,
path observable) in {X, Y, Z} x {X, Y, Z}, both qubits are projected
onto the +/-1 eigenspaces of their observables.  Outcome probabilities
follow the Born rule; finite-shot data are multinomial draws.

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
from .states import matrix_to_json, validate_density_matrix

_OBSERVABLES = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
OBSERVABLE_NAMES = ("X", "Y", "Z")

# Outcome order for counts and probabilities: (+,+), (+,-), (-,+), (-,-).
_OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


@dataclass(frozen=True)
class MeasurementSetting:
    """One observable per qubit, named by its Pauli letter."""

    spin_observable: str
    path_observable: str

    def __post_init__(self):
        for name in (self.spin_observable, self.path_observable):
            if name not in _OBSERVABLES:
                raise ValueError(f"observable must be one of {OBSERVABLE_NAMES}, got {name!r}")


ALL_SETTINGS = tuple(
    MeasurementSetting(s, p) for s in OBSERVABLE_NAMES for p in OBSERVABLE_NAMES
)

_BORN = np.array([
    spin_path(
        (ID2 + a * _OBSERVABLES[setting.spin_observable]) / 2.0,
        (ID2 + b * _OBSERVABLES[setting.path_observable]) / 2.0,
    ).conj().reshape(16)
    for setting in ALL_SETTINGS
    for a, b in _OUTCOME_SIGNS
])
_INVERSE = np.linalg.pinv(_BORN)
_BORN.flags.writeable = False
_INVERSE.flags.writeable = False


@dataclass(frozen=True)
class CountRecord:
    """Outcome tallies for one setting.

    ``shots >= 1`` means integer counts summing to ``shots``.  The
    sentinel ``shots == 0`` marks exact-probability records, whose
    "counts" are the Born probabilities themselves (used to feed the
    reconstruction with infinite-statistics data).
    """

    setting: MeasurementSetting
    counts: tuple
    shots: int

    def __post_init__(self):
        counts = tuple(float(c) for c in self.counts)
        if len(counts) != 4:
            raise ValueError(f"expected 4 outcome tallies, got {len(counts)}")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        if self.shots < 0:
            raise ValueError(f"shots must be nonnegative, got {self.shots!r}")
        if self.shots > 0:
            if any(c != int(c) for c in counts):
                raise ValueError("counts must be integers when shots > 0")
            if int(sum(counts)) != self.shots:
                raise ValueError(
                    f"counts sum to {int(sum(counts))}, expected shots = {self.shots}"
                )
            counts = tuple(int(c) for c in counts)
        elif abs(sum(counts) - 1.0) > 1e-9:
            raise ValueError(f"probability record must sum to 1, got {sum(counts)!r}")
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        if self.shots > 0:
            return np.array(self.counts, dtype=float) / self.shots
        return np.array(self.counts, dtype=float)


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Physical estimate and its Frobenius distance to the raw linear inversion."""

    estimate: np.ndarray
    frobenius_residual: float

    def to_json(self) -> dict:
        return {
            "estimate": matrix_to_json(self.estimate),
            "frobenius_residual": self.frobenius_residual,
        }


def _born_probabilities(rho: np.ndarray) -> np.ndarray:
    """(9, 4) outcome probabilities of a validated state, settings in ALL_SETTINGS order."""
    probs = (_BORN @ rho.reshape(16)).real.reshape(9, 4)
    if probs.min() < -1e-9:
        raise np.linalg.LinAlgError(f"negative outcome probability: {probs.min():.3e}")
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def outcome_probabilities(rho: np.ndarray, setting: MeasurementSetting) -> np.ndarray:
    """Born probabilities of the four joint outcomes, in the fixed order."""
    return _born_probabilities(validate_density_matrix(rho))[ALL_SETTINGS.index(setting)]


def exact_records(rho: np.ndarray) -> list[CountRecord]:
    """Infinite-statistics records (shots = 0 sentinel) for all settings."""
    probs = _born_probabilities(validate_density_matrix(rho))
    return [
        CountRecord(setting=setting, counts=tuple(p), shots=0)
        for setting, p in zip(ALL_SETTINGS, probs)
    ]


def simulate_counts(rho: np.ndarray, shots: int, seed: int) -> list[CountRecord]:
    """Multinomial outcome counts for all nine settings.

    Setting i (in the fixed X/Y/Z x X/Y/Z enumeration order) draws from
    a generator seeded with SeedSequence((seed, i)), so records are a
    pure function of (rho, shots, seed), independent of scheduling.
    """
    rho = validate_density_matrix(rho)
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    records = []
    for i, (setting, probs) in enumerate(zip(ALL_SETTINGS, _born_probabilities(rho))):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), i)))
        counts = rng.multinomial(int(shots), probs)
        records.append(CountRecord(setting=setting, counts=tuple(int(c) for c in counts), shots=int(shots)))
    return records


def reconstruct_linear(records) -> Reconstruction:
    """Linear inversion of a complete set of nine setting records."""
    by_setting = {}
    for record in records:
        if record.setting in by_setting:
            key = (record.setting.spin_observable, record.setting.path_observable)
            raise ValueError(f"duplicate setting {key}")
        by_setting[record.setting] = record
    missing = [
        (s.spin_observable, s.path_observable) for s in ALL_SETTINGS if s not in by_setting
    ]
    if missing:
        raise ValueError(f"missing settings: {missing}")

    freqs = np.concatenate([by_setting[s].frequencies() for s in ALL_SETTINGS])
    raw = (_INVERSE @ freqs).reshape(4, 4)
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
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains nan or inf")
    herm_defect = float(np.abs(m - m.conj().T).max())
    if herm_defect > 1e-9:
        raise ValueError(f"matrix not Hermitian: max|m - m^dagger| = {herm_defect:.3e}")
    hermitian = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(hermitian)
    vals = np.clip(vals, 0.0, None)
    total = vals.sum()
    if total <= 0.0:
        raise ValueError("cannot project: all eigenvalues nonpositive")
    vals = vals / total
    return validate_density_matrix((vecs * vals) @ vecs.conj().T)


def counts_to_json(records) -> list:
    """Serialize records as a list of per-setting objects."""
    return [
        {
            "spin": r.setting.spin_observable,
            "path": r.setting.path_observable,
            "counts": list(r.counts),
            "shots": r.shots,
        }
        for r in records
    ]
