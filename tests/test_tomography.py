import numpy as np
import pytest

from spinpath.lindblad import DecoherenceSpec, evolve
from spinpath.pauli import ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, spin_path
from spinpath.states import StateValidationError, from_pure, maximally_mixed
from spinpath.tomography import (
    ALL_SETTINGS,
    CountRecord,
    MeasurementSetting,
    counts_to_json,
    exact_records,
    outcome_probabilities,
    project_psd,
    reconstruct_linear,
    simulate_counts,
)

SINGLET = from_pure(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


def random_state(rng):
    """Random full-rank density matrix from a Ginibre draw."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_settings_enumeration():
    assert len(ALL_SETTINGS) == 9
    assert len(set(ALL_SETTINGS)) == 9
    for setting in ALL_SETTINGS:
        assert setting.spin_observable in ("X", "Y", "Z")
        assert setting.path_observable in ("X", "Y", "Z")


def test_probabilities_maximally_mixed():
    for setting in ALL_SETTINGS:
        probs = outcome_probabilities(maximally_mixed(), setting)
        assert np.abs(probs - 0.25).max() < 1e-12


@pytest.mark.parametrize("observable", ["Z", "X"])
def test_probabilities_singlet_anticorrelated(observable):
    setting = MeasurementSetting(spin_observable=observable, path_observable=observable)
    probs = outcome_probabilities(SINGLET, setting)
    assert np.abs(probs - np.array([0.0, 0.5, 0.5, 0.0])).max() < 1e-12


def test_probabilities_normalized_on_random_states():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rho = random_state(rng)
        for setting in ALL_SETTINGS:
            probs = outcome_probabilities(rho, setting)
            assert probs.min() >= 0.0
            assert abs(probs.sum() - 1.0) < 1e-12


def test_simulate_counts_deterministic():
    first = simulate_counts(SINGLET, 1000, 11)
    second = simulate_counts(SINGLET, 1000, 11)
    for a, b in zip(first, second):
        assert a.setting == b.setting
        assert a.counts == b.counts


def test_simulate_counts_singlet_zz_anticorrelation():
    records = simulate_counts(SINGLET, 5000, 3)
    by_setting = {record.setting: record for record in records}
    zz = by_setting[MeasurementSetting(spin_observable="Z", path_observable="Z")]
    assert zz.counts[0] == 0
    assert zz.counts[3] == 0
    assert zz.counts[1] + zz.counts[2] == 5000


def test_simulate_counts_binomial_concentration():
    shots = 10**6
    bound = 5.0 * np.sqrt(shots * 0.25 * 0.75)
    for record in simulate_counts(maximally_mixed(), shots, 19):
        for count in record.counts:
            assert abs(count - shots / 4.0) <= bound


def test_simulate_counts_rejects_bad_shots():
    with pytest.raises(ValueError):
        simulate_counts(SINGLET, 0, 1)
    with pytest.raises(ValueError):
        simulate_counts(SINGLET, -5, 1)


def test_exact_records_carry_probabilities():
    records = exact_records(SINGLET)
    assert len(records) == 9
    for record in records:
        assert record.shots == 0
        assert abs(sum(record.counts) - 1.0) < 1e-12
        expected = outcome_probabilities(SINGLET, record.setting)
        assert np.abs(record.frequencies() - expected).max() < 1e-15


def test_reconstruct_exact_singlet():
    result = reconstruct_linear(exact_records(SINGLET))
    assert np.linalg.norm(result.estimate - SINGLET) <= 1e-10
    assert result.frobenius_residual <= 1e-10


def test_reconstruct_exact_decohered_state():
    target = evolve(SINGLET, DecoherenceSpec(mode="B", lam=1.0), 1.0)
    result = reconstruct_linear(exact_records(target))
    assert np.linalg.norm(result.estimate - target) <= 1e-10


def test_reconstruct_finite_shots_pinned():
    records = simulate_counts(SINGLET, 10**4, 7)
    result = reconstruct_linear(records)
    assert np.linalg.norm(result.estimate - SINGLET) <= 0.1


def test_reconstruct_round_trip_many_random_states():
    rng = np.random.default_rng(67)
    for _ in range(500):
        rho = random_state(rng)
        result = reconstruct_linear(exact_records(rho))
        assert np.linalg.norm(result.estimate - rho) <= 1e-9


def test_reconstruct_requires_all_settings():
    records = exact_records(SINGLET)
    with pytest.raises(ValueError):
        reconstruct_linear(records[:8])
    duplicated = records[:8] + [records[0]]
    with pytest.raises(ValueError):
        reconstruct_linear(duplicated)


def test_estimator_error_median_decreases_with_shots():
    rng = np.random.default_rng(71)
    targets = [random_state(rng) for _ in range(20)]
    medians = []
    for power, shots in enumerate((10**2, 10**3, 10**4, 10**5)):
        errors = []
        for index, target in enumerate(targets):
            records = simulate_counts(target, shots, 1000 * power + index)
            result = reconstruct_linear(records)
            errors.append(np.linalg.norm(result.estimate - target))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_project_psd_fixes_valid_state():
    rng = np.random.default_rng(73)
    rho = random_state(rng)
    assert np.abs(project_psd(rho) - rho).max() < 1e-12


def test_project_psd_clips_and_renormalizes():
    raw = np.diag([1.1, 0.1, -0.1, -0.1]).astype(complex)
    expected = np.diag([1.1, 0.1, 0.0, 0.0]) / 1.2
    assert np.abs(project_psd(raw) - expected).max() < 1e-12


def test_project_psd_rejects_degenerate_input():
    with pytest.raises((ValueError, np.linalg.LinAlgError)):
        project_psd(np.diag([0.0, 0.0, -0.5, -0.5]).astype(complex))


def test_project_psd_idempotent():
    rng = np.random.default_rng(79)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise = 0.05 * (noise + noise.conj().T)
    raw = SINGLET + noise - np.trace(noise).real * np.eye(4) / 4.0
    once = project_psd(raw)
    twice = project_psd(once)
    assert np.abs(twice - once).max() < 1e-12


def test_project_psd_never_moves_away_from_targets():
    # Linear inversion always returns a unit-trace Hermitian matrix, so the
    # relevant noise is traceless Hermitian; for that noise the projection
    # cannot increase the distance to any state it approximates.
    rng = np.random.default_rng(83)
    for _ in range(100):
        target = random_state(rng)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = noise + noise.conj().T
        noise -= np.trace(noise).real * np.eye(4) / 4.0
        raw = target + 0.2 * noise
        projected = project_psd(raw)
        assert (
            np.linalg.norm(projected - target)
            <= np.linalg.norm(raw - target) + 1e-9
        )


def test_count_record_validation():
    setting = ALL_SETTINGS[0]
    CountRecord(setting=setting, counts=(1, 2, 3, 4), shots=10)
    with pytest.raises(ValueError):
        CountRecord(setting=setting, counts=(1, 2, 3, 4), shots=11)
    with pytest.raises(ValueError):
        CountRecord(setting=setting, counts=(-1, 2, 3, 6), shots=10)
    with pytest.raises(ValueError):
        CountRecord(setting=setting, counts=(0.3, 0.3, 0.3, 0.3), shots=0)


def test_reconstruct_rejects_invalid_probability_input():
    bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises((StateValidationError, ValueError)):
        exact_records(bad)


def test_counts_json_round_trip():
    records = simulate_counts(SINGLET, 100, 5)
    payload = counts_to_json(records)
    assert [(item["spin"], item["path"]) for item in payload] == [
        (s.spin_observable, s.path_observable) for s in ALL_SETTINGS
    ]
    for item, record in zip(payload, records):
        assert item.keys() == {"spin", "path", "counts", "shots"}
        assert item["counts"] == list(record.counts)
        assert sum(item["counts"]) == item["shots"] == 100


def pauli_sum_inversion(records):
    """Pauli-sum linear inversion, the reference for the Born-matrix pseudo-inverse.

    raw = 1/4 (1 + sum <s_i> s_i(x)1 + sum <p_j> 1(x)p_j + sum <s_i p_j> s_i(x)p_j),
    correlators from their own setting, single-qubit expectations averaged
    over the three settings that share the observable.
    """
    paulis = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    spin_signs = np.array([1.0, 1.0, -1.0, -1.0])
    path_signs = np.array([1.0, -1.0, 1.0, -1.0])
    raw = ID4.copy()
    for record in records:
        s, p = record.setting.spin_observable, record.setting.path_observable
        freq = record.frequencies()
        raw += float(freq @ (spin_signs * path_signs)) * spin_path(paulis[s], paulis[p])
        raw += float(freq @ spin_signs) / 3.0 * spin_path(paulis[s], ID2)
        raw += float(freq @ path_signs) / 3.0 * spin_path(ID2, paulis[p])
    return raw / 4.0


def test_reconstruct_linear_equals_pauli_sum_inversion():
    rng = np.random.default_rng(89)
    for i in range(200):
        rho = random_state(rng)
        records = exact_records(rho) if i % 4 == 0 else simulate_counts(rho, 10 ** (i % 4), i)
        raw = pauli_sum_inversion(records)
        expected = project_psd(raw)
        result = reconstruct_linear(records)
        assert np.abs(result.estimate - expected).max() <= 1e-14
        assert abs(result.frobenius_residual - np.linalg.norm(raw - expected)) <= 1e-14
