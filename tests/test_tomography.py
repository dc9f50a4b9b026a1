import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state, hermitian_ginibre_state
from spinpath.interferometer import (
    FieldSetup,
    _element_mean_monte_carlo,
    ensemble_average_monte_carlo,
    lambda_from_sigma,
)
from spinpath.kraus import kraus_set_for_mode, lindblad_generators_from_kraus, trotter_evolve
from spinpath.lindblad import DecoherenceSpec, SystemHamiltonian, evolve, integrate_master, projectors_for_mode
from spinpath.pauli import ID2, ID4, SIGMA_X, SIGMA_Y, SIGMA_Z, from_pauli, spin_path, to_pauli
from spinpath.states import StateValidationError, bell_diagonal, from_pure, maximally_mixed
from spinpath.tomography import (
    _ESTIMATOR,
    _SIGNS,
    ALL_SETTINGS,
    counts_to_json,
    exact_records,
    project_psd,
    reconstruct_linear,
    simulate_counts,
)

SINGLET = from_pure(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


def test_settings_enumeration():
    assert ALL_SETTINGS == tuple((s, p) for s in "XYZ" for p in "XYZ")


def test_probabilities_maximally_mixed():
    probs = exact_records(maximally_mixed())
    assert probs.shape == (9, 4)
    assert np.abs(probs - 0.25).max() < 1e-12


@pytest.mark.parametrize("observable", ["Z", "X"])
def test_probabilities_singlet_anticorrelated(observable):
    probs = exact_records(SINGLET)[ALL_SETTINGS.index((observable, observable))]
    assert np.abs(probs - np.array([0.0, 0.5, 0.5, 0.0])).max() < 1e-12


def test_probabilities_normalized_on_random_states():
    rng = np.random.default_rng(61)
    for _ in range(20):
        probs = exact_records(ginibre_state(rng))
        assert probs.min() >= 0.0
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_simulate_counts_deterministic():
    first = simulate_counts(SINGLET, 1000, 11)
    second = simulate_counts(SINGLET, 1000, 11)
    assert first.shape == (9, 4)
    assert np.issubdtype(first.dtype, np.integer)
    assert np.array_equal(first, second)
    # The counts law: one generator seeded with the seed draws the whole Born
    # table in one multinomial call, row by row in ALL_SETTINGS order.
    rng = np.random.default_rng(29)
    for rank in (1, 2, 3, 4):
        rho = hermitian_ginibre_state(rng, rank)
        for seed in (0, 7, 2**32 + 5):
            for shots in (1, 100, 10**6, 2**63 - 1):
                expected = np.random.default_rng(seed).multinomial(shots, exact_records(rho))
                assert np.array_equal(simulate_counts(rho, shots, seed), expected)


def test_simulate_counts_singlet_zz_anticorrelation():
    zz = simulate_counts(SINGLET, 5000, 3)[ALL_SETTINGS.index(("Z", "Z"))]
    assert zz[0] == 0
    assert zz[3] == 0
    assert zz[1] + zz[2] == 5000


def test_simulate_counts_binomial_concentration():
    shots = 10**6
    bound = 5.0 * np.sqrt(shots * 0.25 * 0.75)
    counts = simulate_counts(maximally_mixed(), shots, 19)
    assert np.abs(counts - shots / 4.0).max() <= bound


def test_simulate_counts_rejects_bad_shots():
    with pytest.raises(ValueError):
        simulate_counts(SINGLET, 0, 1)
    with pytest.raises(ValueError):
        simulate_counts(SINGLET, -5, 1)
    limit = np.iinfo(np.int64).max
    for shots in (limit + 1, 2**70, np.uint64(limit) + np.uint64(1)):
        with pytest.raises(ValueError, match=f"shots {shots} exceeds the limit of {limit}"):
            simulate_counts(SINGLET, shots, 1)
    assert (simulate_counts(SINGLET, limit, 1).sum(axis=1) == limit).all()


COUNT_VALUES = (4, np.int64(4))
REAL_VALUES = (1, np.int64(1), np.float64(0.5), np.array(0.5))
SPEC, SETUP = DecoherenceSpec("A", 1.0), FieldSetup("A", 1.0)
# Every argument bound an entry point checks, each as one call taking the value:
# (call, the bound's message up to ", got", an out-of-range value, values it accepts).
# A signed bound (out-of-range value None) checks the type only; its caller checks the range.
ARGUMENT_BOUNDS = {
    "shots": (lambda v: simulate_counts(SINGLET, v, 1),
              "shots must be a positive integer", 0, COUNT_VALUES),
    "counts-seed": (lambda v: simulate_counts(SINGLET, 10, v),
                    "seed must be a nonnegative integer", -1, COUNT_VALUES),
    "trotter-n": (lambda v: trotter_evolve(SINGLET, "A", 1.0, 1.0, v),
                  "step count must be a positive integer", 0, COUNT_VALUES),
    "samples": (lambda v: ensemble_average_monte_carlo(SINGLET, SETUP, v, 0),
                "samples must be an integer of at least 2", 1, COUNT_VALUES),
    "monte-carlo-seed": (lambda v: ensemble_average_monte_carlo(SINGLET, SETUP, 10, v),
                         "seed must be a nonnegative integer", -1, COUNT_VALUES),
    "mean-samples": (lambda v: _element_mean_monte_carlo(SINGLET, SETUP, v, 0, (1, 2)),
                     "samples must be an integer of at least 2", 1, COUNT_VALUES),
    "mean-seed": (lambda v: _element_mean_monte_carlo(SINGLET, SETUP, 10, v, (1, 2)),
                  "seed must be a nonnegative integer", -1, COUNT_VALUES),
    "spec-lam": (lambda v: DecoherenceSpec("A", v),
                 "coupling strength must be finite and nonnegative", -1.0, REAL_VALUES),
    "sigma": (lambda v: FieldSetup("A", v),
              "sigma must be finite and nonnegative", -1.0, REAL_VALUES),
    "evolve-t": (lambda v: evolve(SINGLET, SPEC, v),
                 "time must be finite and nonnegative", -1.0, REAL_VALUES),
    "master-t": (lambda v: integrate_master(SINGLET, projectors_for_mode("A"), SPEC, v),
                 "time must be finite and nonnegative", -1.0, REAL_VALUES),
    "master-dt": (lambda v: integrate_master(SINGLET, projectors_for_mode("A"), SPEC, 0.01, v),
                  "step size dt must be finite and positive", 0.0, REAL_VALUES),
    "trotter-lam": (lambda v: trotter_evolve(SINGLET, "A", v, 1.0, 4),
                    "coupling strength must be finite and nonnegative", -1.0, REAL_VALUES),
    "trotter-t": (lambda v: trotter_evolve(SINGLET, "A", 1.0, v, 4),
                  "time must be finite and nonnegative", -1.0, REAL_VALUES),
    "dwell-time": (lambda v: lambda_from_sigma(SETUP, v),
                   "dwell_time must be finite and positive", 0.0, REAL_VALUES),
    "kraus-weight": (lambda v: kraus_set_for_mode("A", v),
                     "step weight must be finite and nonnegative", -1.0, REAL_VALUES),
    "generator-dt": (lambda v: lindblad_generators_from_kraus(kraus_set_for_mode("A", 0.01), v),
                     "step duration dt must be finite and positive", 0.0, REAL_VALUES),
    "energy": (lambda v: SystemHamiltonian((0.0, v, 0.0, 0.0)),
               "energy must be a real number", None, (-1, np.int64(-1), np.float64(-0.5), np.array(0.5))),
    "bell-weight": (lambda v: bell_diagonal((0.5, 0.5, v, 0.0)),
                    "weight must be a real number", None, (0, np.int64(0), -1e-13, np.array(0.0))),
}


@pytest.mark.parametrize("call, bound, outside, good", ARGUMENT_BOUNDS.values(), ids=ARGUMENT_BOUNDS.keys())
def test_integer_counts_and_seeds_reject_bool(call, bound, outside, good):
    # One check per bound: True must not pass as one shot, one step, seed 1 or
    # lam = 1, and no bool, str, complex, sequence, nan or inf passes either; each
    # fails with the bound's own message, a ragged sequence too.  evolve takes a
    # 1-d array of times, so its sequences are ones of bool and of complex.
    sequences = ([True], np.array([1j])) if call is ARGUMENT_BOUNDS["evolve-t"][0] else ([1.0], np.array([1.0]))
    bad = (True, np.True_, "1", 1j, *sequences, [1.0, [2.0]])
    if outside is not None:
        bad += (np.nan, np.inf, outside)
    messages = []
    for value in bad:
        try:
            call(value)
        except ValueError as exc:
            messages.append(str(exc))
        else:
            messages.append(None)
    assert messages == [f"{bound}, got {value!r}" for value in bad]
    for value in good:
        call(value)


def test_exact_records_carry_probabilities():
    # Row i holds the Born probabilities Tr(rho P) of setting i's outcome projectors.
    probs = exact_records(SINGLET)
    assert probs.shape == (9, 4)
    paulis = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    for (spin, path), row in zip(ALL_SETTINGS, probs):
        s, p = paulis[spin], paulis[path]
        expected = [
            np.trace(SINGLET @ spin_path((ID2 + a * s) / 2.0, (ID2 + b * p) / 2.0)).real
            for a, b in signs
        ]
        assert np.abs(row - expected).max() < 1e-15


def test_reconstruct_exact_singlet():
    result = reconstruct_linear(exact_records(SINGLET))
    assert np.linalg.norm(result.estimate - SINGLET) <= 1e-10
    assert result.frobenius_residual <= 1e-10


def test_reconstruct_exact_decohered_state():
    target = evolve(SINGLET, DecoherenceSpec(mode="B", lam=1.0), 1.0)
    result = reconstruct_linear(exact_records(target))
    assert np.linalg.norm(result.estimate - target) <= 1e-10


def test_reconstruct_finite_shots_pinned():
    result = reconstruct_linear(simulate_counts(SINGLET, 10**4, 7))
    assert np.linalg.norm(result.estimate - SINGLET) <= 0.1


def test_reconstruct_round_trip_many_random_states():
    rng = np.random.default_rng(67)
    for _ in range(500):
        rho = ginibre_state(rng)
        result = reconstruct_linear(exact_records(rho))
        assert np.linalg.norm(result.estimate - rho) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_exact_round_trip_over_random_rank_states(seed, rank):
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    result = reconstruct_linear(exact_records(rho))
    assert np.linalg.norm(result.estimate - rho) <= 1e-9


def test_reconstruct_requires_all_settings():
    # One row per setting in ALL_SETTINGS order: a missing or an extra row is a shape error.
    probs = exact_records(SINGLET)
    for bad in (probs[:8], np.vstack([probs, probs[:1]]), probs.T, probs.reshape(36)):
        with pytest.raises(ValueError, match=r"expected a \(9, 4\) array"):
            reconstruct_linear(bad)


def test_estimator_error_median_decreases_with_shots():
    rng = np.random.default_rng(71)
    targets = [ginibre_state(rng) for _ in range(20)]
    medians = []
    for power, shots in enumerate((10**2, 10**3, 10**4, 10**5)):
        errors = []
        for index, target in enumerate(targets):
            result = reconstruct_linear(simulate_counts(target, shots, 1000 * power + index))
            errors.append(np.linalg.norm(result.estimate - target))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_project_psd_fixes_valid_state():
    rng = np.random.default_rng(73)
    rho = ginibre_state(rng)
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
        target = ginibre_state(rng)
        noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noise = noise + noise.conj().T
        noise -= np.trace(noise).real * np.eye(4) / 4.0
        raw = target + 0.2 * noise
        projected = project_psd(raw)
        assert (
            np.linalg.norm(projected - target)
            <= np.linalg.norm(raw - target) + 1e-9
        )


def with_entry(array, value, i=4, k=2):
    """Copy of ``array`` as floats with entry (i, k) set to ``value``."""
    out = np.array(array, dtype=float)
    out[i, k] = value
    return out


def test_count_array_validation():
    counts = np.tile([1, 2, 3, 4], (9, 1))
    probs = exact_records(SINGLET)
    # Accepted: integer counts sharing one row total, the same counts as
    # whole-valued floats, and probability rows.
    for good in (counts, counts.astype(float), probs, probs.tolist()):
        reconstruct_linear(good)
    unequal = counts.copy()
    unequal[3] = (1, 2, 3, 5)
    bad_cases = [
        (with_entry(counts, -1.0), "must be nonnegative"),
        (with_entry(probs, -0.25), "must be nonnegative"),
        (with_entry(probs, np.nan), "nan or inf"),
        (with_entry(counts, np.inf), "nan or inf"),
        (with_entry(counts, 2.5), r"entry \(4, 2\) = 2.5 is not an integer"),
        (unequal, "must share one positive total"),
        (np.zeros((9, 4), dtype=int), "must share one positive total"),
        (np.full((9, 4), 0.3), r"probability rows summing to 1 .* sums to 1.2"),
        (with_entry(probs, probs[4, 2] + 2e-9), r"row 4 sums to 1.000000002"),
        (counts.astype(complex), "must be real numbers"),
    ]
    for bad, message in bad_cases:
        with pytest.raises(ValueError, match=message):
            reconstruct_linear(bad)


def test_reconstruct_rejects_invalid_probability_input():
    bad = np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises((StateValidationError, ValueError)):
        exact_records(bad)


def test_counts_json_round_trip():
    counts = simulate_counts(SINGLET, 100, 5)
    payload = counts_to_json(counts, 100)
    assert [(item["spin"], item["path"]) for item in payload] == list(ALL_SETTINGS)
    for item, row in zip(payload, counts):
        assert item.keys() == {"spin", "path", "counts", "shots"}
        assert item["counts"] == row.tolist()
        assert all(type(c) is int for c in item["counts"])
        assert sum(item["counts"]) == item["shots"] == 100
    exact = counts_to_json(exact_records(SINGLET), 0)
    assert all(item["shots"] == 0 and type(item["counts"][0]) is float for item in exact)


def pauli_sum_inversion(counts):
    """Pauli-sum linear inversion, the reference for the Born-matrix pseudo-inverse.

    raw = 1/4 (1 + sum <s_i> s_i(x)1 + sum <p_j> 1(x)p_j + sum <s_i p_j> s_i(x)p_j),
    correlators from their own setting, single-qubit expectations averaged
    over the three settings that share the observable.
    """
    paulis = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    spin_signs = np.array([1.0, 1.0, -1.0, -1.0])
    path_signs = np.array([1.0, -1.0, 1.0, -1.0])
    raw = ID4.copy()
    freqs = counts / counts.sum(axis=1, keepdims=True)
    for (s, p), freq in zip(ALL_SETTINGS, freqs):
        raw += float(freq @ (spin_signs * path_signs)) * spin_path(paulis[s], paulis[p])
        raw += float(freq @ spin_signs) / 3.0 * spin_path(paulis[s], ID2)
        raw += float(freq @ path_signs) / 3.0 * spin_path(ID2, paulis[p])
    return raw / 4.0


def test_reconstruct_linear_equals_pauli_sum_inversion():
    rng = np.random.default_rng(89)
    for i in range(200):
        rho = ginibre_state(rng)
        counts = exact_records(rho) if i % 4 == 0 else simulate_counts(rho, 10 ** (i % 4), i)
        raw = pauli_sum_inversion(counts)
        expected = project_psd(raw)
        result = reconstruct_linear(counts)
        assert np.abs(result.estimate - expected).max() <= 1e-14
        assert abs(result.frobenius_residual - np.linalg.norm(raw - expected)) <= 1e-14


def born_matrix():
    """The 36x16 Born matrix: row 4i + k is the conjugated, vectorized projector of outcome k of setting i."""
    paulis = {"X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
    signs = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    return np.array([
        spin_path((ID2 + a * paulis[s]) / 2.0, (ID2 + b * paulis[p]) / 2.0).conj().reshape(16)
        for s, p in ALL_SETTINGS
        for a, b in signs
    ])


def test_sign_table_and_its_transpose_match_the_born_matrix_and_its_pseudo_inverse():
    # The real sign table acts on Pauli coordinates as the Born matrix acts on
    # vec(rho), and its scaled transpose is the Born matrix's pseudo-inverse.
    born = born_matrix()
    inverse = np.linalg.pinv(born)
    assert np.abs(from_pauli(_ESTIMATOR.T) - inverse.T.reshape(36, 4, 4)).max() <= 1e-15
    rng = np.random.default_rng(97)
    for i in range(400):
        rho = ginibre_state(rng, 1 + i % 4)
        assert np.abs(_SIGNS @ to_pauli(rho) - (born @ rho.reshape(16)).real).max() <= 1e-15
        counts = simulate_counts(rho, 10 ** (1 + i % 5), i) if i % 2 else exact_records(rho)
        freqs = (counts / counts.sum(axis=1, keepdims=True)).reshape(36)
        raw = (inverse @ freqs).reshape(4, 4)
        result = reconstruct_linear(counts)
        assert np.abs(result.estimate - project_psd(raw)).max() <= 4e-15
