import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state
from spinpath import cli, lindblad
from spinpath.measures import (
    _CONCURRENCE_MAX,
    _MIXEDNESS_MAX,
    _PATH_TRANSPOSE,
    MeasureReport,
    _factor,
    _roots,
    _separable,
    concurrence,
    concurrence_bell_diagonal,
    measure_report,
    mixedness,
)
from spinpath.pauli import SIGMA_Y
from spinpath.states import (
    EIGENVALUE_FLOOR,
    TRACE_TOL,
    StateValidationError,
    bell_diagonal,
    bell_state,
    experiment_initial,
    from_pure,
    maximally_mixed,
    validate_density_matrix,
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_singlet_is_pure_and_maximally_entangled():
    rho = experiment_initial()
    assert abs(mixedness(rho) - 1.0) < 1e-12
    assert abs(concurrence(rho) - 1.0) < 1e-12


def test_maximally_mixed_values():
    rho = maximally_mixed()
    assert abs(mixedness(rho) - 0.25) < 1e-12
    assert concurrence(rho) < 1e-12


def test_mixedness_equals_weight_square_sum():
    rho = bell_diagonal((0.4, 0.3, 0.2, 0.1))
    assert abs(mixedness(rho) - 0.30) < 1e-12


def test_concurrence_bell_diagonal_examples():
    assert abs(concurrence(bell_diagonal((0.7, 0.1, 0.1, 0.1))) - 0.4) < 1e-10
    assert abs(concurrence_bell_diagonal((0.0, 0.0, 0.0, 1.0)) - 1.0) < 1e-15
    assert concurrence_bell_diagonal((0.5, 0.5, 0.0, 0.0)) == 0.0
    assert abs(concurrence_bell_diagonal((0.6, 0.2, 0.1, 0.1)) - 0.2) < 1e-15


def test_concurrence_of_random_pure_states_to_machine_precision():
    # For a pure state C = 2|psi0 psi3 - psi1 psi2| (Wootters 1998).
    rng = np.random.default_rng(41)
    psi = rng.normal(size=(5000, 4)) + 1j * rng.normal(size=(5000, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    exact = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
    worst = max(
        abs(concurrence(np.outer(v, v.conj())) - c) for v, c in zip(psi, exact)
    )
    assert worst <= 1e-13


def test_product_state_has_zero_roots():
    rho = from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(_roots(validate_density_matrix(rho))).max() < 1e-9
    assert concurrence(rho) == 0.0


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        nu = rng.dirichlet(np.ones(4))
        rho = bell_diagonal(nu)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9


def test_mixedness_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u = random_unitary(rng, 4)
        assert abs(mixedness(u @ rho @ u.conj().T) - mixedness(rho)) < 1e-10


def test_shortcut_agrees_with_full_wootters():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        nu = rng.dirichlet(np.ones(4))
        full = concurrence(bell_diagonal(nu))
        shortcut = concurrence_bell_diagonal(nu)
        assert abs(full - shortcut) < 1e-9


def test_entanglement_threshold_at_half():
    rng = np.random.default_rng(37)
    for _ in range(200):
        nu = rng.dirichlet(np.ones(4))
        positive = concurrence(bell_diagonal(nu)) > 0.0
        assert positive == (max(nu) > 0.5 + 1e-12)
    # Boundary cases on both sides.
    assert concurrence(bell_diagonal((0.5, 0.5, 0.0, 0.0))) == 0.0
    eps = 1e-6
    above = (0.5 + eps, 0.5 - eps, 0.0, 0.0)
    assert concurrence(bell_diagonal(above)) > 0.0


def test_measure_report_fields_and_json():
    report = measure_report(experiment_initial())
    assert abs(report.mixedness - 1.0) < 1e-12
    assert abs(report.concurrence - 1.0) < 1e-12
    assert list(report.wootters_roots) == sorted(report.wootters_roots, reverse=True)
    payload = report.to_json()
    assert set(payload) == {"mixedness", "concurrence", "wootters_roots"}
    assert len(payload["wootters_roots"]) == 4
    assert type(payload["mixedness"]) is float and type(payload["concurrence"]) is float
    assert json.loads(json.dumps(payload)) == payload


def test_measure_report_json_of_a_stack_is_lists():
    stack = np.array([experiment_initial(), maximally_mixed(), bell_diagonal((0.7, 0.1, 0.1, 0.1))])
    report = measure_report(stack)
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["mixedness"] == report.mixedness.tolist()
    assert payload["concurrence"] == report.concurrence.tolist()
    assert payload["wootters_roots"] == report.wootters_roots.tolist()
    assert len(payload["wootters_roots"]) == 3 and all(len(roots) == 4 for roots in payload["wootters_roots"])


def test_measures_reject_invalid_state():
    with pytest.raises(ValueError):
        mixedness(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    stack = np.array([maximally_mixed()] * 5)
    stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(StateValidationError, match="^state 3: positivity"):
        measure_report(stack)


def test_measure_report_range_checks_cover_every_state():
    roots = np.array([[1.0, 0.0, 0.0, 0.0]] * 3)
    good = {"mixedness": np.ones(3), "concurrence": np.ones(3), "wootters_roots": roots}
    MeasureReport(**good)
    for field, index, value, message in (
        ("mixedness", 2, 0.2, "mixedness"),
        ("concurrence", 1, 1.1, "concurrence"),
        ("wootters_roots", 2, [0.0, 1.0, 0.0, 0.0], "wootters_roots"),
        ("wootters_roots", 2, [1.0, np.nan, 0.0, 0.0], "wootters_roots"),
        ("wootters_roots", 2, [1.0, 0.0, 0.0, -1e-3], "wootters_roots"),
    ):
        fields = {name: array.copy() for name, array in good.items()}
        fields[field][index] = value
        with pytest.raises(ValueError, match=message):
            MeasureReport(**fields)
        with pytest.raises(ValueError, match=message):
            MeasureReport(**{name: array[index] for name, array in fields.items()})
    for roots in (0.5, [1.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="wootters_roots"):
            MeasureReport(mixedness=1.0, concurrence=1.0, wootters_roots=roots)


def random_states(rng, count):
    """Random density matrices of ranks 1..4 from Ginibre draws."""
    return np.array([ginibre_state(rng, 1 + i % 4) for i in range(count)])


def near_pure_state(rng, epsilon):
    """(1 - epsilon) |psi><psi| + epsilon sigma for a random pure psi and full-rank sigma."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = (1.0 - epsilon) * np.outer(psi, psi.conj()) + epsilon * ginibre_state(rng, 4)
    return (rho + rho.conj().T) / 2.0


def spectral_state(rng, eigenvalues):
    """U diag(eigenvalues) U^dagger for a random unitary U."""
    u = random_unitary(rng, 4)
    rho = (u * eigenvalues) @ u.conj().T
    return (rho + rho.conj().T) / 2.0


def eigh_factor_roots(rho):
    """The Wootters roots through the clipped-eigh factor W = V sqrt(lambda): the reference route."""
    eigenvalues, vectors = np.linalg.eigh(rho)
    w = vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))[..., None, :]
    tau = w.swapaxes(-2, -1) @ np.kron(SIGMA_Y, SIGMA_Y) @ w
    return np.linalg.svd(tau, compute_uv=False)


SEEDS = st.integers(0, 2**32 - 1)
# Random rank 1-4 states; Bell-diagonal states (zero weights make them
# rank-deficient); near-pure mixtures with epsilon log-uniform in
# [1e-16, 1e-2], whose det ~ epsilon^3 straddles the det floor 1e-12; and
# valid states with two eigenvalues in [-0.99e-9, 0), which the rounding of
# U diag U^dagger keeps above the eigenvalue floor -1e-9.
PROPERTY_STATES = st.one_of(
    st.builds(lambda seed, rank: ginibre_state(np.random.default_rng(seed), rank), SEEDS, st.integers(1, 4)),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: bell_diagonal(np.array(w) / sum(w))),
    st.builds(
        lambda seed, exponent: near_pure_state(np.random.default_rng(seed), 10.0**exponent),
        SEEDS,
        st.floats(-16.0, -2.0),
    ),
    st.builds(
        lambda seed, split, negative: spectral_state(
            np.random.default_rng(seed),
            np.array([split * (1.0 - sum(negative)), (1.0 - split) * (1.0 - sum(negative)), *negative]),
        ),
        SEEDS,
        st.floats(0.0, 1.0),
        st.tuples(*[st.floats(-0.99e-9, 0.0, exclude_max=True)] * 2),
    ),
)


@settings(max_examples=400, deadline=None)
@given(rho=PROPERTY_STATES)
def test_wootters_roots_match_the_eigh_factor_route(rho):
    assert np.abs(_roots(validate_density_matrix(rho)) - eigh_factor_roots(rho)).max() <= 1e-14


def yy_product_roots(rho):
    """The singular values of W^T @ kron(sy, sy) @ W, two products, for the factor W _roots takes."""
    w = _factor(validate_density_matrix(rho))
    return np.linalg.svd(w.swapaxes(-2, -1) @ np.kron(SIGMA_Y, SIGMA_Y) @ w, compute_uv=False)


@settings(max_examples=300, deadline=None)
@given(
    rho=PROPERTY_STATES
    | st.builds(lambda seed, count: random_states(np.random.default_rng(seed), count), SEEDS, st.integers(1, 300))
    | st.just(np.zeros((0, 4, 4), dtype=complex))
)
def test_wootters_roots_take_tau_bit_for_bit_as_the_sy_sy_product(rho):
    # The anti-diagonal sy (x) sy enters as a signed row reversal of W.
    roots = _roots(validate_density_matrix(rho))
    assert roots.shape == rho.shape[:-2] + (4,)
    assert roots.tobytes() == yy_product_roots(rho).tobytes()


def test_wootters_roots_run_eigh_only_below_the_det_floor(monkeypatch):
    rng = np.random.default_rng(47)
    stack = np.array([experiment_initial(), ginibre_state(rng, 4), ginibre_state(rng, 2), maximally_mixed()])
    eigh, seen = np.linalg.eigh, []

    def counting_eigh(a, *args, **kwargs):
        seen.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _roots(validate_density_matrix(stack[[1, 3]]))
    _roots(validate_density_matrix(stack[1]))
    assert seen == []
    _roots(validate_density_matrix(stack))
    assert seen == [2]


def test_measure_report_stack_equals_per_state_reports():
    rng = np.random.default_rng(43)
    # Ranks 1-4 and near-pure states on both sides of the det floor, so one
    # stack takes both the Cholesky and the eigh factor.
    rho = np.concatenate([random_states(rng, 64), [near_pure_state(rng, 10.0**e) for e in range(-8, 0)]])
    dets = np.linalg.det(rho).real
    assert (dets > 1e-12).sum() > 16 and (dets <= 1e-12).sum() > 48
    report = measure_report(rho)
    assert report.mixedness.shape == report.concurrence.shape == (72,)
    assert report.wootters_roots.shape == (72, 4)
    for i, state in enumerate(rho):
        single = measure_report(state)
        assert abs(report.mixedness[i] - single.mixedness) <= 1e-15
        assert abs(report.concurrence[i] - single.concurrence) <= 1e-15
        assert np.abs(report.wootters_roots[i] - single.wootters_roots).max() <= 1e-15
    assert np.abs(_roots(validate_density_matrix(rho)) - report.wootters_roots).max() == 0.0


def pure_plus_noise_across_the_boundary(seed, exponent):
    """p |psi><psi| + (1 - p) sigma for a random pure psi and a separable noise
    sigma (a mixture of six random product states), at 201 weights p spaced
    10**exponent around the weight where det(rho^Gamma) changes sign (found
    by bisection)."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    products = [np.kron(*(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))) for _ in range(6)]
    noise = sum(np.outer(v, v.conj()) * rng.uniform(0.1, 1.0) for v in products)
    pure, noise = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, noise / np.trace(noise).real

    def mix(p):
        rho = p[:, None, None] * pure + (1.0 - p[:, None, None]) * noise
        return (rho + rho.conj().swapaxes(-2, -1)) / 2.0

    def det_gamma(p):
        return np.linalg.det(explicit_partial_transpose(mix(np.array([p]))))[0].real

    low, high = 0.0, 1.0
    if det_gamma(low) <= 0.0 or det_gamma(high) >= 0.0:
        return mix(np.linspace(0.0, 1.0, 201))
    for _ in range(60):
        middle = (low + high) / 2.0
        low, high = (middle, high) if det_gamma(middle) > 0.0 else (low, middle)
    return mix(np.clip(low + 10.0**exponent * np.arange(-100, 101), 0.0, 1.0))


def explicit_partial_transpose(rho):
    """rho^Gamma with the path indices p, p' of rho[(s, p), (s', p')] swapped."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(rho.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(rho.shape)


@settings(max_examples=300, deadline=None)
@given(
    rho=PROPERTY_STATES
    | st.builds(lambda seed, count: random_states(np.random.default_rng(seed), count), SEEDS, st.integers(1, 300))
    | st.builds(pure_plus_noise_across_the_boundary, SEEDS, st.floats(-15.0, -3.0))
)
def test_a_certified_state_has_concurrence_zero_on_both_routes(rho):
    # det(rho^Gamma) > 1e-12 certifies separability; the Wootters roots agree
    # exactly, and the roots-free kernel matches measure_report bit for bit.
    rho = validate_density_matrix(rho)
    gathered = rho.reshape(rho.shape[:-2] + (16,))[..., _PATH_TRANSPOSE].reshape(rho.shape)
    assert np.array_equal(gathered, explicit_partial_transpose(rho))
    certified = _separable(rho)
    mu = _roots(validate_density_matrix(rho))
    excess = np.maximum(0.0, mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])
    assert (excess[certified] == 0.0).all()
    report = measure_report(rho)
    assert np.asarray(concurrence(rho)).tobytes() == np.asarray(report.concurrence).tobytes()
    assert np.asarray(mixedness(rho)).tobytes() == np.asarray(report.mixedness).tobytes()


# Valid states whose measures exceed 1 + 1e-9: eigenvalues 1 + 1.968e-9, 0, -0.978e-9 and
# -0.99e-9 (mixedness 1 + 3.9e-9), and the Bell-diagonal state with singlet weight 1 + 2.97e-9
# and -0.99e-9 on each other Bell state (mixedness 1 + 5.94e-9, concurrence 1 + 2.97e-9).
BOUND_REPROS = (
    spectral_state(np.random.default_rng(0), np.array([1.0 + 1.968e-9, 0.0, -9.78e-10, -9.9e-10])),
    sum(nu * from_pure(bell_state(i)) for i, nu in ((1, -0.99e-9), (2, -0.99e-9), (3, -0.99e-9), (4, 1.0 + 2.97e-9))),
)


def floor_state(seed, others, trace):
    """A state of trace ``trace`` with three eigenvalues ``others``, each in [floor, 0) or [0, 1/3]."""
    return spectral_state(np.random.default_rng(seed), np.array([trace - sum(others), *others]))


@settings(max_examples=300, deadline=None)
@given(
    rho=st.builds(lambda seed, rank: ginibre_state(np.random.default_rng(seed), rank), SEEDS, st.integers(1, 4))
    | st.builds(
        floor_state,
        SEEDS,
        st.tuples(*[st.floats(EIGENVALUE_FLOOR, 0.0, exclude_max=True) | st.floats(0.0, 1.0 / 3.0)] * 3),
        st.floats(1.0 - TRACE_TOL, 1.0 + TRACE_TOL),
    )
)
@example(rho=BOUND_REPROS[0])
@example(rho=BOUND_REPROS[1])
def test_every_valid_state_has_measures_within_the_derived_bounds(rho):
    # The upper bounds follow from the eigenvalue floor and the trace tolerance,
    # so no state that validation accepts fails the measures' range checks.
    try:
        rho = validate_density_matrix(rho)
    except StateValidationError:
        assume(False)
    report = measure_report(rho)
    for value in (report.mixedness, mixedness(rho)):
        assert 0.25 - 1e-9 <= value <= _MIXEDNESS_MAX
    for value in (report.concurrence, concurrence(rho)):
        assert -1e-12 <= value <= _CONCURRENCE_MAX
    assert 6.0e-9 < _MIXEDNESS_MAX - 1.0 < 6.01e-9 and 3.0e-9 < _CONCURRENCE_MAX - 1.0 < 3.01e-9


def test_sweep_runs_the_svd_only_on_states_left_uncertified(monkeypatch):
    svd, seen = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        seen.append(len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    argv = ["sweep", "--mode", "B", "--lambda", "1", "--time", "3", "--steps", "600"]
    assert cli.main([*argv, "--initial", "maximally-mixed"]) == 0
    assert seen == []
    assert cli.main(argv) == 0
    times = np.linspace(0.0, 3.0, 600)
    spec = lindblad.DecoherenceSpec("B", 1.0)
    open_ = ~_separable(lindblad.evolve(experiment_initial(), spec, times))
    per_block = [int(open_[start:start + 256].sum()) for start in range(0, 600, 256)]
    assert seen == [count for count in per_block if count]
    assert 0 < open_.sum() < 600 and (times[open_] <= np.log(3.0)).all()
