import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpath import lindblad, superop
from spinpath.interferometer import (
    _LAYOUTS,
    FieldSetup,
    _mean_state,
    _shot_coefficients,
    _shot_table,
    ensemble_average_analytic,
)
from spinpath.kraus import MAX_WEIGHT, kraus_set_for_mode
from spinpath.lindblad import DecoherenceSpec, SystemHamiltonian, evolve, projectors_for_mode
from spinpath.pauli import spin_path
from spinpath.states import experiment_initial

# The 16 matrix units E_cd, unit 4c + d, the inputs that fix a linear map.
MATRIX_UNITS = np.eye(16, dtype=complex).reshape(16, 4, 4)


def random_matrix(rng):
    return rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))


def random_hermitian(rng):
    a = random_matrix(rng)
    return (a + a.conj().T) / 2.0


def test_sandwich_matches_matrix_products():
    rng = np.random.default_rng(51)
    left, right, x = random_matrix(rng), random_matrix(rng), random_matrix(rng)
    expected = left @ x @ right.conj().T
    assert np.abs(superop.apply(superop.sandwich(left, right), x) - expected).max() < 1e-13


def test_sandwich_and_spin_path_equal_np_kron_exactly():
    rng = np.random.default_rng(50)
    for _ in range(500):
        left, right = random_matrix(rng), random_matrix(rng)
        assert np.array_equal(superop.sandwich(left, right), np.kron(left, np.conj(right)))
        spin, path = random_matrix(rng)[:2, :2], random_matrix(rng)[2:, 2:]
        assert np.array_equal(spin_path(spin, path), np.kron(spin, path))


def test_kraus_map_matches_operator_loop():
    rng = np.random.default_rng(52)
    ops = [random_matrix(rng) for _ in range(3)]
    x = random_matrix(rng)
    kraus_loop = sum(m @ x @ m.conj().T for m in ops)
    assert np.abs(superop.apply(superop.kraus_map(ops), x) - kraus_loop).max() < 1e-12


def test_liouvillian_matches_master_equation_rhs():
    rng = np.random.default_rng(53)
    h, rho = random_hermitian(rng), random_hermitian(rng)
    projectors = projectors_for_mode("B")
    lam = 0.7
    pinched = sum(p @ rho @ p for p in projectors)
    expected = -1j * (h @ rho - rho @ h) - lam * (rho - pinched)
    generator = superop.liouvillian(h, superop.kraus_map(projectors), lam)
    assert np.abs(superop.apply(generator, rho) - expected).max() < 1e-13


def test_rk4_step_matches_four_stage_update():
    rng = np.random.default_rng(54)
    h, rho = random_hermitian(rng), random_hermitian(rng)
    projectors = projectors_for_mode("B")
    generator = superop.liouvillian(h, superop.kraus_map(projectors), 1.3)

    def rhs(x):
        return superop.apply(generator, x)

    step = 0.05
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * step * k1)
    k3 = rhs(rho + 0.5 * step * k2)
    k4 = rhs(rho + step * k3)
    expected = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(superop.apply(superop.rk4_step(generator, step), rho) - expected).max() < 1e-13


def test_settle_keeps_a_settled_state_and_rejects_drift_beyond_budget():
    rng = np.random.default_rng(59)
    rho = random_hermitian(rng) + 2.0 * np.eye(4)
    trace = float(np.trace(rho).real)
    assert np.array_equal(superop.settle(rho, 1e-9, "route", trace), rho)
    drifted = rho * (1.0 + 1e-10)
    drifted[0, 1] += 1e-11
    settled = superop.settle(drifted, 1e-8, "route", trace)
    assert np.array_equal(settled, settled.conj().T)
    assert abs(np.trace(settled).real - trace) <= 1e-15 * trace
    with pytest.raises(np.linalg.LinAlgError, match=r"route drift exceeded budget 1\.0e-12"):
        superop.settle(drifted, 1e-12, "route", trace)


def test_choi_of_a_kraus_map_is_the_sum_of_its_operators_outer_products():
    # J = sum_cd E_cd (x) M E_cd M^dagger = sum_k v_k v_k^dagger with v_k[(c, a)] = M_k[a, c].
    rng = np.random.default_rng(60)
    ops = [random_matrix(rng) for _ in range(3)]
    vectors = [m.T.reshape(16) for m in ops]
    expected = sum(np.outer(v, v.conj()) for v in vectors)
    choi = superop.choi(superop.kraus_map(ops))
    assert np.abs(choi - expected).max() < 1e-13
    assert not choi.flags.writeable
    # The identity map's Choi matrix is the rank-one projector onto sum_c e_c (x) e_c, times 4.
    identity = np.eye(4).reshape(16)
    assert np.array_equal(superop.choi(superop.ID16), np.outer(identity, identity))


def map_of(images):
    """16x16 superoperator whose column 4c + d is vec of the image of E_cd."""
    return np.array(images).reshape(16, 16).T


def assert_cptp(superoperator, tol=1e-14):
    """lambda_min(J) >= -tol, and Tr Phi(E_cd) = delta_cd within tol."""
    assert np.linalg.eigvalsh(superop.choi(superoperator))[0] >= -tol
    traces = superoperator.reshape(4, 4, 16).trace(axis1=0, axis2=1)
    assert np.abs(traces - np.eye(4).reshape(16)).max() <= tol


ENERGIES = st.tuples(*[st.floats(-15.0, 15.0)] * 4)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from("AB"), energies=ENERGIES, lam=st.floats(0.01, 3.0), t=st.floats(0.0, 5.0))
def test_closed_form_map_is_cptp(mode, energies, lam, t):
    spec = DecoherenceSpec(mode, lam, SystemHamiltonian(energies))
    closed_form = map_of([lindblad._closed_form(unit, spec, np.asarray(t)) for unit in MATRIX_UNITS])
    assert_cptp(closed_form)
    rho = experiment_initial()
    assert np.abs(superop.apply(closed_form, rho) - evolve(rho, spec, t)).max() <= 1e-14


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from("AB"), weight=st.floats(0.0, MAX_WEIGHT))
def test_kraus_step_is_cptp_up_to_the_largest_weight(mode, weight):
    assert_cptp(superop.kraus_map(kraus_set_for_mode(mode, weight)))


@settings(max_examples=100, deadline=None)
@given(layout=st.sampled_from(sorted(_LAYOUTS)), sigma=st.floats(0.0, 3.0))
def test_analytic_average_of_every_layout_is_cptp(layout, sigma):
    # ensemble_average_analytic's rho0 + U E[g], on the matrix units.
    table = _shot_table(*layout)
    mean = np.zeros((len(table.phases), 2))
    mean[:, 0] = np.expm1(np.square(table.phases).sum(axis=1) * (-sigma * sigma / 8.0))
    average = map_of([_mean_state(unit, _shot_coefficients(table, unit), mean.ravel()) for unit in MATRIX_UNITS])
    assert_cptp(average)
    setup = FieldSetup(layout[0], sigma, layout[1])
    expected = ensemble_average_analytic(experiment_initial(), setup)
    assert np.abs(superop.apply(average, experiment_initial()) - expected).max() <= 1e-15
