import numpy as np
import pytest

from spinpath import superop
from spinpath.lindblad import projectors_for_mode
from spinpath.pauli import spin_path


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
