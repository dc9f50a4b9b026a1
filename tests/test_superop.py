import numpy as np

from spinpath import superop
from spinpath.lindblad import projectors_for_mode


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


def test_kraus_and_chi_maps_match_operator_loops():
    rng = np.random.default_rng(52)
    ops = [random_matrix(rng) for _ in range(3)]
    chi = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = random_matrix(rng)
    kraus_loop = sum(m @ x @ m.conj().T for m in ops)
    chi_loop = sum(chi[j, k] * ops[j] @ x @ ops[k].conj().T for j in range(3) for k in range(3))
    assert np.abs(superop.apply(superop.kraus_map(ops), x) - kraus_loop).max() < 1e-12
    assert np.abs(superop.apply(superop.chi_map(ops, chi), x) - chi_loop).max() < 1e-12


def test_liouvillian_matches_master_equation_rhs():
    rng = np.random.default_rng(53)
    h, rho = random_hermitian(rng), random_hermitian(rng)
    projectors = projectors_for_mode("B").projectors
    lam = 0.7
    pinched = sum(p @ rho @ p for p in projectors)
    expected = -1j * (h @ rho - rho @ h) - lam * (rho - pinched)
    generator = superop.liouvillian(h, projectors, lam)
    assert np.abs(superop.apply(generator, rho) - expected).max() < 1e-13


def test_rk4_step_matches_four_stage_update():
    rng = np.random.default_rng(54)
    h, rho = random_hermitian(rng), random_hermitian(rng)
    projectors = projectors_for_mode("B").projectors
    generator = superop.liouvillian(h, projectors, 1.3)

    def rhs(x):
        return superop.apply(generator, x)

    step = 0.05
    k1 = rhs(rho)
    k2 = rhs(rho + 0.5 * step * k1)
    k3 = rhs(rho + 0.5 * step * k2)
    k4 = rhs(rho + step * k3)
    expected = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.abs(superop.apply(superop.rk4_step(generator, step), rho) - expected).max() < 1e-13
