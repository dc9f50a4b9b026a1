import numpy as np
import pytest

from spinpath.kraus import (
    KrausSet,
    apply_channel,
    completeness_defect,
    kraus_set_a,
    kraus_set_b,
    lindblad_generators_from_kraus,
    trotter_evolve,
)
from spinpath.lindblad import DecoherenceSpec, evolve, evolve_mode_a
from spinpath.states import experiment_initial, maximally_mixed


def random_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_weight_zero_is_identity_channel():
    for factory in (kraus_set_a, kraus_set_b):
        ops = factory(0.0).operators
        assert np.abs(ops[0] - np.eye(4)).max() < 1e-15
        for op in ops[1:]:
            assert np.abs(op).max() < 1e-15


def test_mode_a_leader_coefficient_at_unit_weight():
    leader = kraus_set_a(1.0).operators[0]
    assert np.abs(leader - 0.5 * np.eye(4)).max() < 1e-15


def test_completeness_over_weight_range():
    for w in np.linspace(0.0, 4.0 / 3.0, 50):
        assert completeness_defect(kraus_set_a(float(w))) < 1e-12
        assert completeness_defect(kraus_set_b(float(w))) < 1e-12


@pytest.mark.parametrize("w", [-0.1, 4.0 / 3.0 + 1e-9, np.nan])
def test_weight_range_enforced(w):
    with pytest.raises(ValueError):
        kraus_set_a(w)
    with pytest.raises(ValueError):
        kraus_set_b(w)


def test_mode_b_second_operator_flips_spin():
    flip = kraus_set_b(1.0).operators[2]
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    image = flip @ e1
    assert abs(image[2]) > 0.0
    assert np.abs(image[[0, 1, 3]]).max() < 1e-15


def test_apply_identity_channel_is_identity():
    rng = np.random.default_rng(21)
    rho = random_state(rng)
    assert np.abs(apply_channel(rho, kraus_set_a(0.0)) - rho).max() < 1e-14


def test_apply_mode_a_scales_off_diagonals():
    w = 0.35
    rho = experiment_initial()
    out = apply_channel(rho, kraus_set_a(w))
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-14
    assert abs(out[1, 2] - (1.0 - w) * rho[1, 2]) < 1e-14


def test_apply_mode_b_populates_corner():
    w = 0.4
    out = apply_channel(experiment_initial(), kraus_set_b(w))
    assert abs(out[0, 0] - w / 4.0) < 1e-14


def test_channel_unitality():
    for w in (0.3, 1.0, 4.0 / 3.0):
        for factory in (kraus_set_a, kraus_set_b):
            out = apply_channel(maximally_mixed(), factory(w))
            assert np.abs(out - maximally_mixed()).max() < 1e-12


def test_trace_and_hermiticity_preserved_random_inputs():
    rng = np.random.default_rng(25)
    for i in range(1000):
        rho = random_state(rng)
        factory = kraus_set_a if i % 2 == 0 else kraus_set_b
        out = apply_channel(rho, factory(float(rng.uniform(0.0, 4.0 / 3.0))))
        assert abs(np.trace(out).real - 1.0) < 1e-11
        assert np.abs(out - out.conj().T).max() < 1e-11


def test_single_step_error_is_second_order():
    rng = np.random.default_rng(27)
    rho = random_state(rng)
    lam = 1.0
    coefficients = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        stepped = apply_channel(rho, kraus_set_a(lam * dt))
        exact = evolve_mode_a(rho, DecoherenceSpec(mode="A", lam=lam), dt)
        coefficients.append(float(np.abs(stepped - exact).max()) / dt**2)
    ratios = [coefficients[i] / coefficients[i + 1] for i in range(len(coefficients) - 1)]
    for r in ratios:
        assert 0.5 < r < 2.0


def test_mode_a_channel_commutes_with_analytic_map():
    rng = np.random.default_rng(33)
    rho = random_state(rng)
    spec = DecoherenceSpec(mode="A", lam=1.0)
    channel_first = evolve_mode_a(apply_channel(rho, kraus_set_a(0.5)), spec, 0.7)
    evolve_first = apply_channel(evolve_mode_a(rho, spec, 0.7), kraus_set_a(0.5))
    assert np.abs(channel_first - evolve_first).max() < 1e-10


def test_trotter_identity_for_zero_time():
    out = trotter_evolve(experiment_initial(), "A", 1.0, 0.0, 1)
    assert np.abs(out - experiment_initial()).max() < 1e-14


def test_trotter_first_order_convergence_mode_a():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    exact = evolve(experiment_initial(), spec, 1.0)
    errors = []
    for n in (64, 128, 256):
        approx = trotter_evolve(experiment_initial(), "A", 1.0, 1.0, n)
        errors.append(float(np.abs(approx - exact).max()))
    for i in range(len(errors) - 1):
        ratio = errors[i] / errors[i + 1]
        assert 1.7 < ratio < 2.3


def test_trotter_mode_b_error_bound():
    spec = DecoherenceSpec(mode="B", lam=1.0)
    exact = evolve(experiment_initial(), spec, 1.0)
    approx = trotter_evolve(experiment_initial(), "B", 1.0, 1.0, 1024)
    assert np.abs(approx - exact).max() < 2e-3


def test_trotter_rejects_bad_parameters():
    rho = experiment_initial()
    with pytest.raises(ValueError):
        trotter_evolve(rho, "A", 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        trotter_evolve(rho, "A", 3.0, 1.0, 2)  # w = 1.5 > 4/3
    with pytest.raises(ValueError):
        trotter_evolve(rho, "A", -1.0, 1.0, 4)
    with pytest.raises(ValueError):
        trotter_evolve(rho, "Q", 1.0, 1.0, 4)


def test_generator_recovery_and_residual():
    lam, dt = 1.0, 1e-3
    generators, residual = lindblad_generators_from_kraus(kraus_set_a(lam * dt), dt)
    assert len(generators) == 3
    for gen in generators:
        gram = gen.conj().T @ gen
        assert np.abs(gram - (lam / 4.0) * np.eye(4)).max() < 1e-12
    assert residual <= 1e-6


def test_generator_residual_scales_quadratically():
    lam = 1.0
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        _, residual = lindblad_generators_from_kraus(kraus_set_b(lam * dt), dt)
        residuals.append(residual)
    for i in range(len(residuals) - 1):
        ratio = residuals[i] / residuals[i + 1]
        assert 3.5 < ratio < 4.5


def test_generator_recovery_rejects_foreign_sets():
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    with pytest.raises(ValueError):
        lindblad_generators_from_kraus(KrausSet(operators=(swap,), weight=0.0), 1e-3)
    with pytest.raises(ValueError):
        lindblad_generators_from_kraus(kraus_set_a(1e-3), 0.0)


def test_kraus_set_rejects_incomplete_operators():
    with pytest.raises(ValueError):
        KrausSet(operators=(0.5 * np.eye(4, dtype=complex),), weight=0.1)


def test_kraus_set_operators_are_read_only_copies():
    source = np.eye(4, dtype=complex)
    kraus_set = KrausSet(operators=(source,), weight=0.0)
    with pytest.raises(ValueError):
        kraus_set.operators[0][0, 0] = 2.0
    source[0, 0] = 2.0
    assert completeness_defect(kraus_set) == 0.0



def random_rank_state(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def test_trotter_matches_sequential_channel_applications():
    rng = np.random.default_rng(41)
    for i in range(24):
        rho = random_rank_state(rng, 1 + i % 4)
        mode = "AB"[i % 2]
        lam, t = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.4))
        n = int(rng.integers(1, 65))
        stepped = rho
        step = kraus_set_a(lam * t / n) if mode == "A" else kraus_set_b(lam * t / n)
        for _ in range(n):
            stepped = apply_channel(stepped, step)
        assert np.abs(trotter_evolve(rho, mode, lam, t, n) - stepped).max() < 1e-12


def test_trotter_final_state_valid_at_4096_steps():
    # The composed map must keep the trace of rank 1-4 states within the
    # 1e-12 validation tolerance even at thousands of steps.
    rng = np.random.default_rng(1)
    for i in range(300):
        rho = random_rank_state(rng, 1 + i % 4)
        mode = "AB"[i % 2]
        lam = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.05, 0.4))
        out = trotter_evolve(rho, mode, lam, t, 4096)
        assert abs(np.trace(out).real - 1.0) < 1e-12
