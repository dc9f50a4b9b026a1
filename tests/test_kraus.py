import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state, hermitian_ginibre_state
from spinpath import kraus, lindblad, superop
from spinpath.kraus import (
    MAX_WEIGHT,
    completeness_defect,
    kraus_set_for_mode,
    lindblad_generators_from_kraus,
    trotter_evolve,
)
from spinpath.lindblad import DecoherenceSpec, evolve, projectors_for_mode
from spinpath.pauli import ID4
from spinpath.states import bell_state, experiment_initial, from_pure, maximally_mixed, validate_density_matrix


def one_step(rho, mode, weight):
    """One application of the mode's Kraus map of the given weight."""
    return trotter_evolve(rho, mode, weight, 1.0, 1)


def test_weight_zero_is_identity_channel():
    for mode in ("A", "B"):
        ops = kraus_set_for_mode(mode, 0.0)
        assert np.abs(ops[0] - np.eye(4)).max() < 1e-15
        for op in ops[1:]:
            assert np.abs(op).max() < 1e-15


def test_mode_a_leader_coefficient_at_unit_weight():
    leader = kraus_set_for_mode("A", 1.0)[0]
    assert np.abs(leader - 0.5 * np.eye(4)).max() < 1e-15


def test_completeness_over_weight_range():
    for w in np.linspace(0.0, 4.0 / 3.0, 50):
        for mode in ("A", "B"):
            assert completeness_defect(kraus_set_for_mode(mode, float(w))) < 1e-12


@pytest.mark.parametrize("w", [-0.1, 4.0 / 3.0 + 1e-9, np.nan])
def test_weight_range_enforced(w):
    for mode in ("A", "B"):
        with pytest.raises(ValueError):
            kraus_set_for_mode(mode, w)
    with pytest.raises(ValueError):
        kraus_set_for_mode("Q", 0.5)


def test_mode_b_second_operator_flips_spin():
    flip = kraus_set_for_mode("B", 1.0)[2]
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    image = flip @ e1
    assert abs(image[2]) > 0.0
    assert np.abs(image[[0, 1, 3]]).max() < 1e-15


def test_apply_identity_channel_is_identity():
    rng = np.random.default_rng(21)
    rho = ginibre_state(rng)
    assert np.abs(one_step(rho, "A", 0.0) - rho).max() < 1e-14


def test_apply_mode_a_scales_off_diagonals():
    w = 0.35
    rho = experiment_initial()
    out = one_step(rho, "A", w)
    assert np.abs(np.diag(out) - np.diag(rho)).max() < 1e-14
    assert abs(out[1, 2] - (1.0 - w) * rho[1, 2]) < 1e-14


def test_apply_mode_b_populates_corner():
    w = 0.4
    out = one_step(experiment_initial(), "B", w)
    assert abs(out[0, 0] - w / 4.0) < 1e-14


def test_channel_unitality():
    for w in (0.3, 1.0, 4.0 / 3.0):
        for mode in ("A", "B"):
            out = one_step(maximally_mixed(), mode, w)
            assert np.abs(out - maximally_mixed()).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    weight=st.floats(min_value=0.0, max_value=4.0 / 3.0),
)
def test_trace_and_hermiticity_preserved_random_inputs(seed, rank, mode, weight):
    # One Kraus step is CPTP: any rank 1-4 state maps to a valid state at the
    # acceptance gate's tolerances (trace and Hermiticity 1e-10, eigenvalues >= -1e-8).
    out = one_step(hermitian_ginibre_state(np.random.default_rng(seed), rank), mode, weight)
    assert abs(np.trace(out).real - 1.0) <= 1e-10
    assert np.abs(out - out.conj().T).max() <= 1e-10
    assert np.linalg.eigvalsh(out).min() >= -1e-8


def test_single_step_error_is_second_order():
    rng = np.random.default_rng(27)
    rho = ginibre_state(rng)
    lam = 1.0
    coefficients = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        stepped = one_step(rho, "A", lam * dt)
        exact = evolve(rho, DecoherenceSpec(mode="A", lam=lam), dt)
        coefficients.append(float(np.abs(stepped - exact).max()) / dt**2)
    ratios = [coefficients[i] / coefficients[i + 1] for i in range(len(coefficients) - 1)]
    for r in ratios:
        assert 0.5 < r < 2.0


def test_mode_a_channel_commutes_with_analytic_map():
    rng = np.random.default_rng(33)
    rho = ginibre_state(rng)
    spec = DecoherenceSpec(mode="A", lam=1.0)
    channel_first = evolve(one_step(rho, "A", 0.5), spec, 0.7)
    evolve_first = one_step(evolve(rho, spec, 0.7), "A", 0.5)
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
    with pytest.raises(ValueError, match="exceeds 4/3"):
        trotter_evolve(rho, "A", 3.0, 1.0, 2)  # w = 1.5 > 4/3
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="coupling strength must be finite and nonnegative"):
            trotter_evolve(rho, "A", lam, 1.0, 4)
    with pytest.raises(ValueError):
        trotter_evolve(rho, "Q", 1.0, 1.0, 4)
    for t in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="time must be finite and nonnegative"):
            trotter_evolve(rho, "A", 0.0, t, 4)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    t=st.floats(min_value=0.0, max_value=2.0),
    data=st.data(),
)
def test_trotter_first_order_exact_oracle(seed, rank, mode, lam, t, data):
    # Each step is rho -> (1 - w) rho + w D with D = sum_k P_k rho P_k, and D
    # is a fixed point, so n steps of weight w = lam t / n leave
    # D + (1 - w)^n (rho - D); the closed form at H = 0 is D + e^{-lam t} (rho - D).
    n = data.draw(st.integers(max(1, int(np.ceil(3.0 * lam * t / 4.0))), 2048), label="n")
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    dephased = sum(p @ rho @ p for p in projectors_for_mode(mode))
    trotter_oracle = dephased + (1.0 - lam * t / n) ** n * (rho - dephased)
    assert np.abs(trotter_evolve(rho, mode, lam, t, n) - trotter_oracle).max() <= 2e-12
    closed_oracle = dephased + np.exp(-lam * t) * (rho - dephased)
    assert np.abs(evolve(rho, DecoherenceSpec(mode=mode, lam=lam), t) - closed_oracle).max() <= 1e-13


def test_generator_recovery_and_residual():
    lam, dt = 1.0, 1e-3
    generators, residual = lindblad_generators_from_kraus(kraus_set_for_mode("A", lam * dt), dt)
    assert len(generators) == 3
    for gen in generators:
        gram = gen.conj().T @ gen
        assert np.abs(gram - (lam / 4.0) * np.eye(4)).max() < 1e-12
    assert residual <= 1e-6


def test_generator_residual_scales_quadratically():
    lam = 1.0
    residuals = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        _, residual = lindblad_generators_from_kraus(kraus_set_for_mode("B", lam * dt), dt)
        residuals.append(residual)
    for i in range(len(residuals) - 1):
        ratio = residuals[i] / residuals[i + 1]
        assert 3.5 < ratio < 4.5


def test_generator_recovery_rejects_foreign_sets():
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    with pytest.raises(ValueError, match=re.escape("expected a (4, 4, 4) stack, got shape (1, 4, 4)")):
        lindblad_generators_from_kraus(swap[None], 1e-3)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="step duration dt"):
            lindblad_generators_from_kraus(kraus_set_for_mode("A", 1e-3), dt)


def test_generator_recovery_rejects_a_subnormal_dt():
    # At a subnormal dt the Gram matrices (w/4)/dt overflow; dt is rejected
    # before any of them is formed, and no RuntimeWarning is raised.
    operators = kraus_set_for_mode("A", 0.5)
    message = r"step duration dt must be finite and normal \(at least 2\.2250738585072014e-308\), got "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dt in (1e-310, 5e-324):
            with pytest.raises(ValueError, match=message + re.escape(repr(dt))):
                lindblad_generators_from_kraus(operators, dt)
        for dt in (1e-300, np.finfo(float).tiny):
            generators, residual = lindblad_generators_from_kraus(operators, dt)
            assert all(np.isfinite(gen).all() for gen in generators)
            assert math.isfinite(residual) and abs(residual - 0.0219) < 1e-4


def _generators_one_jump_at_a_time(operators, dt):
    """The extraction as a loop over the three jumps: the reference the batched form must match."""
    operators = np.asarray(operators, dtype=complex)
    leader = operators[0]
    scale = leader[0, 0]
    if abs(scale.imag) > 1e-12 or scale.real <= 0.0 or np.abs(leader - scale * ID4).max() > 1e-12:
        raise ValueError("unsupported kraus set: leading operator is not a positive multiple of the identity")
    generators = []
    correction = np.zeros((4, 4), dtype=complex)
    for op in operators[1:]:
        gen = op / np.sqrt(dt)
        gram = gen.conj().T @ gen
        g = gram[0, 0]
        if not np.abs(gram - g * ID4).max() <= 1e-12 * max(1.0, abs(g)):
            raise ValueError("unsupported kraus set: jump operator is not unitary-proportional")
        generators.append(gen)
        correction += gram
    return generators, float(np.abs(leader - (ID4 - 0.5 * dt * correction)).max())


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["A", "B"]),
    weight=st.one_of(st.floats(0.0, 4.0 / 3.0), st.sampled_from([0.0, 1e-12, 4.0 / 3.0])),
    dt=st.one_of(st.floats(np.finfo(float).tiny, 10.0), st.sampled_from([np.finfo(float).tiny, 1e-300, 1e-3])),
    rotate=st.booleans(),
    skew=st.sampled_from([0.0, 1e-13, 5e-12, 1e-9]),
)
def test_batched_extraction_is_the_one_jump_loop_bit_for_bit(seed, mode, weight, dt, rotate, skew):
    # A unitary U_k on the left of each jump keeps its Gram matrix and the
    # stack's completeness; a skew of the last jump makes it not unitary-proportional.
    rng = np.random.default_rng(seed)
    operators = kraus_set_for_mode(mode, weight)
    if rotate:
        operators[1:] = np.array([_random_unitary(rng) for _ in range(3)]) @ operators[1:]
    operators[3, 0, 1] += skew * operators[3, 0, 0]
    try:
        expected = _generators_one_jump_at_a_time(operators, dt)
    except ValueError as exc:
        expected = str(exc)
    try:
        got = lindblad_generators_from_kraus(operators, dt)
    except ValueError as exc:
        if "completeness" in str(exc):  # a skew large enough to break completeness first
            assert skew > 0.0
            return
        got = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert len(got[0]) == 3
    for gen, ref in zip(got[0], expected[0]):
        assert gen.tobytes() == ref.tobytes()
    assert repr(got[1]) == repr(expected[1])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    n=st.one_of(st.integers(1, 4096), st.sampled_from([1, 3, 4095, 4096])),
    weight=st.one_of(st.floats(0.0, 4.0 / 3.0), st.sampled_from([0.0, 1.0, 4.0 / 3.0])),
    lam=st.floats(0.01, 10.0),
)
def test_trotter_evolve_is_the_private_core_between_two_checks(seed, rank, mode, n, weight, lam):
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    t = weight * n / lam
    try:
        expected = validate_density_matrix(kraus._trotter_evolve(validate_density_matrix(rho), mode, lam, t, n))
    except ValueError as exc:  # lam * t / n rounded past 4/3
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            trotter_evolve(rho, mode, lam, t, n)
        return
    assert trotter_evolve(rho, mode, lam, t, n).tobytes() == expected.tobytes()


def test_generator_recovery_rejects_incomplete_operators():
    incomplete = np.zeros((4, 4, 4), dtype=complex)
    incomplete[0] = 0.5 * np.eye(4)
    with pytest.raises(ValueError, match=r"kraus completeness violated: max\|sum M\^t M - 1\| = 7\.500e-01"):
        lindblad_generators_from_kraus(incomplete, 1e-3)
    with pytest.raises(ValueError, match=re.escape("expected a (4, 4, 4) stack, got shape (1, 4, 4)")):
        lindblad_generators_from_kraus(0.5 * np.eye(4)[None], 1e-3)
    not_finite = kraus_set_for_mode("A", 1e-3)
    not_finite[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"kraus completeness violated: max\|sum M\^t M - 1\| = nan"):
        lindblad_generators_from_kraus(not_finite, 1e-3)


def test_completeness_defect_takes_any_stack():
    assert completeness_defect(np.eye(4)[None]) == 0.0
    assert completeness_defect(0.5 * np.eye(4)[None]) == 0.75
    for mode in ("A", "B"):
        stack = kraus_set_for_mode(mode, 0.5)
        assert stack.shape == (4, 4, 4) and stack.dtype == complex
        assert completeness_defect(stack) == completeness_defect(list(stack))


def test_kraus_set_for_mode_returns_a_fresh_stack():
    first = kraus_set_for_mode("B", 0.5)
    first[:] = 0.0
    assert completeness_defect(kraus_set_for_mode("B", 0.5)) < 1e-15


def test_trotter_matches_sequential_channel_applications():
    rng = np.random.default_rng(41)
    for i in range(24):
        rho = hermitian_ginibre_state(rng, 1 + i % 4)
        mode = "AB"[i % 2]
        lam, t = float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 0.4))
        n = int(rng.integers(1, 65))
        # Reference: n explicit applications of sum_k M_k rho M_k^dagger.
        operators = kraus_set_for_mode(mode, lam * t / n)
        stepped = rho
        for _ in range(n):
            stepped = sum(m @ stepped @ m.conj().T for m in operators)
        assert np.abs(trotter_evolve(rho, mode, lam, t, n) - stepped).max() < 1e-12


def test_trotter_final_state_valid_at_4096_steps():
    # The composed map must keep the trace of rank 1-4 states within the
    # 1e-12 validation tolerance even at thousands of steps.
    rng = np.random.default_rng(1)
    for i in range(300):
        rho = hermitian_ginibre_state(rng, 1 + i % 4)
        mode = "AB"[i % 2]
        lam = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.05, 0.4))
        out = trotter_evolve(rho, mode, lam, t, 4096)
        assert abs(np.trace(out).real - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2**16, 2**20])
@pytest.mark.parametrize(
    "rho",
    [experiment_initial(), from_pure(bell_state(1)), maximally_mixed()],
    ids=["singlet", "bell1", "maximally-mixed"],
)
def test_trotter_stays_valid_at_large_step_counts(rho, n):
    # The n steps are one step of weight 1 - (1 - w)^n, so rounding does not
    # grow with n; the result is re-Hermitized and renormalized to the
    # input's trace within the fixed 1e-9 budget.
    out = trotter_evolve(rho, "B", 1.7, 0.9, n)
    assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-15
    assert np.abs(out - out.conj().T).max() == 0.0
    exact = evolve(rho, DecoherenceSpec(mode="B", lam=1.7), 0.9)
    assert np.abs(out - exact).max() <= 0.2 / n


def test_trotter_drift_beyond_its_budget_is_a_numerical_failure(monkeypatch):
    # The composed map is (1 - W) 1 + W T with W = 1 - e^{-1.53} = 0.78 here.
    # A twirl image that gains 2e-9 of trace puts the state past the fixed 1e-9
    # budget; one that gains 5e-10 keeps it within and is renormalized.
    apply = superop.apply
    monkeypatch.setattr(superop, "apply", lambda twirl, rho: (1.0 + 2e-9) * apply(twirl, rho))
    with pytest.raises(np.linalg.LinAlgError, match=r"Trotter composition \(n=1048576\) drift exceeded budget 1\.0e-09"):
        trotter_evolve(experiment_initial(), "B", 1.7, 0.9, 2**20)
    monkeypatch.setattr(superop, "apply", lambda twirl, rho: (1.0 + 5e-10) * apply(twirl, rho))
    assert abs(trotter_evolve(experiment_initial(), "B", 1.7, 0.9, 2**20).trace().real - 1.0) <= 1e-15


def step_map(mode, weight):
    return superop.kraus_map(kraus_set_for_mode(mode, weight))


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(["A", "B"]),
    w1=st.floats(min_value=0.0, max_value=MAX_WEIGHT),
    w2=st.floats(min_value=0.0, max_value=MAX_WEIGHT),
)
@example(mode="A", w1=MAX_WEIGHT, w2=0.0)
@example(mode="B", w1=MAX_WEIGHT, w2=MAX_WEIGHT)
@example(mode="B", w1=1.0, w2=MAX_WEIGHT)
def test_step_weights_compose_as_one_minus_product(mode, w1, w2):
    # The step map is (1 - w) 1 + w T with T the map of weight 1, a projector,
    # so two steps are one step of weight 1 - (1 - w1)(1 - w2).
    composed = step_map(mode, w1) @ step_map(mode, w2)
    assert np.abs(composed - step_map(mode, 1.0 - (1.0 - w1) * (1.0 - w2))).max() <= 1e-14
    projector = step_map(mode, 1.0)
    assert np.array_equal(projector @ projector, projector)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    weight=st.floats(min_value=0.0, max_value=MAX_WEIGHT),
    n=st.integers(1, 2048),
)
@example(seed=1, rank=4, mode="A", weight=1.0, n=1)
@example(seed=2, rank=3, mode="B", weight=1.0, n=2)
@example(seed=3, rank=1, mode="A", weight=MAX_WEIGHT, n=3)
@example(seed=4, rank=2, mode="B", weight=MAX_WEIGHT, n=4)
@example(seed=5, rank=1, mode="B", weight=MAX_WEIGHT, n=2047)
@example(seed=6, rank=4, mode="A", weight=MAX_WEIGHT, n=2048)
def test_trotter_matches_the_matrix_power_of_the_step_map(seed, rank, mode, weight, n):
    # The n-th matrix power is the reference; its own rounding grows as n * eps.
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    lam, t = weight, float(n)
    power = np.linalg.matrix_power(step_map(mode, lam * t / n), n)
    expected = superop.apply(power, rho)
    assert np.abs(trotter_evolve(rho, mode, lam, t, n) - expected).max() <= 64 * n * np.finfo(float).eps


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    lam=st.floats(min_value=0.0, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=3.0),
)
def test_one_step_of_weight_one_minus_exp_is_the_closed_form(seed, rank, mode, lam, t):
    # With H = 0 the channel at time t is exactly one Kraus step of weight 1 - e^{-lam t}.
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    operators = kraus_set_for_mode(mode, -np.expm1(-lam * t))
    stepped = sum(m @ rho @ m.conj().T for m in operators)
    assert np.abs(stepped - evolve(rho, DecoherenceSpec(mode=mode, lam=lam), t)).max() <= 1e-14


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    t=st.floats(min_value=0.0, max_value=2.0),
    data=st.data(),
)
def test_trotter_matches_its_oracle_in_extended_precision(seed, rank, mode, lam, t, data):
    # D + (1 - w)^n (rho - D), with D = sum_k P_k rho P_k, evaluated in long double.
    n = data.draw(st.integers(max(1, int(np.ceil(3.0 * lam * t / 4.0))), 2048), label="n")
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    wide = rho.astype(np.clongdouble)
    dephased = sum(p.astype(np.clongdouble) @ wide @ p for p in projectors_for_mode(mode))
    survival = (1 - np.longdouble(lam * t / n)) ** n
    oracle = dephased + survival * (wide - dephased)
    assert np.abs(trotter_evolve(rho, mode, lam, t, n) - oracle).max() <= 1e-15


@pytest.mark.parametrize("mode, axis", [("A", np.diag([1.0, -1.0])), ("B", np.array([[0.0, 1.0], [1.0, 0.0]]))])
def test_jumps_are_built_from_the_mode_axis(mode, axis):
    # {1 (x) sz, s (x) 1, s (x) sz} for the mode's spin axis s, in that order.
    sz, one = np.diag([1.0, -1.0]), np.eye(2)
    expected = np.array([np.kron(one, sz), np.kron(axis, one), np.kron(axis, sz)])
    assert np.array_equal(kraus._JUMPS[mode], expected)


@pytest.mark.parametrize("mode", ["A", "B"])
def test_twirl_and_dephasing_are_one_read_only_channel(mode):
    # The Kraus decomposition and the master equation's projectors define one
    # H = 0 channel per mode; each route builds it once, from its own definition.
    # Every entry of both is a dyadic rational, so the two agree bit for bit.
    twirl, dephasing = kraus._TWIRL[mode], lindblad._DEPHASING[mode]
    assert np.array_equal(twirl, dephasing)
    assert np.abs(twirl @ twirl - twirl).max() <= 1e-14
    assert np.array_equal(twirl, (superop.ID16 + superop.kraus_map(kraus._JUMPS[mode])) / 4.0)
    for channel in (twirl, dephasing):
        with pytest.raises(ValueError):
            channel[0, 0] = 2.0


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(["A", "B"]), weight=st.floats(min_value=0.0, max_value=MAX_WEIGHT))
@example(mode="A", weight=MAX_WEIGHT)
@example(mode="B", weight=1.0)
def test_step_map_is_the_identity_mixed_with_the_twirl(mode, weight):
    mixed = (1.0 - weight) * superop.ID16 + weight * kraus._TWIRL[mode]
    assert np.abs(mixed - step_map(mode, weight)).max() <= 1e-14


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    lam_t=st.floats(min_value=0.0, max_value=3.0),
)
def test_twirl_at_weight_one_minus_exp_is_the_closed_form(seed, rank, mode, lam_t):
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    w = -np.expm1(-lam_t)
    mixed = (1.0 - w) * rho + w * superop.apply(kraus._TWIRL[mode], rho)
    assert np.abs(mixed - evolve(rho, DecoherenceSpec(mode=mode, lam=lam_t), 1.0)).max() <= 1e-14


def test_trotter_builds_no_kraus_set(monkeypatch):
    expected = trotter_evolve(experiment_initial(), "B", 1.0, 1.0, 8)

    def forbidden(*args):
        raise AssertionError("trotter_evolve built a Kraus set or map")

    monkeypatch.setattr(kraus, "kraus_set_for_mode", forbidden)
    monkeypatch.setattr(superop, "kraus_map", forbidden)
    assert np.array_equal(trotter_evolve(experiment_initial(), "B", 1.0, 1.0, 8), expected)


@pytest.mark.parametrize(
    "lam, t, n, fewest",
    [(3.0, 1.0, 2, 3), (3.0, 1.0, 1, 3), (4.0, 1.0, 2, 3), (4.0 + 1e-15, 1.0, 3, 4), (1e3, 1.0, 7, 750), (2.5, 1.0, 1, 2)],
)
def test_trotter_with_too_few_steps_names_the_fewest_that_pass(lam, t, n, fewest):
    with pytest.raises(ValueError) as caught:
        trotter_evolve(experiment_initial(), "A", lam, t, n)
    message = str(caught.value)
    assert message == (
        f"step weight lam * t / n = {lam * t / n!r} exceeds 4/3 at n = {n}; "
        f"the fewest steps whose weight passes is n = {fewest}"
    )
    # The count named is the least one that _check_weight accepts.
    kraus._check_weight(lam * t / fewest)
    with pytest.raises(ValueError, match="step weight must lie in"):
        kraus._check_weight(lam * t / (fewest - 1))
    trotter_evolve(experiment_initial(), "A", lam, t, fewest)


@settings(max_examples=300, deadline=None)
@given(lam_t=st.floats(min_value=0.0, max_value=1e300) | st.floats(min_value=0.0, max_value=1e4))
def test_fewest_steps_is_the_least_count_check_weight_accepts(lam_t):
    fewest = kraus._fewest_steps(lam_t)
    assert kraus._check_weight(lam_t / fewest) <= MAX_WEIGHT
    if fewest > 1 and fewest < 2**53:
        with pytest.raises(ValueError):
            kraus._check_weight(lam_t / (fewest - 1))


@pytest.mark.parametrize("lam, t", [(1e200, 1e200), (sys.float_info.max, 2.0)])
def test_trotter_rejects_a_coupling_time_product_that_is_not_finite(lam, t):
    # evolve's wording; no step count is derived from an infinite lam * t.
    with pytest.raises(ValueError, match=re.escape(f"lam * t is not finite for lam {lam!r} at time {t!r}")):
        trotter_evolve(experiment_initial(), "B", lam, t, 2)

