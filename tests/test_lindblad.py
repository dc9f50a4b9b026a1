import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpath.lindblad import (
    DecoherenceSpec,
    SystemHamiltonian,
    evolve,
    integrate_master,
    projectors_for_mode,
)
from spinpath.measures import mixedness
from spinpath.states import experiment_initial, maximally_mixed, validate_density_matrix
from spinpath.superop import apply, liouvillian

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def random_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_rank_state(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def damping(rho, mode, lam):
    """The Liouvillian's damping term at H = 0: -lam (rho - sum_k P_k rho P_k)."""
    generator = liouvillian(np.zeros((4, 4)), projectors_for_mode(mode).projectors, lam)
    return apply(generator, rho)


def test_projectors_mode_a_are_basis_projectors():
    ps = projectors_for_mode("A").projectors
    for i, p in enumerate(ps):
        expected = np.zeros((4, 4), dtype=complex)
        expected[i, i] = 1.0
        assert np.abs(p - expected).max() < 1e-15


def test_projectors_mode_b_entries():
    p1 = projectors_for_mode("B").projectors[0]
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 2):
        for j in (0, 2):
            expected[i, j] = 0.5
    assert np.abs(p1 - expected).max() < 1e-15


def test_projectors_complete_and_idempotent():
    for mode in ("A", "B"):
        ps = projectors_for_mode(mode).projectors
        total = sum(ps)
        assert np.abs(total - np.eye(4)).max() < 1e-12
        for p in ps:
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        projectors_for_mode("C")


def test_projectors_mode_b_is_spin_hadamard_rotation_of_mode_a():
    rotation = np.kron(HADAMARD, np.eye(2, dtype=complex))
    rotated = [rotation @ p @ rotation.conj().T for p in projectors_for_mode("A").projectors]
    actual = projectors_for_mode("B").projectors
    # The rotated family equals the mode-B family as a set.
    for r in rotated:
        assert min(np.abs(r - a).max() for a in actual) < 1e-12


def test_dissipator_zero_for_diagonal_state_mode_a():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert np.abs(damping(rho, "A", 1.7)).max() < 1e-15


def test_dissipator_mode_a_removes_diagonal():
    rho = experiment_initial()
    lam = 0.8
    expected = -lam * (rho - np.diag(np.diag(rho)))
    assert np.abs(damping(rho, "A", lam) - expected).max() < 1e-15


def test_dissipator_zero_coupling_and_invariants():
    rng = np.random.default_rng(2)
    rho = random_state(rng)
    assert np.abs(damping(rho, "B", 0.0)).max() < 1e-15
    d = damping(rho, "B", 1.3)
    assert abs(np.trace(d)) < 1e-12
    assert np.abs(d - d.conj().T).max() < 1e-12


def test_evolve_mode_a_half_coherence_at_ln2():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    state = evolve(experiment_initial(), spec, np.log(2.0))
    assert abs(state[1, 2] - (-0.25)) < 1e-12


def test_evolve_mode_a_time_zero_is_identity():
    rng = np.random.default_rng(4)
    rho = random_state(rng)
    spec = DecoherenceSpec(mode="A", lam=2.0, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    assert np.abs(evolve(rho, spec, 0.0) - rho).max() < 1e-15


def test_evolve_mode_a_long_time_limit():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    state = evolve(experiment_initial(), spec, 50.0)
    assert np.abs(state - np.diag([0.0, 0.5, 0.5, 0.0])).max() < 1e-12


def test_evolve_mode_a_diagonal_unchanged():
    rng = np.random.default_rng(6)
    rho = random_state(rng)
    spec = DecoherenceSpec(mode="A", lam=1.0, hamiltonian=SystemHamiltonian((1.0, 0.3, 0.0, -0.7)))
    state = evolve(rho, spec, 1.7)
    assert np.abs(np.diag(state) - np.diag(rho)).max() < 1e-14


def test_evolve_mode_b_singlet_matrix():
    lam, t = 1.0, 0.9
    spec = DecoherenceSpec(mode="B", lam=lam)
    state = evolve(experiment_initial(), spec, t)
    e = np.exp(-lam * t)
    expected = 0.25 * np.array(
        [
            [1 - e, 0, 0, 0],
            [0, 1 + e, -2 * e, 0],
            [0, -2 * e, 1 + e, 0],
            [0, 0, 0, 1 - e],
        ],
        dtype=complex,
    )
    assert np.abs(state - expected).max() < 1e-12


def test_evolve_mode_b_time_zero_is_identity():
    rng = np.random.default_rng(8)
    rho = random_state(rng)
    spec = DecoherenceSpec(mode="B", lam=1.5, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    assert np.abs(evolve(rho, spec, 0.0) - rho).max() < 1e-15


def test_evolve_mode_b_oscillatory_regime_matches_integrator():
    # lam^2 < 4 dE^2 makes the coherence-pair eigenfrequencies complex.
    rho0 = 0.25 * np.eye(4, dtype=complex)
    rho0[0, 2] = 0.25
    rho0[2, 0] = 0.25
    spec = DecoherenceSpec(mode="B", lam=1.0, hamiltonian=SystemHamiltonian((1.0, 0.0, 0.0, 0.0)))
    closed = evolve(rho0, spec, 1.3)
    numeric = integrate_master(rho0, projectors_for_mode("B"), spec, 1.3, dt=1e-3)
    assert np.abs(closed - numeric).max() < 1e-8


@pytest.mark.parametrize(
    "lam,t,expected",
    [
        (1e4, 1e4, 0.23364412936342929757 - 0.000011682206497376981195j),
        (1e6, 1e6, 0.2336402738615044216 - 1.1682013693078141584e-7j),
        (1e7, 4e7, 0.11036383419082990234 - 5.5181917095415089123e-9j),
    ],
)
def test_evolve_mode_b_keeps_its_digits_when_lam_dwarfs_the_gap(lam, t, expected):
    # lam >> 2|dE|: mu - lam must not come from subtracting two nearly equal
    # numbers.  Expected values from the closed form at 60 digits.
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[0, 0] = rho0[2, 2] = 0.5
    rho0[0, 2], rho0[2, 0] = 0.3 + 0.1j, 0.3 - 0.1j
    spec = DecoherenceSpec(mode="B", lam=lam, hamiltonian=SystemHamiltonian((0.5, 0.0, 0.0, 0.0)))
    out = evolve(rho0, spec, t)
    assert abs(out[0, 2] - expected) <= 1e-15 * abs(expected)
    assert abs(out[2, 0] - np.conj(expected)) <= 1e-15 * abs(expected)


def test_evolve_mode_b_huge_coupling_is_finite():
    # lam^2 overflows here; the state is already fully relaxed.
    for energies in ((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)):
        spec = DecoherenceSpec(mode="B", lam=1e200, hamiltonian=SystemHamiltonian(energies))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = evolve(experiment_initial(), spec, 1.0)
        assert np.abs(out - 0.25 * np.eye(4)).max() < 1e-15


def test_evolve_rejects_negative_time():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    with pytest.raises(ValueError):
        evolve(experiment_initial(), spec, -0.1)
    with pytest.raises(ValueError):
        evolve(experiment_initial(), DecoherenceSpec(mode="B", lam=1.0), -0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        evolve(experiment_initial(), spec, np.array([0.0, 1.0, -0.1]))
    with pytest.raises(ValueError, match="1-d"):
        evolve(experiment_initial(), spec, np.zeros((2, 2)))
    # Non-finite times, also where lam = 0 and split energies would give nan phases.
    for mode in ("A", "B"):
        spec = DecoherenceSpec(mode=mode, lam=0.0, hamiltonian=SystemHamiltonian((0.0, 1.0, 2.0, 3.0)))
        for t in (np.nan, np.inf, np.array([0.0, 1.0, np.nan])):
            with pytest.raises(ValueError, match="time must be finite"):
                evolve(experiment_initial(), spec, t)


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize(
    "lam,energies",
    [
        (2.0, (0.0, 0.3, 0.5, 0.1)),
        (1.0, (1.0, 0.0, -0.5, 2.0)),
        (1.0, (0.0, 0.2, 0.5, -0.3)),
    ],
    ids=["overdamped", "oscillatory", "critical"],
)
def test_evolve_time_stack_equals_per_time_calls(mode, lam, energies):
    # Mode-B regimes by lam against 2|dE| of both coherence pairs; the
    # tiny times take the small-|mu t| series next to the cosh/sinh form.
    rho0 = random_state(np.random.default_rng(53))
    spec = DecoherenceSpec(mode=mode, lam=lam, hamiltonian=SystemHamiltonian(energies))
    times = np.concatenate([[0.0, 1e-8, 1e-6], np.linspace(0.0, 6.0, 61)])
    stacked = evolve(rho0, spec, times)
    assert stacked.shape == (times.size, 4, 4)
    per_time = np.stack([evolve(rho0, spec, float(t)) for t in times])
    assert np.abs(stacked - per_time).max() <= 1e-15


def test_decoherence_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DecoherenceSpec(mode="C", lam=1.0)
    for lam in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="coupling strength must be finite and nonnegative"):
            DecoherenceSpec(mode="A", lam=lam)
    with pytest.raises(ValueError):
        SystemHamiltonian((np.inf, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("lam_t", [0.5, 1.0, 2.0])
def test_integrator_matches_closed_forms_degenerate(mode, lam_t):
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    closed = evolve(experiment_initial(), spec, lam_t)
    numeric = integrate_master(
        experiment_initial(), projectors_for_mode(mode), spec, lam_t, dt=1e-3
    )
    assert np.abs(closed - numeric).max() < 1e-8


def test_integrator_zero_coupling_is_identity():
    rng = np.random.default_rng(10)
    rho = random_state(rng)
    spec = DecoherenceSpec(mode="A", lam=0.0)
    out = integrate_master(rho, projectors_for_mode("A"), spec, 1.0, dt=1e-3)
    assert np.abs(out - rho).max() < 1e-10


def test_integrator_rejects_bad_dt():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    for dt in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="step size dt"):
            integrate_master(experiment_initial(), projectors_for_mode("A"), spec, 1.0, dt=dt)


@pytest.mark.parametrize("t", [np.nan, np.inf, -0.5])
def test_integrator_rejects_non_finite_and_negative_time(t):
    spec = DecoherenceSpec(mode="B", lam=1.0)
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        integrate_master(experiment_initial(), projectors_for_mode("B"), spec, t)


@pytest.mark.parametrize("mode", ["A", "B"])
def test_integrator_rejects_unstable_step(mode):
    # lam * dt = 3 lies outside the RK4 stability interval [-2.785, 0].
    spec = DecoherenceSpec(mode=mode, lam=3000.0)
    with pytest.raises(ValueError, match=r"dt=0\.001 .*lam=3000\.0"):
        integrate_master(experiment_initial(), projectors_for_mode(mode), spec, 1.0, dt=1e-3)


def test_integrator_lands_exactly_on_t():
    # t is not a multiple of dt: the shortened final step must still match.
    spec = DecoherenceSpec(mode="B", lam=1.0)
    t = 0.7771
    closed = evolve(experiment_initial(), spec, t)
    numeric = integrate_master(
        experiment_initial(), projectors_for_mode("B"), spec, t, dt=1e-3
    )
    assert np.abs(closed - numeric).max() < 1e-8


@pytest.mark.parametrize("mode", ["A", "B"])
def test_trajectory_validity(mode):
    spec = DecoherenceSpec(mode=mode, lam=1.0, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    rng = np.random.default_rng(12)
    rho = random_state(rng)
    for t in np.linspace(0.0, 10.0, 41):
        state = evolve(rho, spec, float(t))
        assert abs(np.trace(state).real - 1.0) < 1e-10
        assert np.abs(state - state.conj().T).max() < 1e-10
        assert float(np.linalg.eigvalsh(state).min()) > -1e-8


@pytest.mark.parametrize("mode", ["A", "B"])
def test_semigroup_property(mode):
    spec = DecoherenceSpec(mode=mode, lam=0.8, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    rng = np.random.default_rng(14)
    rho = random_state(rng)
    t1, t2 = 0.6, 1.1
    direct = evolve(rho, spec, t1 + t2)
    stepped = evolve(evolve(rho, spec, t1), spec, t2)
    assert np.abs(direct - stepped).max() < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    lam=st.floats(min_value=0.0, max_value=3.0),
    energies=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4),
    t1=st.floats(min_value=0.0, max_value=2.0),
    t2=st.floats(min_value=0.0, max_value=2.0),
)
# A subnormal gap: mu + lam is a subnormal imaginary number, whose reciprocal overflows.
@example(seed=0, rank=1, mode="B", lam=0.0, energies=(0.0, 0.0, 0.0, 2.225073858507203e-309), t1=0.0, t2=0.0)
def test_semigroup_law_over_random_specs(seed, rank, mode, lam, energies, t1, t2):
    rho = random_rank_state(np.random.default_rng(seed), rank)
    spec = DecoherenceSpec(mode=mode, lam=lam, hamiltonian=SystemHamiltonian(energies))
    direct = evolve(rho, spec, t1 + t2)
    stepped = evolve(evolve(rho, spec, t1), spec, t2)
    assert np.abs(direct - stepped).max() <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 1e-310, 3e-308])
@pytest.mark.parametrize("gap_exponent", [-1074, -1030, -700])
def test_mode_b_tiny_gap_matches_the_rescaled_problem(lam, gap_exponent):
    # The closed form depends on lam t and the energies times t only, so a
    # tiny lam and gap at huge times equal lam, gap times 2^k at times / 2^k.
    rho = random_rank_state(np.random.default_rng(5), 4)
    gap, k = np.ldexp(1.5, gap_exponent), min(-gap_exponent - 4, 1020)
    times = np.ldexp(np.array([0.0, 1e-3, 0.4, 1.3, 2.0]), k)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        tiny = evolve(rho, DecoherenceSpec("B", lam, SystemHamiltonian((0.0, 0.0, 0.0, gap))), times)
    scaled = evolve(
        rho,
        DecoherenceSpec("B", np.ldexp(lam, k), SystemHamiltonian((0.0, 0.0, 0.0, np.ldexp(gap, k)))),
        np.ldexp(times, -k),
    )
    assert np.abs(tiny - scaled).max() <= 1e-14


def test_mode_a_diagonal_states_stationary():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    spec = DecoherenceSpec(mode="A", lam=1.3, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    assert np.abs(evolve(rho, spec, 2.5) - rho).max() < 1e-14


def test_mode_b_singlet_asymptote_is_maximally_mixed():
    spec = DecoherenceSpec(mode="B", lam=1.0)
    state = evolve(experiment_initial(), spec, 30.0)
    assert np.abs(state - maximally_mixed()).max() < 1e-10


@pytest.mark.parametrize("mode", ["A", "B"])
def test_singlet_mixedness_monotone(mode):
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    values = [
        mixedness(evolve(experiment_initial(), spec, float(t)))
        for t in np.linspace(0.0, 5.0, 200)
    ]
    diffs = np.diff(values)
    assert diffs.max() < 1e-12


def test_closed_forms_validated_output():
    rng = np.random.default_rng(16)
    rho = random_state(rng)
    for mode in ("A", "B"):
        spec = DecoherenceSpec(mode=mode, lam=2.0, hamiltonian=SystemHamiltonian((2.0, 1.0, 0.0, -1.0)))
        validate_density_matrix(evolve(rho, spec, 0.35))
