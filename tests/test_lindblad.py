import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state, hermitian_ginibre_state
from spinpath.lindblad import (
    DecoherenceSpec,
    SystemHamiltonian,
    _evolve,
    evolve,
    integrate_master,
    projectors_for_mode,
)
from spinpath.measures import mixedness
from spinpath.states import (
    EIGENVALUE_FLOOR,
    StateValidationError,
    experiment_initial,
    from_pure,
    maximally_mixed,
    validate_density_matrix,
)
from spinpath import superop
from spinpath.superop import apply, kraus_map, liouvillian

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# Each mode's spin axis, written out here so that the projectors are checked
# against the paper's definition rather than against the package's table.
SPIN_AXES = {"A": np.diag([1.0, -1.0]), "B": np.array([[0.0, 1.0], [1.0, 0.0]])}


def taylor_expm(a):
    """exp(a) by scaling and squaring: a Taylor series of a / 2^s, squared s times."""
    norm = np.abs(a).sum(axis=1).max()
    s = max(0, math.ceil(math.log2(norm)) + 2) if norm > 0 else 0  # ||a / 2^s|| <= 1/4
    a = a / 2.0 ** s
    term = total = np.eye(len(a), dtype=complex)
    for n in range(1, 18):
        term = term @ a / n
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def exact_evolution(rho, spec, times):
    """The states exp(L t) rho of the 16x16 Liouvillian L, one per time."""
    generator = liouvillian(
        np.diag(np.array(spec.hamiltonian.energies, dtype=complex)),
        kraus_map(projectors_for_mode(spec.mode)),
        spec.lam,
    )
    return np.stack([(taylor_expm(generator * t) @ rho.reshape(16)).reshape(4, 4) for t in times])


def damping(rho, mode, lam):
    """The Liouvillian's damping term at H = 0: -lam (rho - sum_k P_k rho P_k)."""
    generator = liouvillian(np.zeros((4, 4)), kraus_map(projectors_for_mode(mode)), lam)
    return apply(generator, rho)


def test_projectors_mode_a_are_basis_projectors():
    ps = projectors_for_mode("A")
    for i, p in enumerate(ps):
        expected = np.zeros((4, 4), dtype=complex)
        expected[i, i] = 1.0
        assert np.abs(p - expected).max() < 1e-15


def test_projectors_mode_b_entries():
    p1 = projectors_for_mode("B")[0]
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 2):
        for j in (0, 2):
            expected[i, j] = 0.5
    assert np.abs(p1 - expected).max() < 1e-15


def test_projectors_complete_and_idempotent():
    for mode in ("A", "B"):
        ps = projectors_for_mode(mode)
        total = sum(ps)
        assert np.abs(total - np.eye(4)).max() < 1e-12
        for p in ps:
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - p.conj().T).max() < 1e-12
    with pytest.raises(ValueError):
        projectors_for_mode("C")


def test_projectors_for_mode_share_one_read_only_set():
    for mode in ("A", "B"):
        shared = projectors_for_mode(mode)
        assert projectors_for_mode(mode) is shared
        assert shared.shape == (4, 4, 4) and shared.dtype == complex
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 2.0
        for p in shared:
            with pytest.raises(ValueError):
                p[0, 0] = 2.0


@pytest.mark.parametrize("mode", ["A", "B"])
def test_projectors_are_the_axis_eigenprojectors_on_each_path(mode):
    # (1 +/- s)/2 (x) |p><p| for the mode's spin axis s and p = I, II; every
    # entry is 0, +-1/2 or 1, so the match is exact, in any order.
    s, paths = SPIN_AXES[mode], (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    expected = [np.kron((np.eye(2) + sign * s) / 2.0, p) for sign in (1.0, -1.0) for p in paths]
    actual = projectors_for_mode(mode)
    assert len(actual) == len(expected)
    for e in expected:
        assert sum(np.array_equal(a, e) for a in actual) == 1


def test_projectors_mode_b_is_spin_hadamard_rotation_of_mode_a():
    rotation = np.kron(HADAMARD, np.eye(2, dtype=complex))
    rotated = [rotation @ p @ rotation.conj().T for p in projectors_for_mode("A")]
    actual = projectors_for_mode("B")
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
    rho = ginibre_state(rng)
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
    rho = ginibre_state(rng)
    spec = DecoherenceSpec(mode="A", lam=2.0, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    assert np.abs(evolve(rho, spec, 0.0) - rho).max() < 1e-15


def test_evolve_mode_a_long_time_limit():
    spec = DecoherenceSpec(mode="A", lam=1.0)
    state = evolve(experiment_initial(), spec, 50.0)
    assert np.abs(state - np.diag([0.0, 0.5, 0.5, 0.0])).max() < 1e-12


def test_evolve_mode_a_diagonal_unchanged():
    rng = np.random.default_rng(6)
    rho = ginibre_state(rng)
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
    rho = ginibre_state(rng)
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


def near_critical_state():
    """1/4 + 0.2 (|e1><e3| + |e3><e1|): only the first coupled coherence pair is set."""
    rho = 0.25 * np.eye(4, dtype=complex)
    rho[0, 2] = rho[2, 0] = 0.2
    return rho


def test_evolve_mode_b_near_critical_damping_is_exactly_hermitian():
    # 2|E_1 - E_3| = lam (1 + eps): the damped and the oscillating forms of the
    # coupled pair meet here.  The output of an exactly Hermitian input must
    # be exactly Hermitian, not just within the validation tolerance.
    cases = [(near_critical_state(), 3.0, 1.50000000015, 0.225)]
    rng = np.random.default_rng(71)
    for _ in range(200):
        eps = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -2.0)
        lam = rng.uniform(0.1, 3.0)
        rho = hermitian_ginibre_state(rng, int(rng.integers(1, 5)))
        cases.append((rho, lam, 0.5 * lam * (1.0 + eps), np.linspace(0.0, 3.0, 7)))
    for rho, lam, e1, t in cases:
        spec = DecoherenceSpec(mode="B", lam=lam, hamiltonian=SystemHamiltonian((e1, 0.0, 0.0, 0.0)))
        out = evolve(rho, spec, t)
        assert np.abs(out - np.swapaxes(out, -1, -2).conj()).max() <= 1e-15


def test_evolve_mode_b_at_the_largest_coupling_starts_from_the_input():
    # sqrt(h - k) sqrt(h + k) rounds above h = lam / 2 here, while 2 h is the
    # largest float: mu = 2 m must still not overflow (inf * 0 at t = 0).
    spec = DecoherenceSpec("B", 1.7976931348623157e308, SystemHamiltonian((8.566468994827393e291, 0.0, 0.0, 0.0)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = evolve(near_critical_state(), spec, np.array([0.0, 1.0]))
    assert np.array_equal(out[0], near_critical_state())
    assert np.abs(out[1] - 0.25 * np.eye(4)).max() <= 1e-15


@st.composite
def closed_form_specs(draw):
    """Specs over lam in [0, 3] and energies in [-2, 2]^4, half of them with
    2|E_1 - E_3| = lam (1 + eps), |eps| in [1e-14, 1e-2] or eps = 0."""
    mode = draw(st.sampled_from(["A", "B"]))
    lam = draw(st.floats(min_value=0.0, max_value=3.0))
    energies = list(draw(st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 4)))
    if draw(st.booleans()):
        # log-uniform, so that every decade of |eps| is drawn as often
        eps = draw(st.just(0.0) | st.floats(min_value=-14.0, max_value=-2.0).map(lambda x: 10.0 ** x))
        eps *= draw(st.sampled_from([-1.0, 1.0]))
        energies[0] = draw(st.sampled_from([-0.5, 0.5])) * lam * (1.0 + eps)
        energies[2] = 0.0
    return DecoherenceSpec(mode=mode, lam=lam, hamiltonian=SystemHamiltonian(tuple(energies)))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    spec=closed_form_specs(),
    t=st.floats(min_value=0.0, max_value=3.0)
    | st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=8).map(np.array),
)
# eps = 1e-10 and -1e-12, where |mu t| is about 1e-5: sinh(mu t / 2) / mu taken as a
# difference of exponentials cancels there.
@example(seed=0, rank=1, spec=DecoherenceSpec("B", 3.0, SystemHamiltonian((1.50000000015, 0.0, 0.0, 0.0))), t=0.225)
@example(seed=0, rank=1, spec=DecoherenceSpec("B", 3.0, SystemHamiltonian((1.4999999999985, 0.0, 0.0, 0.0))), t=0.5)
def test_closed_form_matches_the_exact_exponential(seed, rank, spec, t):
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    out = evolve(rho, spec, t)
    assert out.shape == np.shape(t) + (4, 4)
    expected = exact_evolution(rho, spec, np.atleast_1d(t))
    assert np.abs(out.reshape(-1, 4, 4) - expected).max() <= 1e-12


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


PHASE = r"energy phase \(E_k - E_j\) \* t is not finite for energies {energies} at time {t}"
DIFFERENCE = r"energy difference max\(E\) - min\(E\) is not finite for energies {energies}$"


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize(
    "energies,t,message",
    [
        ((0.0, 0.0, 1e10, 0.0), 1e300, PHASE),
        ((1e308, -1e308, 0.0, 0.0), 1.0, DIFFERENCE),
        ((1e308, -1e308, 0.0, 0.0), 0.0, DIFFERENCE),
        ((0.0, 0.0, 1e10, 0.0), np.array([0.0, 1.0, 1e300]), PHASE),
    ],
    ids=["phase-overflows", "gap-overflows", "gap-overflows-at-t0", "stack"],
)
def test_evolve_rejects_an_energy_phase_that_is_not_finite(mode, energies, t, message):
    # A difference of energies that overflows is named as such, at every time.
    spec = DecoherenceSpec(mode=mode, lam=0.0, hamiltonian=SystemHamiltonian(energies))
    expected = message.format(energies=re.escape(str(tuple(energies))), t=re.escape(repr(float(np.max(t)))))
    with pytest.raises(ValueError, match=expected) as info:
        evolve(experiment_initial(), spec, t)
    assert not isinstance(info.value, StateValidationError)


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("t", [1e100, np.array([0.0, 1.0, 1e100])], ids=["scalar", "stack"])
@pytest.mark.parametrize("lam", [1e307, np.float64(1e307)], ids=["float", "float64"])
def test_evolve_rejects_a_coupling_time_product_that_is_not_finite(mode, t, lam):
    spec = DecoherenceSpec(mode=mode, lam=lam)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(ValueError, match=r"lam \* t is not finite for lam 1e\+307 at time 1e\+100") as info:
            evolve(experiment_initial(), spec, t)
    assert not isinstance(info.value, StateValidationError)


def test_evolve_rejects_a_mode_b_pair_phase_at_twice_the_gap():
    # (E_1 - E_3) * t = 1e308 is finite, but the coupled pair turns at 2e308.
    energies = (1e300, 0.0, 0.0, 0.0)
    spec_a = DecoherenceSpec(mode="A", lam=0.0, hamiltonian=SystemHamiltonian(energies))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        validate_density_matrix(evolve(experiment_initial(), spec_a, 1e8))
    spec_b = DecoherenceSpec(mode="B", lam=0.0, hamiltonian=SystemHamiltonian(energies))
    with pytest.raises(ValueError, match="energy phase"):
        evolve(experiment_initial(), spec_b, 1e8)


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
    # Mode-B regimes by lam against 2|dE| of both coherence pairs, down to
    # tiny times.
    rho0 = ginibre_state(np.random.default_rng(53))
    spec = DecoherenceSpec(mode=mode, lam=lam, hamiltonian=SystemHamiltonian(energies))
    times = np.concatenate([[0.0, 1e-8, 1e-6], np.linspace(0.0, 6.0, 61)])
    stacked = evolve(rho0, spec, times)
    assert stacked.shape == (times.size, 4, 4)
    per_time = np.stack([evolve(rho0, spec, float(t)) for t in times])
    assert np.abs(stacked - per_time).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    spec=closed_form_specs(),
    t=st.floats(min_value=0.0, max_value=3.0)
    | st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=8).map(np.array),
)
def test_evolve_is_the_validated_private_closed_form(seed, rank, spec, t):
    # The CLI hands _evolve's output to measure_report, which validates it as evolve would.
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    out = evolve(rho, spec, t)
    private = validate_density_matrix(_evolve(rho, spec, t))
    assert out.shape == private.shape == np.shape(t) + (4, 4)
    assert out.tobytes() == private.tobytes()


BAD_EVOLVE_CALLS = {
    "state": (2.0 * experiment_initial(), DecoherenceSpec("A", 1.0), 0.5),
    "negative-time": (experiment_initial(), DecoherenceSpec("B", 1.0), np.array([0.0, -0.1])),
    "nan-time": (experiment_initial(), DecoherenceSpec("A", 1.0), np.nan),
    "time-shape": (experiment_initial(), DecoherenceSpec("A", 1.0), np.zeros((2, 2))),
    "energy-phase": (
        experiment_initial(), DecoherenceSpec("B", 0.0, SystemHamiltonian((0.0, 0.0, 1e10, 0.0))), 1e300
    ),
    "coupling-time": (experiment_initial(), DecoherenceSpec("A", 1e307), 1e100),
}


@pytest.mark.parametrize("call", BAD_EVOLVE_CALLS.values(), ids=BAD_EVOLVE_CALLS.keys())
def test_private_evolve_rejects_a_bad_input_with_evolves_message(call):
    with pytest.raises(ValueError) as public:
        evolve(*call)
    with pytest.raises(type(public.value), match=f"^{re.escape(str(public.value))}$"):
        _evolve(*call)


def test_decoherence_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DecoherenceSpec(mode="C", lam=1.0)
    for lam in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="coupling strength must be finite and nonnegative"):
            DecoherenceSpec(mode="A", lam=lam)
    with pytest.raises(ValueError):
        SystemHamiltonian((np.inf, 0.0, 0.0, 0.0))


def test_decoherence_spec_stores_the_float_its_check_returns():
    # A 0-d array coupling is stored as check_real's float, so the frozen spec hashes.
    spec = DecoherenceSpec("A", np.array(1.0))
    assert type(spec.lam) is float and spec.lam == 1.0
    assert hash(spec) == hash(DecoherenceSpec("A", 1.0)) and spec == DecoherenceSpec("A", 1)


def test_specs_share_the_one_degenerate_hamiltonian():
    assert DecoherenceSpec("A", 1.0).hamiltonian is SystemHamiltonian.degenerate()
    assert DecoherenceSpec("B", 2.0).hamiltonian is SystemHamiltonian.degenerate()
    assert SystemHamiltonian.degenerate() == SystemHamiltonian((0.0, 0.0, 0.0, 0.0))


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
    rho = ginibre_state(rng)
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


def test_integrator_rejects_a_stable_step_that_is_not_positive(monkeypatch):
    # The step map's spectral radius is 1 + 9e-16, so the stability check
    # passes; the two-step propagator's Choi matrix has eigenvalue -0.54, and
    # applied to this pure state it would give a state of eigenvalue -0.12.
    # The check runs before any state is produced.
    def no_state(*args):
        raise AssertionError("a state was produced")

    monkeypatch.setattr(superop, "apply", no_state)
    spec = DecoherenceSpec("B", 13.5, SystemHamiltonian((0.5, 2.7, 0.5, -2.5)))
    message = r"dt=0\.2 is not completely positive for lam=13\.5: .* Choi eigenvalue -5\.398e-01 < "
    with pytest.raises(ValueError, match=message):
        integrate_master(from_pure(np.full(4, 0.5)), projectors_for_mode("B"), spec, 0.4, dt=0.2)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from("AB"),
    lam=st.floats(0.1, 20.0),
    dt=st.sampled_from((0.05, 0.1, 0.2)),
    steps=st.integers(1, 8),
)
def test_integrator_rejects_exactly_the_steps_whose_choi_matrix_is_below_the_floor(seed, mode, lam, dt, steps):
    # Decided as the eigvalsh oracle decides, and a stable step that passes
    # never produces a state that fails validation.
    rng = np.random.default_rng(seed)
    spec = DecoherenceSpec(mode, lam, SystemHamiltonian(tuple(rng.uniform(-15.0, 15.0, 4))))
    rho0 = ginibre_state(rng, rank=1)
    generator = liouvillian(spec.hamiltonian.diagonal(), kraus_map(projectors_for_mode(mode)), lam)
    step_map = superop.rk4_step(generator, dt)
    if np.abs(np.linalg.eigvals(step_map)).max() > 1.0 + 1e-12:
        return  # the stability check's case
    t = steps * dt
    n_full, remainder = divmod(t, dt)  # the propagator integrate_master applies
    propagator = np.linalg.matrix_power(step_map, int(n_full))
    if remainder > 1e-12 * dt:
        propagator = superop.rk4_step(generator, remainder) @ propagator
    if np.linalg.eigvalsh(superop.choi(propagator))[0] < EIGENVALUE_FLOOR:
        with pytest.raises(ValueError, match=rf"dt={dt!r} is not completely positive for lam={re.escape(repr(lam))}"):
            integrate_master(rho0, projectors_for_mode(mode), spec, t, dt=dt)
    else:
        integrate_master(rho0, projectors_for_mode(mode), spec, t, dt=dt)


@pytest.mark.parametrize("mode,other", [("A", "B"), ("B", "A")])
def test_integrator_rejects_projectors_of_the_other_mode(mode, other):
    # Run with the other mode's projectors, the singlet at lam*t = 1 would
    # end 0.158 away from evolve.
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    with pytest.raises(ValueError, match=rf"mode {other}'s projectors, but spec.mode is '{mode}'"):
        integrate_master(experiment_initial(), projectors_for_mode(other), spec, 1.0)


def test_integrator_rejects_projectors_of_neither_mode():
    # A complete set of orthogonal projectors, but onto a basis of neither mode.
    basis = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
    projectors = np.array([np.outer(v, v) for v in basis.T])
    spec = DecoherenceSpec(mode="B", lam=1.0)
    with pytest.raises(ValueError, match=r"neither mode A's nor mode B's projectors, but spec.mode is 'B'"):
        integrate_master(experiment_initial(), projectors, spec, 1.0)


@pytest.mark.parametrize("mode", ["A", "B"])
def test_integrator_accepts_its_mode_projectors_in_any_order(mode):
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    shuffled = projectors_for_mode(mode)[::-1]
    numeric = integrate_master(experiment_initial(), shuffled, spec, 1.0, dt=1e-3)
    expected = integrate_master(experiment_initial(), projectors_for_mode(mode), spec, 1.0, dt=1e-3)
    assert np.abs(numeric - expected).max() < 1e-14
    assert np.abs(numeric - evolve(experiment_initial(), spec, 1.0)).max() < 1e-8


def rotated_projectors(mode, angle):
    """The mode's projectors conjugated by exp(i angle G), with G a fixed random state scaled to norm 1."""
    eigenvalues, vectors = np.linalg.eigh(ginibre_state(np.random.default_rng(17)))
    u = (vectors * np.exp(1j * angle * eigenvalues / eigenvalues.max())) @ vectors.conj().T
    return np.array([u @ p @ u.conj().T for p in projectors_for_mode(mode)])


@pytest.mark.parametrize("mode", ["A", "B"])
def test_integrator_accepts_its_mode_projectors_rotated_by_1e_14(mode):
    # The projectors are identified by their dephasing map within 1e-12.
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    numeric = integrate_master(experiment_initial(), rotated_projectors(mode, 1e-14), spec, 1.0, dt=1e-3)
    expected = integrate_master(experiment_initial(), projectors_for_mode(mode), spec, 1.0, dt=1e-3)
    assert np.abs(numeric - expected).max() < 1e-13


def coarser_projectors(mode):
    """{P1 + P2, P3, P4}: a valid complete family, but not the mode's."""
    p = projectors_for_mode(mode)
    return np.array([p[0] + p[1], p[2], p[3]])


def non_hermitian_projectors(mode):
    """The mode's projectors with |e1><e2| added to the first."""
    p = projectors_for_mode(mode)
    return np.concatenate(([p[0] + np.outer(np.eye(4)[0], np.eye(4)[1])], p[1:]))


# Families that are not the mode's projector set, each with a dephasing map more than 1e-12 from the mode's.
NOT_ITS_MODES = {
    "rotated-1e-9": lambda mode: rotated_projectors(mode, 1e-9),
    "coarser": coarser_projectors,
    "halved": lambda mode: 0.5 * projectors_for_mode(mode),
    "one-dropped": lambda mode: projectors_for_mode(mode)[1:],
    "non-hermitian": non_hermitian_projectors,
    "empty": lambda mode: projectors_for_mode(mode)[:0],
}


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("family", NOT_ITS_MODES.values(), ids=NOT_ITS_MODES.keys())
def test_integrator_rejects_a_family_close_to_its_modes(mode, family):
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    with pytest.raises(ValueError, match=rf"neither mode A's nor mode B's projectors, but spec.mode is '{mode}'"):
        integrate_master(experiment_initial(), family(mode), spec, 1.0)


@pytest.mark.parametrize("shape", [(4, 4), (4, 3, 3), (2, 4, 4, 4)])
def test_integrator_rejects_a_stack_of_the_wrong_shape(shape):
    spec = DecoherenceSpec(mode="A", lam=1.0)
    with pytest.raises(ValueError, match=re.escape(f"projectors must be a (k, 4, 4) stack, got shape {shape}")):
        integrate_master(experiment_initial(), np.zeros(shape), spec, 1.0)


@pytest.mark.parametrize("mode", ["A", "B"])
def test_integrator_accepts_a_family_with_its_modes_dephasing_map(mode):
    # e^{i phi} P_k is not a projector, but gives the same D and so the same Liouvillian.
    spec = DecoherenceSpec(mode=mode, lam=1.0)
    phased = np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7]))[:, None, None] * projectors_for_mode(mode)
    expected = integrate_master(experiment_initial(), projectors_for_mode(mode), spec, 1.0, dt=1e-3)
    assert np.abs(integrate_master(experiment_initial(), phased, spec, 1.0, dt=1e-3) - expected).max() < 1e-14


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
    rho = ginibre_state(rng)
    for t in np.linspace(0.0, 10.0, 41):
        state = evolve(rho, spec, float(t))
        assert abs(np.trace(state).real - 1.0) < 1e-10
        assert np.abs(state - state.conj().T).max() < 1e-10
        assert float(np.linalg.eigvalsh(state).min()) > -1e-8


@pytest.mark.parametrize("mode", ["A", "B"])
def test_semigroup_property(mode):
    spec = DecoherenceSpec(mode=mode, lam=0.8, hamiltonian=SystemHamiltonian((1.0, 0.5, 0.0, -0.5)))
    rng = np.random.default_rng(14)
    rho = ginibre_state(rng)
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
# A subnormal gap: the pair's rates are subnormal, and so is any divisor formed from them.
@example(seed=0, rank=1, mode="B", lam=0.0, energies=(0.0, 0.0, 0.0, 2.225073858507203e-309), t1=0.0, t2=0.0)
def test_semigroup_law_over_random_specs(seed, rank, mode, lam, energies, t1, t2):
    rho = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    spec = DecoherenceSpec(mode=mode, lam=lam, hamiltonian=SystemHamiltonian(energies))
    direct = evolve(rho, spec, t1 + t2)
    stepped = evolve(evolve(rho, spec, t1), spec, t2)
    assert np.abs(direct - stepped).max() <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 1e-310, 3e-308])
@pytest.mark.parametrize("gap_exponent", [-1074, -1030, -700])
def test_mode_b_tiny_gap_matches_the_rescaled_problem(lam, gap_exponent):
    # The closed form depends on lam t and the energies times t only, so a
    # tiny lam and gap at huge times equal lam, gap times 2^k at times / 2^k.
    rho = hermitian_ginibre_state(np.random.default_rng(5), 4)
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
    rho = ginibre_state(rng)
    for mode in ("A", "B"):
        spec = DecoherenceSpec(mode=mode, lam=2.0, hamiltonian=SystemHamiltonian((2.0, 1.0, 0.0, -1.0)))
        validate_density_matrix(evolve(rho, spec, 0.35))
