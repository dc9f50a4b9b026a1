import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinpath.interferometer import (
    VARIANTS,
    _LAYOUTS,
    _BLOCK_SIZE,
    _PHASE_COLUMNS,
    _SHOT_COLUMNS,
    _STDERR_FLOOR,
    _phase_columns,
    _sampled_angles,
    _shot_coefficients,
    _shot_columns,
    FieldSetup,
    consistency_ratio,
    ensemble_average_analytic,
    ensemble_average_monte_carlo,
    lambda_from_sigma,
)
from spinpath.lindblad import DecoherenceSpec, evolve
from spinpath.measures import mixedness
from spinpath.pauli import ID2, SIGMA_X, spin_path
from spinpath.states import bell_diagonal, experiment_initial, from_pure, validate_density_matrix


def mode_b_shot_matrix(alpha, beta, gamma, delta):
    """Independent construction of the mode-B single-shot singlet state
    from the half-angle amplitude products."""
    cg, sg = np.cos(gamma / 2.0), np.sin(gamma / 2.0)
    cd, sd = np.cos(delta / 2.0), np.sin(delta / 2.0)
    amplitudes = np.array(
        [
            -1j * np.exp(1j * alpha / 2.0) * sg,
            np.exp(1j * beta / 2.0) * cd,
            -np.exp(-1j * alpha / 2.0) * cg,
            1j * np.exp(-1j * beta / 2.0) * sd,
        ]
    ) / np.sqrt(2.0)
    return np.outer(amplitudes, amplitudes.conj())


FIELD_SETUPS = [
    ("A", "both_paths_independent"),
    ("A", "single_field_one_path"),
    ("A", "single_field_both_paths"),
    ("B", "both_paths_independent"),
]


def random_rank_state(rng, rank):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def reference_shot_unitaries(alpha, beta, gamma=None, delta=None):
    """(N, 4, 4) block unitaries V = U_z U_x built as matrices, one per shot."""
    uz = np.zeros((len(alpha), 4, 4), dtype=complex)
    uz[:, 0, 0] = np.exp(0.5j * alpha)
    uz[:, 1, 1] = np.exp(0.5j * beta)
    uz[:, 2, 2] = np.exp(-0.5j * alpha)
    uz[:, 3, 3] = np.exp(-0.5j * beta)
    if gamma is None:
        return uz
    ux = np.zeros((len(alpha), 4, 4), dtype=complex)
    cg, sg = np.cos(0.5 * gamma), np.sin(0.5 * gamma)
    cd, sd = np.cos(0.5 * delta), np.sin(0.5 * delta)
    for a, b, c, s in ((0, 2, cg, sg), (1, 3, cd, sd)):
        ux[:, a, a] = ux[:, b, b] = c
        ux[:, a, b] = ux[:, b, a] = 1j * s
    return uz @ ux


def reference_monte_carlo(rho0, setup, samples, seed):
    """Block Monte Carlo through the batched products u @ rho0 @ u^dagger.

    Same blocks, child seeds and draws as ensemble_average_monte_carlo.
    The deviations from rho0 are averaged in extended precision and their
    variance is taken in two passes (mean first, then squared distances
    to it), so the reference carries neither summation roundoff nor the
    cancellation of sum-of-squares formulas.  Returns (mean, stderr_re,
    stderr_im).
    """
    shots = []
    for block_index, start in enumerate(range(0, samples, _BLOCK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, block_index)))
        count = min(_BLOCK_SIZE, samples - start)
        u = reference_shot_unitaries(*_sampled_angles(rng, setup, count))
        shots.append(u @ rho0 @ u.conj().transpose(0, 2, 1))
    shots = np.concatenate(shots)
    dev_re = (shots.real - rho0.real).astype(np.longdouble)
    dev_im = (shots.imag - rho0.imag).astype(np.longdouble)
    mean_re, mean_im = dev_re.mean(axis=0), dev_im.mean(axis=0)
    var_re = ((dev_re - mean_re) ** 2).sum(axis=0) / (samples - 1)
    var_im = ((dev_im - mean_im) ** 2).sum(axis=0) / (samples - 1)
    mean = (rho0.real + mean_re).astype(float) + 1j * (rho0.imag + mean_im).astype(float)
    return mean, np.sqrt(var_re / samples).astype(float), np.sqrt(var_im / samples).astype(float)


PATH_I, PATH_II = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def reference_unitary(*angles):
    """The 4x4 V of one shot from ``reference_shot_unitaries``: (alpha, beta)
    for mode A or (alpha, beta, gamma, delta) for mode B."""
    return reference_shot_unitaries(*(np.array([angle], dtype=float) for angle in angles))[0]


def shot_states(rho0, *angles):
    """(N, 4, 4) shot states rho0 + U g as the Monte Carlo kernel represents
    them: U from rho0 alone, g the columns of each shot.  Takes length-N
    angle arrays, (alpha, beta) for mode A, which is mode B with
    gamma = delta = 0, or (alpha, beta, gamma, delta)."""
    angles = np.array(angles, dtype=float).reshape(len(angles), -1)
    if len(angles) == 2:
        angles = np.concatenate((angles, np.zeros_like(angles)))
    half = 0.5 * angles
    columns = np.empty((_SHOT_COLUMNS, angles.shape[1]))
    _shot_columns(np.stack((np.cos(half), np.sin(half))), columns)
    re, im = (_shot_coefficients(np.asarray(rho0, dtype=complex)) @ columns).reshape(2, 4, 4, -1)
    return rho0 + (re + 1j * im).transpose(2, 0, 1)


def shot_state(rho0, *angles):
    """One shot state rho0 + U g, validated."""
    return validate_density_matrix(shot_states(rho0, *angles)[0])


def test_conditioned_unitary_z_rotation_is_phase_diagonal():
    alpha, beta = 0.77, -2.1
    expected = np.diag(np.exp(0.5j * np.array([alpha, beta, -alpha, -beta])))
    assert np.abs(reference_unitary(alpha, beta) - expected).max() < 1e-15
    assert np.abs(reference_unitary(alpha, beta, 0.0, 0.0) - expected).max() < 1e-15


def test_conditioned_unitary_x_rotation_at_pi_flips_spin():
    # An x-rotation by pi is i sigma_x on its own path and leaves the other alone.
    u = reference_unitary(0.0, 0.0, np.pi, 0.0)
    assert np.abs(u - (spin_path(1j * SIGMA_X, PATH_I) + spin_path(ID2, PATH_II))).max() < 1e-15
    u = reference_unitary(0.0, 0.0, 0.0, np.pi)
    assert np.abs(u - (spin_path(ID2, PATH_I) + spin_path(1j * SIGMA_X, PATH_II))).max() < 1e-15
    u = reference_unitary(0.0, 0.0, 2 * np.pi, 2 * np.pi)
    assert np.abs(u + np.eye(4)).max() < 1e-12


def test_conditioned_unitary_unitary_and_additive():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a1, b1, a2, b2 = rng.uniform(-np.pi, np.pi, 4)
        u = reference_unitary(a1, b1)
        v = reference_unitary(a2, b2)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        assert np.abs(u @ v - reference_unitary(a1 + a2, b1 + b2)).max() < 1e-12
        u = reference_unitary(0.0, 0.0, a1, b1)
        v = reference_unitary(0.0, 0.0, a2, b2)
        assert np.abs(u @ v - reference_unitary(0.0, 0.0, a1 + a2, b1 + b2)).max() < 1e-12


def test_conditioned_unitary_identity_at_zero_angles():
    assert np.abs(reference_unitary(0.0, 0.0) - np.eye(4)).max() < 1e-15
    assert np.abs(reference_unitary(0.0, 0.0, 0.0, 0.0) - np.eye(4)).max() < 1e-15


def test_conditioned_unitary_is_unitary():
    rng = np.random.default_rng(43)
    for _ in range(10):
        u = reference_unitary(*rng.uniform(-np.pi, np.pi, 4))
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_single_shot_mode_a_coherence_phase():
    rng = np.random.default_rng(47)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        state = shot_state(experiment_initial(), a, b)
        expected = -0.5 * np.exp(1j * (a + b) / 2.0)
        assert abs(state[1, 2] - expected) < 1e-12


def test_single_shot_mode_a_phase_wraps_to_sign_flip():
    state = shot_state(experiment_initial(), 1.5 * np.pi, 0.5 * np.pi)
    assert abs(state[1, 2] - 0.5) < 1e-12


def test_single_shot_mode_b_matches_amplitude_construction():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a, b, g, d = rng.uniform(-np.pi, np.pi, 4)
        state = shot_state(experiment_initial(), a, b, g, d)
        assert np.abs(state - mode_b_shot_matrix(a, b, g, d)).max() < 1e-12


def test_single_shot_mode_b_x_flip_fills_corner():
    state = shot_state(experiment_initial(), 0.0, 0.0, np.pi, 0.0)
    assert abs(state[0, 0] - 0.5) < 1e-12


def test_single_shot_preserves_purity():
    rng = np.random.default_rng(59)
    state = shot_state(experiment_initial(), *rng.uniform(-np.pi, np.pi, 4))
    assert abs(mixedness(state) - 1.0) < 1e-12


def test_analytic_average_sigma_zero_is_identity():
    for mode in ("A", "B"):
        setup = FieldSetup(mode=mode, sigma=0.0)
        out = ensemble_average_analytic(experiment_initial(), setup)
        assert np.abs(out - experiment_initial()).max() < 1e-14


def test_analytic_average_mode_a_half_coherence():
    sigma = 2.0 * np.sqrt(np.log(2.0))
    setup = FieldSetup(mode="A", sigma=sigma)
    out = ensemble_average_analytic(experiment_initial(), setup)
    assert abs(out[1, 2] - (-0.25)) < 1e-12


def test_analytic_average_mode_b_singlet_matrix():
    sigma = 1.2
    e = np.exp(-(sigma**2) / 2.0)
    setup = FieldSetup(mode="B", sigma=sigma)
    out = ensemble_average_analytic(experiment_initial(), setup)
    expected = 0.25 * np.array(
        [
            [1 - e, 0, 0, 0],
            [0, 1 + e, -2 * e, 0],
            [0, -2 * e, 1 + e, 0],
            [0, 0, 0, 1 - e],
        ],
        dtype=complex,
    )
    assert np.abs(out - expected).max() < 1e-12


def test_analytic_average_variant_factors():
    sigma = 1.1
    rho = experiment_initial()
    one_path = ensemble_average_analytic(
        rho, FieldSetup(mode="A", sigma=sigma, variant="single_field_one_path")
    )
    assert abs(one_path[1, 2] - (-0.5 * np.exp(-(sigma**2) / 8.0))) < 1e-12
    shared = ensemble_average_analytic(
        rho, FieldSetup(mode="A", sigma=sigma, variant="single_field_both_paths")
    )
    assert abs(shared[1, 2] - (-0.5 * np.exp(-(sigma**2) / 2.0))) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    sigma=st.floats(min_value=0.0, max_value=3.0),
    weights=st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 4).filter(lambda w: sum(w) > 0.0),
)
def test_every_layout_realizes_its_channel_on_bell_diagonal_states(layout, sigma, weights):
    mode, variant = layout
    setup = FieldSetup(mode=mode, sigma=sigma, variant=variant)
    rho0 = bell_diagonal(np.array(weights) / sum(weights))
    closed = evolve(rho0, DecoherenceSpec(mode=mode, lam=lambda_from_sigma(setup, 1.0)), 1.0)
    assert np.abs(ensemble_average_analytic(rho0, setup) - closed).max() <= 1e-14


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_no_layout_realizes_its_channel_off_the_bell_diagonal_family(layout):
    # A full-rank state with every coherence nonzero: the layouts damp some
    # coherences at other rates than the channel does (errors 3.7e-2 to 9.0e-2 here).
    mode, variant = layout
    setup = FieldSetup(mode=mode, sigma=1.2, variant=variant)
    rho0 = random_rank_state(np.random.default_rng(7), 4)
    closed = evolve(rho0, DecoherenceSpec(mode=mode, lam=lambda_from_sigma(setup, 1.0)), 1.0)
    assert np.abs(ensemble_average_analytic(rho0, setup) - closed).max() > 1e-2


def test_analytic_average_rejects_mode_b_variants():
    # The setup itself refuses the pair, before any averaging.
    for variant in ("single_field_one_path", "single_field_both_paths"):
        with pytest.raises(ValueError, match="not supported for mode B"):
            ensemble_average_analytic(
                experiment_initial(), FieldSetup(mode="B", sigma=1.0, variant=variant)
            )


def test_mode_b_average_order_independent_for_singlet():
    # Swapping the per-path x/z application order must not change the
    # averaged singlet state.
    from spinpath.interferometer import _angle_map, _harmonics
    from spinpath.superop import apply

    sigma = 0.9
    x_ii, z_ii, x_i, z_i = (
        _angle_map(_harmonics(axis, path), sigma)
        for axis, path in (("x", "II"), ("z", "II"), ("x", "I"), ("z", "I"))
    )
    rho_xz = apply(z_i @ x_i @ z_ii @ x_ii, experiment_initial())
    rho_zx = apply(x_i @ z_i @ x_ii @ z_ii, experiment_initial())
    assert np.abs(rho_xz - rho_zx).max() < 1e-12


def test_constant_angle_offset_preserves_coherence_modulus():
    setup = FieldSetup(mode="A", sigma=1.3)
    averaged = ensemble_average_analytic(experiment_initial(), setup)
    offset = reference_unitary(0.83, -1.91)
    shifted = offset @ averaged @ offset.conj().T
    assert abs(abs(shifted[1, 2]) - abs(averaged[1, 2])) < 1e-12


@pytest.mark.parametrize(
    "mode,variant",
    [
        ("A", "both_paths_independent"),
        ("A", "single_field_one_path"),
        ("A", "single_field_both_paths"),
        ("B", "both_paths_independent"),
    ],
)
def test_calibration_closure(mode, variant):
    for sigma in (0.5, 1.0, 2.0):
        setup = FieldSetup(mode=mode, sigma=sigma, variant=variant)
        averaged = ensemble_average_analytic(experiment_initial(), setup)
        for dwell in (1.0, 2.0):
            lam = lambda_from_sigma(setup, dwell)
            spec = DecoherenceSpec(mode=mode, lam=lam)
            closed = evolve(experiment_initial(), spec, dwell)
            assert np.abs(averaged - closed).max() < 1e-12


def test_lambda_from_sigma_examples():
    assert abs(lambda_from_sigma(FieldSetup(mode="A", sigma=2.0), 1.0) - 1.0) < 1e-15
    assert (
        abs(
            lambda_from_sigma(
                FieldSetup(mode="A", sigma=2.0, variant="single_field_one_path"), 1.0
            )
            - 0.5
        )
        < 1e-15
    )
    assert abs(lambda_from_sigma(FieldSetup(mode="B", sigma=np.sqrt(2.0)), 1.0) - 1.0) < 1e-15


def test_lambda_from_sigma_rejects_bad_inputs():
    for dwell in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dwell_time"):
            lambda_from_sigma(FieldSetup(mode="A", sigma=1.0), dwell)
    with pytest.raises(ValueError):
        lambda_from_sigma(
            FieldSetup(mode="B", sigma=1.0, variant="single_field_one_path"), 1.0
        )


@pytest.mark.parametrize("mode,variant", FIELD_SETUPS)
def test_monte_carlo_sigma_zero_is_exact(mode, variant):
    setup = FieldSetup(mode=mode, sigma=0.0, variant=variant)
    rng = np.random.default_rng(61)
    for rho0 in [experiment_initial()] + [random_rank_state(rng, rank) for rank in (1, 2, 3, 4)]:
        estimate = ensemble_average_monte_carlo(rho0, setup, 100, 0)
        assert np.array_equal(estimate.mean, rho0)
        assert estimate.stderr_re.max() == 0.0
        assert estimate.stderr_im.max() == 0.0


def test_monte_carlo_is_deterministic():
    setup = FieldSetup(mode="B", sigma=1.0)
    first = ensemble_average_monte_carlo(experiment_initial(), setup, 10000, 77)
    second = ensemble_average_monte_carlo(experiment_initial(), setup, 10000, 77)
    assert np.array_equal(first.mean, second.mean)
    assert np.array_equal(first.stderr_re, second.stderr_re)


def test_monte_carlo_consistent_with_analytic():
    for mode, sigma in (("A", 1.0), ("B", 1.5)):
        setup = FieldSetup(mode=mode, sigma=sigma)
        estimate = ensemble_average_monte_carlo(experiment_initial(), setup, 30000, 5)
        analytic = ensemble_average_analytic(experiment_initial(), setup)
        assert consistency_ratio(estimate, analytic) <= 5.0


def test_monte_carlo_error_scales_as_inverse_sqrt_samples():
    setup = FieldSetup(mode="B", sigma=1.0)
    analytic = ensemble_average_analytic(experiment_initial(), setup)
    sample_counts = (1000, 10000, 100000)
    errors = []
    for samples in sample_counts:
        per_seed = []
        for seed in range(5):
            estimate = ensemble_average_monte_carlo(
                experiment_initial(), setup, samples, 100 + seed
            )
            per_seed.append(float(np.linalg.norm(estimate.mean - analytic)))
        errors.append(np.mean(per_seed))
    slope = np.polyfit(np.log(sample_counts), np.log(errors), 1)[0]
    assert abs(slope - (-0.5)) < 0.1


def test_monte_carlo_input_validation():
    setup = FieldSetup(mode="A", sigma=1.0)
    with pytest.raises(ValueError):
        ensemble_average_monte_carlo(experiment_initial(), setup, 1, 0)
    with pytest.raises(ValueError):
        ensemble_average_monte_carlo(experiment_initial(), setup, 100, -1)


def test_field_setup_validation():
    with pytest.raises(ValueError):
        FieldSetup(mode="C", sigma=1.0)
    for sigma in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be finite and nonnegative"):
            FieldSetup(mode="A", sigma=sigma)
    for sigma in (1e200, 1.5e154):
        with pytest.raises(ValueError, match=r"sigma .* too large: its square overflows"):
            FieldSetup(mode="A", sigma=sigma)
    FieldSetup(mode="B", sigma=1.3e154)  # its square is finite
    with pytest.raises(ValueError):
        FieldSetup(mode="A", sigma=1.0, variant="nonsense")
    for variant in ("single_field_one_path", "single_field_both_paths"):
        with pytest.raises(ValueError, match="not supported for mode B"):
            FieldSetup(mode="B", sigma=1.0, variant=variant)


def test_ensemble_estimate_json_shape():
    setup = FieldSetup(mode="A", sigma=0.5, variant="single_field_one_path")
    estimate = ensemble_average_monte_carlo(experiment_initial(), setup, 500, 9)
    payload = estimate.to_json()
    assert set(payload) == {
        "mean",
        "stderr_re",
        "stderr_im",
        "samples",
        "seed",
        "sigma",
        "mode",
        "variant",
    }
    assert payload["samples"] == 500
    assert payload["seed"] == 9
    assert payload["mode"] == "A"
    assert payload["variant"] == "single_field_one_path"
    assert payload["mean"]["dim"] == 4
    assert len(payload["stderr_re"]) == 4


ANGLES = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    mode=st.sampled_from(["A", "B"]),
    shot=st.lists(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES), min_size=1, max_size=8),
)
def test_shot_states_match_matrix_products(seed, rank, mode, shot):
    # The kernel's per-shot representation rho0 + U g against u rho0 u^dagger.
    rho0 = random_rank_state(np.random.default_rng(seed), rank)
    drawn = tuple(np.array(column) for column in zip(*shot))
    drawn = drawn[:2] if mode == "A" else drawn
    u = reference_shot_unitaries(*drawn)
    expected = u @ rho0 @ u.conj().transpose(0, 2, 1)
    assert np.abs(shot_states(rho0, *drawn) - expected).max() <= 1e-15


@settings(max_examples=200, deadline=None)
@given(shot=st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=8))
def test_mode_a_columns_are_the_mode_b_phase_columns_without_x_rotation(shot):
    # The one Monte Carlo kernel rests on this: at gamma = delta = 0 every
    # mode-B column outside _PHASE_COLUMNS is exactly 0, and those columns
    # are bit for bit the 8 columns mode A fills.
    alpha, beta = (np.array(column) for column in zip(*shot))
    half = 0.5 * np.stack((alpha, beta, np.zeros_like(alpha), np.zeros_like(alpha)))
    trig = np.stack((np.cos(half), np.sin(half)))
    full = np.empty((_SHOT_COLUMNS, len(alpha)))
    _shot_columns(trig, full)
    phase = np.empty((len(_PHASE_COLUMNS), len(alpha)))
    _phase_columns(np.ascontiguousarray(trig[:, :2]), phase)
    rest = np.ones(_SHOT_COLUMNS, dtype=bool)
    rest[_PHASE_COLUMNS] = False
    assert np.all(full[rest] == 0.0)
    assert full[_PHASE_COLUMNS].tobytes() == phase.tobytes()


@pytest.mark.parametrize("mode,variant", FIELD_SETUPS)
@pytest.mark.parametrize("samples", [2, _BLOCK_SIZE - 1, _BLOCK_SIZE + 1, 20000])
def test_monte_carlo_matches_matrix_product_reference(mode, variant, samples):
    setup = FieldSetup(mode=mode, sigma=1.3, variant=variant)
    rng = np.random.default_rng(67)
    rank4 = random_rank_state(rng, 4)
    # Hermitian only within the validation tolerance: each element must use
    # its own entry, never its conjugate partner's.
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    skew = (g - g.conj().T) * (4e-13 / np.abs(g - g.conj().T).max())
    skewed = rank4 + skew
    assert 0.0 < np.abs(skewed - skewed.conj().T).max() < 1e-12
    for rho0 in [experiment_initial(), rank4, skewed]:
        estimate = ensemble_average_monte_carlo(rho0, setup, samples, 11)
        mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, samples, 11)
        assert np.abs(estimate.mean - mean).max() <= 1e-15
        # Elements whose shot-to-shot spread is rounding noise (stderr ~1e-20) are
        # held to the package's stderr floor; all others to 1e-12 relative.
        np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
        np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


@pytest.mark.parametrize("variant", VARIANTS)
def test_mode_a_stderr_keeps_a_vanishing_spread(variant):
    # Two shots whose Re deviations of element (1, 2) agree exactly, so its true
    # standard error is 0.  A sum-of-squares formula leaves roundoff of ~1e-9.
    setup = FieldSetup(mode="A", sigma=1.3, variant=variant)
    for seed in range(8):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        alpha, beta = _sampled_angles(rng, setup, 2)
        phase = np.exp(0.5j * (alpha + beta))  # exp(i theta_12) of each shot
        # rho_12 = exp(-i chi) / 2 turns the shots' difference rho_12 (phase[0] - phase[1]) imaginary.
        chi = np.angle(phase[0] - phase[1]) - np.pi / 2.0
        rho0 = from_pure(np.array([0.0, 1.0, np.exp(1j * chi), 0.0]) / np.sqrt(2.0))
        estimate = ensemble_average_monte_carlo(rho0, setup, 2, seed)
        mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, 2, seed)
        assert estimate.stderr_re[1, 2] <= _STDERR_FLOOR
        assert np.abs(estimate.mean - mean).max() <= 1e-15
        np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
        np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    sigma=st.floats(min_value=0.0, max_value=3.0),
    samples=st.integers(2, 20000),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_mode_a_monte_carlo_matches_reference_over_random_specs(variant, sigma, samples, rank, seed):
    rho0 = random_rank_state(np.random.default_rng(seed), rank)
    setup = FieldSetup(mode="A", sigma=sigma, variant=variant)
    estimate = ensemble_average_monte_carlo(rho0, setup, samples, seed)
    mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, samples, seed)
    assert np.abs(estimate.mean - mean).max() <= 1e-15
    np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
    np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


@settings(max_examples=150, deadline=None)
@given(
    sigma=st.floats(min_value=0.0, max_value=3.0),
    samples=st.integers(2, 20000),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_mode_b_monte_carlo_matches_reference_over_random_specs(sigma, samples, rank, seed):
    rho0 = random_rank_state(np.random.default_rng(seed), rank)
    setup = FieldSetup(mode="B", sigma=sigma)
    estimate = ensemble_average_monte_carlo(rho0, setup, samples, seed)
    mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, samples, seed)
    assert np.abs(estimate.mean - mean).max() <= 1e-15
    np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
    np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


def test_mode_b_stderr_keeps_its_digits_at_two_samples():
    # A spread that is small next to the deviation itself: a one-pass
    # sum-of-squares variance gives stderr_re[1, 2] = 5.894913987866559e-05 here.
    rho0 = random_rank_state(np.random.default_rng(20), 1)
    setup = FieldSetup(mode="B", sigma=0.5)
    estimate = ensemble_average_monte_carlo(rho0, setup, 2, 20)
    mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, 2, 20)
    assert abs(stderr_re[1, 2] - 5.8949139882774615e-05) < 1e-18
    assert abs(estimate.stderr_re[1, 2] / stderr_re[1, 2] - 1.0) <= 1e-12
    assert np.abs(estimate.mean - mean).max() <= 1e-15
    np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
    np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


def test_mode_b_stderr_is_zero_exactly_where_no_shot_moves_an_element():
    # Elements whose four entries rho_jk, rho_{j,Fk}, rho_{Fj,k}, rho_{Fj,Fk}
    # all vanish never move, so their standard errors are exactly 0.
    rho0 = from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
    estimate = ensemble_average_monte_carlo(rho0, FieldSetup(mode="B", sigma=1.3), 1000, 3)
    path_i = np.ix_([0, 2], [0, 2])
    frozen = np.ones((4, 4), dtype=bool)
    frozen[path_i] = False
    assert np.all(estimate.stderr_re[frozen] == 0.0) and np.all(estimate.stderr_im[frozen] == 0.0)
    assert np.all(estimate.mean[frozen] == 0.0)
    assert estimate.stderr_re[path_i].min() > 0.0
