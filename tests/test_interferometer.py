import json
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ginibre import hermitian_ginibre_state
from spinpath.interferometer import (
    VARIANTS,
    _LAYOUTS,
    _BLOCK_SIZE,
    _PASS_SIZE,
    _STDERR_FLOOR,
    _element_mean_monte_carlo,
    _element_pairs,
    _phasor_plan,
    _rotation_angles,
    _shot_coefficients,
    _shot_moments,
    _shot_phasors,
    _shot_table,
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


QUADRATURE_AXES = {"z": np.diag([1.0, -1.0]), "x": np.array([[0.0, 1.0], [1.0, 0.0]])}
QUADRATURE_PATHS = {"I": np.diag([1.0, 0.0]), "II": np.diag([0.0, 1.0]), "both": np.eye(2)}


def quadrature_average(rho0, rotations, sigma):
    """Gaussian average of the shot states by quadrature: per rotation (spin
    axis s, path projector P), an 80-node Gauss-Hermite average of
    rho -> U rho U^dagger with U(theta) = exp(i theta s/2) (x) P + 1 (x) (1 - P),
    theta = sigma x; the averages composed in draw order, so a shot's last
    rotation acts first."""
    nodes, weights = hermegauss(80)
    weights = weights / weights.sum()
    rho = rho0
    for axis, path in reversed(rotations):
        s, here = QUADRATURE_AXES[axis], QUADRATURE_PATHS[path]
        half = 0.5 * sigma * nodes[:, None, None]
        spin = np.cos(half) * np.eye(2) + 1j * np.sin(half) * s  # exp(i theta s/2), as s^2 = 1
        u = np.array([np.kron(r, here) for r in spin]) + np.kron(np.eye(2), np.eye(2) - here)
        rho = np.einsum("k,kab,bc,kdc->ad", weights, u, rho, u.conj())
    return rho


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


# The angles reference_shot_unitaries takes: z on paths I and II, then x on paths I and II.
KERNEL_SLOTS = (("z", "I"), ("z", "II"), ("x", "I"), ("x", "II"))


def kernel_angles(layout, drawn):
    """(alpha, beta) in mode A or (alpha, beta, gamma, delta) in mode B from
    ``drawn``, one row of angles per rotation of the layout; a rotation on
    both paths turns both of its angles, and an angle no rotation turns is 0."""
    mode, _ = layout
    drawn = np.asarray(drawn, dtype=float)
    angles = np.zeros((2 if mode == "A" else 4, drawn.shape[1]))
    for (axis, path), theta in zip(_LAYOUTS[layout][0], drawn):
        for one in ("I", "II") if path == "both" else (path,):
            angles[KERNEL_SLOTS.index((axis, one))] = theta
    return tuple(angles)


def _sampled_angles(rng, setup, count):
    """Kernel angles of one block of the Monte Carlo's draws."""
    return kernel_angles((setup.mode, setup.variant), _rotation_angles(rng, setup, count))


def reference_shots(rho0, setup, samples, seed):
    """(samples, 4, 4) shot states u @ rho0 @ u^dagger, as batched products,
    of the same blocks, child seeds and draws as ensemble_average_monte_carlo."""
    shots = []
    for block_index, start in enumerate(range(0, samples, _BLOCK_SIZE)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, block_index)))
        count = min(_BLOCK_SIZE, samples - start)
        u = reference_shot_unitaries(*_sampled_angles(rng, setup, count))
        shots.append(u @ rho0 @ u.conj().transpose(0, 2, 1))
    return np.concatenate(shots)


def reference_monte_carlo(rho0, setup, samples, seed):
    """Block Monte Carlo over ``reference_shots``.

    The deviations from rho0 are averaged in extended precision and their
    variance is taken in two passes (mean first, then squared distances
    to it), so the reference carries neither summation roundoff nor the
    cancellation of sum-of-squares formulas.  Returns (mean, stderr_re,
    stderr_im).
    """
    shots = reference_shots(rho0, setup, samples, seed)
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


def table_shot_states(layout, rho0, drawn):
    """(N, 4, 4) shot states rho0 + U g as the Monte Carlo kernel represents
    them: U from the layout's table and rho0 alone, g the table's columns of
    each shot.  ``drawn`` holds one length-N row of angles per rotation."""
    table = _shot_table(*layout)
    drawn = np.asarray(drawn, dtype=float).reshape(table.phases.shape[1], -1)
    z = _shot_phasors(table.plan, drawn, np.empty((table.plan.pairs.stop, drawn.shape[1]), dtype=complex))
    columns = np.stack((z.real - 1.0, z.imag), axis=1).reshape(2 * len(z), -1)
    re, im = (_shot_coefficients(table, np.asarray(rho0, dtype=complex)) @ columns).reshape(2, 4, 4, -1)
    return rho0 + (re + 1j * im).transpose(2, 0, 1)


def shot_states(rho0, *angles):
    """Shot states of the layout whose rotations turn exactly these angles:
    (alpha, beta) for mode A, (alpha, beta, gamma, delta) for mode B."""
    return table_shot_states((("A", "B")[len(angles) == 4], "both_paths_independent"), rho0, angles)


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
    # Every column's exact mean is expm1(-0) = -0: the input comes back bit for bit.
    rng = np.random.default_rng(61)
    for mode, variant in sorted(_LAYOUTS):
        setup = FieldSetup(mode=mode, sigma=0.0, variant=variant)
        for rho0 in [experiment_initial()] + [hermitian_ginibre_state(rng, rank) for rank in (1, 2, 3, 4)]:
            assert np.array_equal(ensemble_average_analytic(rho0, setup), rho0)


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
    rho0 = hermitian_ginibre_state(np.random.default_rng(7), 4)
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
    z_last = quadrature_average(experiment_initial(), (("z", "I"), ("z", "II"), ("x", "I"), ("x", "II")), 0.9)
    x_last = quadrature_average(experiment_initial(), (("x", "I"), ("x", "II"), ("z", "I"), ("z", "II")), 0.9)
    assert np.abs(z_last - x_last).max() < 1e-12
    setup = FieldSetup(mode="B", sigma=0.9)
    assert np.abs(ensemble_average_analytic(experiment_initial(), setup) - z_last).max() <= 1e-14


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


@pytest.mark.parametrize("sigma, dwell", [(np.array(2.0), 1.0), (np.float64(2.0), np.array(1.0)), (2, 1)])
def test_lambda_from_sigma_returns_a_float(sigma, dwell):
    lam = lambda_from_sigma(FieldSetup(mode="A", sigma=sigma), dwell)
    assert type(lam) is float and lam == 1.0


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
    for rho0 in [experiment_initial()] + [hermitian_ginibre_state(rng, rank) for rank in (1, 2, 3, 4)]:
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


def test_ensemble_estimate_of_an_array_sigma_serializes():
    # FieldSetup stores check_real's float, so the payload's sigma is a JSON number.
    setup = FieldSetup(mode="A", sigma=np.array(0.5))
    assert type(setup.sigma) is float
    payload = ensemble_average_monte_carlo(experiment_initial(), setup, 100, 1).to_json()
    assert json.loads(json.dumps(payload))["sigma"] == 0.5


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
    layout=st.sampled_from(sorted(_LAYOUTS)),
    shot=st.lists(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES), min_size=1, max_size=8),
)
def test_shot_states_match_matrix_products(seed, rank, layout, shot):
    # The kernel's per-shot representation rho0 + U g, with g the columns of
    # the layout's table, against u rho0 u^dagger.
    rho0 = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    drawn = np.array(shot).T[: len(_LAYOUTS[layout][0])]
    u = reference_shot_unitaries(*kernel_angles(layout, drawn))
    expected = u @ rho0 @ u.conj().transpose(0, 2, 1)
    assert np.abs(table_shot_states(layout, rho0, drawn) - expected).max() <= 1e-15


def test_table_columns_and_blocks():
    # Two columns per pair of nonzero C_q; the blocks split U's products.
    counts, products = {}, {}
    for layout in _LAYOUTS:
        table = _shot_table(*layout)
        counts[layout] = 2 * len(table.phases)
        products[layout] = sum(len(rows) * (cols.stop - cols.start) for rows, cols in table.blocks)
        covered = np.concatenate([np.arange(cols.start, cols.stop) for _, cols in table.blocks])
        assert np.array_equal(np.sort(covered), np.arange(counts[layout]))
        rows = np.concatenate([rows for rows, _ in table.blocks])
        assert len(set(rows.tolist())) == len(rows)
    assert list(counts.values()) == [8, 4, 2, 32]
    assert products[("B", "both_paths_independent")] == 192
    assert [len(_shot_table(*layout).blocks) for layout in _LAYOUTS] == [4, 2, 1, 6]


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    shot=st.lists(st.tuples(ANGLES, ANGLES, ANGLES, ANGLES), min_size=1, max_size=8),
)
def test_shot_phasors_match_extended_precision(layout, shot):
    # One tan per rotation, squares, conjugates and products against
    # exp(i q.theta/2) in long double; a last shot at zero angles gives 1.
    table = _shot_table(*layout)
    drawn = np.array(shot).T[: table.phases.shape[1]]
    drawn = np.concatenate((drawn, np.zeros((len(drawn), 1))), axis=1)
    z = _shot_phasors(table.plan, drawn, np.empty((table.plan.pairs.stop, drawn.shape[1]), dtype=complex))
    phase = table.phases.astype(np.longdouble) @ drawn.astype(np.longdouble) / 2
    assert np.abs(z.real - np.cos(phase)).max() <= 4e-15
    assert np.abs(z.imag - np.sin(phase)).max() <= 4e-15
    assert np.all(z[:, -1] == 1.0)


@pytest.mark.parametrize(
    "phases, base",
    [
        ([(1, -1, 0), (2, 0, -2), (1, -1, 2)], [1, 1, 2]),  # (1, 1) and (2, 2) serve only conjugates
        ([(2, 0), (0, 2), (2, 2), (2, -2)], [2, 2]),  # only even entries; more pairs than factors
        ([(2,)], [2]),
    ],
)
def test_phasor_plan_on_synthetic_phases(phases, base):
    # One tan row per rotation at slope b/4; the plan's own checks (below);
    # the pairs come out as exp(i q.theta/2).
    plan = _phasor_plan(phases, base)
    assert plan.slopes.tolist() == [b / 4.0 for b in base]
    check_plan_rows(plan, len(phases))
    angles = np.random.default_rng(7).normal(0.0, 2.0, (len(base), 64))
    z = _shot_phasors(plan, angles, np.empty((plan.pairs.stop, angles.shape[1]), dtype=complex))
    assert np.abs(z - np.exp(0.5j * (np.array(phases) @ angles))).max() <= 4e-15


def check_plan_rows(plan, pairs):
    """The plan's last ``pairs`` rows hold the pairs, no step writes a row
    it reads or one written before, each reads a base row or one written
    before, and at least as many rows lie ahead of the pairs as there are
    pairs, so the centred columns fit there."""
    rotations, rows = len(plan.slopes), plan.pairs.stop
    assert plan.pairs == slice(rows - pairs, rows)
    written = set(range(rotations))
    for _, row, *reads in plan.steps:
        assert row not in written and rotations <= row < rows
        assert {r for r in reads if r is not None} <= written
        written.add(row)
    assert set(range(rows - pairs, rows)) <= written
    assert rows - pairs >= pairs


def test_phasor_plan_of_each_layout():
    # Mode B: 16 phasors from 4 tan rows in 26 steps, none a copy, in 32
    # rows.  The base is b = 1 wherever some pair has |q_r| = 1.
    tables = {layout: _shot_table(*layout) for layout in _LAYOUTS}
    for table in tables.values():
        check_plan_rows(table.plan, len(table.phases))
        expected = [0.25 if np.any(np.abs(column) == 1) else 0.5 for column in table.phases.T]
        assert table.plan.slopes.tolist() == expected
    mode_b = tables["B", "both_paths_independent"].plan
    assert (len(mode_b.slopes), len(mode_b.steps), mode_b.pairs.stop) == (4, 26, 32)
    assert all(ufunc is not None for ufunc, *_ in mode_b.steps)
    assert [table.plan.pairs.stop for table in tables.values()] == [8, 4, 2, 32]
    assert [len(table.plan.steps) for table in tables.values()] == [5, 2, 1, 26]


@st.composite
def synthetic_phases(draw):
    """Up to 16 distinct pairs q over 1-5 rotations, each q ahead of -q,
    with entries 0, +-b_r, +-2 b_r, and the bases b_r."""
    base = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=5))
    entry = [st.sampled_from([0, b, -b, 2 * b, -2 * b]) for b in base]
    q = st.tuples(*entry).filter(any).map(lambda q: max(q, tuple(-x for x in q)))
    return draw(st.lists(q, min_size=1, max_size=16, unique=True)), base


@settings(max_examples=300, deadline=None)
@given(case=synthetic_phases(), scale=st.sampled_from([2.0, 20.0]), seed=st.integers(0, 2**32 - 1))
def test_phasor_plan_matches_extended_precision_on_synthetic_phases(case, scale, seed):
    # Up to 5 rotations, as more field layouts may need: each pair one
    # product of cached sub-products, within 4e-15 of exp(i q.theta/2) in
    # long double for angles up to +-20, and exactly 1 at zero angles.
    phases, base = case
    plan = _phasor_plan(phases, base)
    check_plan_rows(plan, len(phases))
    angles = np.random.default_rng(seed).uniform(-scale, scale, (len(base), 65))
    angles[:, -1] = 0.0
    z = _shot_phasors(plan, angles, np.empty((plan.pairs.stop, angles.shape[1]), dtype=complex))
    phase = np.array(phases).astype(np.longdouble) @ angles.astype(np.longdouble) / 2
    assert np.abs(z.real - np.cos(phase)).max() <= 4e-15
    assert np.abs(z.imag - np.sin(phase)).max() <= 4e-15
    assert np.all(z[:, -1] == 1.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 4),
    layout=st.sampled_from(sorted(_LAYOUTS)),
    sigma=st.floats(min_value=0.0, max_value=3.0),
)
def test_table_gaussian_average_matches_analytic(seed, rank, layout, sigma):
    # The table's exact column means against a reference that never reads
    # the table: one Gauss-Hermite average per rotation, composed in draw order.
    rho0 = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    setup = FieldSetup(mode=layout[0], sigma=sigma, variant=layout[1])
    reference = quadrature_average(rho0, _LAYOUTS[layout][0], sigma)
    assert np.abs(ensemble_average_analytic(rho0, setup) - reference).max() <= 1e-14


@pytest.mark.parametrize("mode,variant", FIELD_SETUPS)
@pytest.mark.parametrize("samples", [2, _BLOCK_SIZE - 1, _BLOCK_SIZE + 1, 20000])
def test_monte_carlo_matches_matrix_product_reference(mode, variant, samples):
    setup = FieldSetup(mode=mode, sigma=1.3, variant=variant)
    rng = np.random.default_rng(67)
    rank4 = hermitian_ginibre_state(rng, 4)
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
    rho0 = hermitian_ginibre_state(np.random.default_rng(seed), rank)
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
    rho0 = hermitian_ginibre_state(np.random.default_rng(seed), rank)
    setup = FieldSetup(mode="B", sigma=sigma)
    estimate = ensemble_average_monte_carlo(rho0, setup, samples, seed)
    mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, samples, seed)
    assert np.abs(estimate.mean - mean).max() <= 1e-15
    np.testing.assert_allclose(estimate.stderr_re, stderr_re, rtol=1e-12, atol=_STDERR_FLOOR)
    np.testing.assert_allclose(estimate.stderr_im, stderr_im, rtol=1e-12, atol=_STDERR_FLOOR)


# --- the angle draw ------------------------------------------------------------


def _block_angles(layout, sigma, count, seed):
    return _rotation_angles(np.random.default_rng(seed), FieldSetup(layout[0], sigma, layout[1]), count)


def test_rotation_angles_have_the_normal_moments():
    # 2**21 angles of width 1: the mean, E[x^2] = 1 and E[x^4] = 3, each within
    # five standard errors (Var x = 1, Var x^2 = 2, Var x^4 = 105 - 9).
    x = _block_angles(("B", "both_paths_independent"), 1.0, 2**19, 31).ravel()
    for power, moment, variance in ((1, 0.0, 1.0), (2, 1.0, 2.0), (4, 3.0, 96.0)):
        assert abs(np.mean(x**power) - moment) <= 5.0 * np.sqrt(variance / x.size)


def test_rotation_angles_pass_a_binned_chi_square_against_the_normal_law():
    # 40 bins of width 0.2 on [-4, 4] and the two tails (at least 60 expected
    # counts each) against Phi(x) = (1 + erf(x / sqrt 2)) / 2; the statistic
    # must lie within five standard deviations, sqrt(2 dof), of its mean dof.
    x = _block_angles(("A", "single_field_one_path"), 1.0, 2_000_001, 32)[0]
    edges = np.concatenate(([-np.inf], np.linspace(-4.0, 4.0, 41), [np.inf]))
    observed = np.histogram(x, edges)[0]
    expected = x.size * np.diff([0.5 * (1.0 + math.erf(e / math.sqrt(2.0))) for e in edges])
    assert expected.min() > 60.0
    dof = len(observed) - 1
    assert ((observed - expected) ** 2 / expected).sum() <= dof + 5.0 * np.sqrt(2.0 * dof)


@pytest.mark.parametrize("layout", [FIELD_SETUPS[i] for i in (0, 2, 3)])  # 2, 1 and 4 rotations
def test_rotation_angle_partners_are_independent(layout):
    # One uniform pair gives a cosine and a sine partner: rows r and r + R/2
    # of R rows, or shots k and k + half of one row.  Neither the partners
    # nor their squares may correlate beyond five standard errors.
    rows = len(_LAYOUTS[layout][0])
    x = _block_angles(layout, 1.0, 2_000_000 // rows, 33 + rows)
    if rows == 1:
        first, second = x[0, :1_000_000], x[0, 1_000_000:]
    else:
        first, second = x[:rows // 2].ravel(), x[rows // 2:].ravel()
    for f in (np.positive, np.square):
        assert abs(np.corrcoef(f(first), f(second))[0, 1]) <= 5.0 / np.sqrt(first.size)


@pytest.mark.parametrize(
    "layout, count",
    [(FIELD_SETUPS[1], 1), (FIELD_SETUPS[2], 8191), (FIELD_SETUPS[0], 4097), (FIELD_SETUPS[3], 3)],
)
def test_rotation_angles_are_box_muller_pairs_of_one_uniform_draw(layout, count):
    # Odd sizes drop the last sine; the draw takes exactly one random((2, half)).
    rows = len(_LAYOUTS[layout][0])
    size = rows * count
    rng, reference = np.random.default_rng(34), np.random.default_rng(34)
    angles = _rotation_angles(rng, FieldSetup(layout[0], 0.7, layout[1]), count)
    u, v = reference.random((2, (size + 1) // 2))
    r, phi = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * (v - 0.5)
    expected = 0.7 * np.concatenate((r * np.cos(phi), r * np.sin(phi)))[:size].reshape(rows, count)
    assert angles.shape == (rows, count)
    np.testing.assert_allclose(angles, expected, rtol=1e-12, atol=1e-14)
    assert rng.random() == reference.random()


@pytest.mark.parametrize("sigma", [0.37, 2.0, 1e-300, 5e-324, 1.3e154])
def test_rotation_angles_at_sigma_are_sigma_times_those_at_1(sigma):
    one = _block_angles(("B", "both_paths_independent"), 1.0, 1001, 35)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        angles = _block_angles(("B", "both_paths_independent"), sigma, 1001, 35)
    assert np.array_equal(angles, one * sigma)


def test_rotation_angles_stay_finite_at_the_ends_of_the_uniforms():
    # u = 0 gives radius 0; v = 0 gives tan(-pi/2 rounded), about -1.6e16,
    # whose square stays finite: its cosine is -1 and its sine -1.2e-16, pi
    # rounded; v = 1 - 2^-53 has sine 7e-16.  Cosine partners fill rows 0-1
    # and sine partners rows 2-3.
    class Ends:
        def random(self, shape):
            assert shape == (2, 4)
            return np.array([[0.0, 0.0, 1.0 - 2.0**-53, 0.5], [0.0, 0.5, 0.0, 1.0 - 2.0**-53]])

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        angles = _rotation_angles(Ends(), FieldSetup("B", 1.3e154), 2)
    assert np.all(angles[0] == 0.0) and np.all(angles[2] == 0.0)
    assert angles[1, 0] == -np.sqrt(-2.0 * np.log1p(-(1.0 - 2.0**-53))) * 1.3e154
    assert np.all(np.abs(angles[3]) <= 1e-14 * np.abs(angles[1]))


def test_mode_b_stderr_keeps_its_digits_at_two_samples():
    # A spread 1/1580 of the deviation itself: a one-pass sum-of-squares
    # variance gives stderr_re[1, 2] = 2.138659953913798e-05 here, 2e-10 off.
    rho0 = hermitian_ginibre_state(np.random.default_rng(1184), 1)
    setup = FieldSetup(mode="B", sigma=0.5)
    estimate = ensemble_average_monte_carlo(rho0, setup, 2, 1184)
    mean, stderr_re, stderr_im = reference_monte_carlo(rho0, setup, 2, 1184)
    assert abs(stderr_re[1, 2] - 2.1386599534881784e-05) < 1e-18
    x = reference_shots(rho0, setup, 2, 1184).real[:, 1, 2] - rho0.real[1, 2]
    one_pass = np.sqrt(((x * x).sum() - x.sum() ** 2 / 2.0) / 2.0)
    assert abs(one_pass - stderr_re[1, 2]) > 1e-15
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


# Elements whose pairs alone would take other base factors than their
# layout's: (0, 2) reaches only (2, 0) in mode A both paths and only
# (2, 0, +-2, 0) and (2, 0, 0, 0) in mode B; (0, 0) no pair in mode A.
ELEMENTS = [(1, 2), (0, 2), (1, 3), (0, 0)]


@pytest.mark.parametrize("element", ELEMENTS)
def test_element_pairs_are_the_pairs_that_reach_the_element(element):
    # Read from the table's support: for (1, 2), 1 of 4 pairs in mode A
    # both paths and 4 of 16 in mode B.  Every other pair's columns leave
    # the element alone on any input, and the cut plan keeps the layout's
    # base factors.
    rho0 = hermitian_ginibre_state(np.random.default_rng(3), 4)
    kept = {}
    for layout in _LAYOUTS:
        table = _shot_table(*layout)
        indices, plan = _element_pairs(*layout, element)
        u = _shot_coefficients(table, rho0).reshape(32, -1, 2)
        at = 4 * element[0] + element[1]
        reached = np.flatnonzero(u[[at, 16 + at]].any(axis=(0, 2)))
        assert indices.tolist() == reached.tolist()
        assert plan.slopes.tolist() == table.plan.slopes.tolist()
        check_plan_rows(plan, len(indices))
        kept[layout] = (len(indices), len(table.phases))
    if element == (1, 2):
        assert list(kept.values()) == [(1, 4), (1, 2), (1, 1), (4, 16)]


@settings(max_examples=100, deadline=None)
@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    sigma=st.just(0.0) | st.floats(min_value=0.0, max_value=3.0),
    samples=st.sampled_from([2, 4095, 4096, 4097, 8192, 8193]) | st.integers(2, 20000),
    rank=st.none() | st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    element=st.sampled_from(ELEMENTS),
)
@example(layout=("B", "both_paths_independent"), sigma=1.2, samples=20000, rank=None, seed=4, element=(1, 2))
@example(layout=("A", "both_paths_independent"), sigma=1.1, samples=4097, rank=3, seed=5, element=(0, 2))
def test_element_route_is_the_mean_states_entry(layout, sigma, samples, rank, seed, element):
    # calibrate's route to <rho_12> (and to other elements), on its own
    # input (rank None) or a drawn one: the full estimate's mean entry, bit
    # for bit, in every layout.
    rng = np.random.default_rng(seed)
    rho0 = experiment_initial() if rank is None else hermitian_ginibre_state(rng, rank)
    setup = FieldSetup(mode=layout[0], sigma=sigma, variant=layout[1])
    entry = _element_mean_monte_carlo(rho0, setup, samples, seed, element)
    assert entry.tobytes() == ensemble_average_monte_carlo(rho0, setup, samples, seed).mean[element].tobytes()


def signed_zero_state():
    """A rank-2 state whose last row and column are zeros of both signs."""
    rho0 = hermitian_ginibre_state(np.random.default_rng(71), 2)
    rho0[3, :] = rho0[:, 3] = 0.0
    rho0 = rho0 / np.trace(rho0).real
    rho0[0, 3], rho0[3, 0], rho0[3, 3] = complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0)
    return rho0


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("samples", [2, _PASS_SIZE - 1, _PASS_SIZE + 1, _BLOCK_SIZE, 3 * _BLOCK_SIZE + 5])
def test_monte_carlo_at_sigma_zero_draws_nothing(monkeypatch, layout, samples):
    # The mean, and calibrate's route to each of its elements, is the pass
    # kernel's on explicit zero-angle blocks, byte for byte (signed zeros
    # included), and every standard error is 0.0.
    table = _shot_table(*layout)
    blocks = [np.zeros((table.phases.shape[1], min(_BLOCK_SIZE, samples - start)))
              for start in range(0, samples, _BLOCK_SIZE)]
    states = [experiment_initial(), signed_zero_state()]
    kernel = [_shot_moments(rho0, iter(blocks), samples, table) for rho0 in states]

    def draw(*args, **kwargs):
        raise AssertionError("a draw at sigma = 0")

    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(np.random, "SeedSequence", draw)
    setup = FieldSetup(mode=layout[0], sigma=0.0, variant=layout[1])
    for rho0, (mean, var_re, var_im) in zip(states, kernel):
        assert not var_re.any() and not var_im.any()
        for element in np.ndindex(4, 4):
            entry = _element_mean_monte_carlo(rho0, setup, samples, 5, element)
            assert entry.tobytes() == mean[element].tobytes()
        estimate = ensemble_average_monte_carlo(rho0, setup, samples, 5)
        assert estimate.mean.tobytes() == mean.tobytes()
        assert estimate.stderr_re.tobytes() == estimate.stderr_im.tobytes() == np.zeros((4, 4)).tobytes()


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("samples", [2, _PASS_SIZE + 1, 3 * _BLOCK_SIZE + 5])
def test_monte_carlo_at_sigma_zero_evaluates_one_shot(monkeypatch, layout, samples):
    # At zero width every estimator, calibrate's route included, runs the
    # ordinary passes on a single shot at zero angles, whatever the sample count.
    shots = []

    def recording(plan, angles, phasors):
        shots.append(angles.shape[1])
        return _shot_phasors(plan, angles, phasors)

    def draw(*args, **kwargs):
        raise AssertionError("a draw at sigma = 0")

    monkeypatch.setattr("spinpath.interferometer._shot_phasors", recording)
    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(np.random, "SeedSequence", draw)
    setup = FieldSetup(mode=layout[0], sigma=0.0, variant=layout[1])
    coherence = lambda *args: _element_mean_monte_carlo(*args, (1, 2))  # noqa: E731
    for estimator in (ensemble_average_monte_carlo, coherence):
        shots.clear()
        estimator(experiment_initial(), setup, samples, 5)
        assert shots == [1]
