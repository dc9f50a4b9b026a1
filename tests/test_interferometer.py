import numpy as np
import pytest

from spinpath.interferometer import (
    FieldSetup,
    ShotAngles,
    conditioned_unitary,
    consistency_ratio,
    ensemble_average_analytic,
    ensemble_average_monte_carlo,
    lambda_from_sigma,
    single_shot_state,
    spin_rotation,
)
from spinpath.lindblad import DecoherenceSpec, evolve
from spinpath.measures import mixedness
from spinpath.pauli import SIGMA_X
from spinpath.states import experiment_initial


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


def test_spin_rotation_z_is_phase_diagonal():
    alpha = 0.77
    expected = np.diag([np.exp(1j * alpha / 2.0), np.exp(-1j * alpha / 2.0)])
    assert np.abs(spin_rotation("z", alpha) - expected).max() < 1e-15


def test_spin_rotation_x_special_angles():
    assert np.abs(spin_rotation("x", np.pi) - 1j * SIGMA_X).max() < 1e-15
    assert np.abs(spin_rotation("x", 2.0 * np.pi) + np.eye(2)).max() < 1e-12


def test_spin_rotation_unitary_and_additive():
    rng = np.random.default_rng(41)
    for axis in ("x", "z"):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        u, v = spin_rotation(axis, a), spin_rotation(axis, b)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
        assert np.abs(u @ v - spin_rotation(axis, a + b)).max() < 1e-12


def test_spin_rotation_rejects_unknown_axis():
    with pytest.raises(ValueError):
        spin_rotation("y", 1.0)


def test_conditioned_unitary_identity_at_zero_angles():
    u = conditioned_unitary(ShotAngles(alpha=0.0, beta=0.0), "A")
    assert np.abs(u - np.eye(4)).max() < 1e-15
    u = conditioned_unitary(ShotAngles(alpha=0.0, beta=0.0, gamma=0.0, delta=0.0), "B")
    assert np.abs(u - np.eye(4)).max() < 1e-15


def test_conditioned_unitary_angle_requirements():
    with pytest.raises(ValueError):
        conditioned_unitary(ShotAngles(alpha=0.1, beta=0.2), "B")
    with pytest.raises(ValueError):
        conditioned_unitary(ShotAngles(alpha=0.1, beta=0.2, gamma=0.3, delta=0.4), "A")


def test_conditioned_unitary_is_unitary():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a, b, g, d = rng.uniform(-np.pi, np.pi, 4)
        u = conditioned_unitary(ShotAngles(alpha=a, beta=b, gamma=g, delta=d), "B")
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_single_shot_mode_a_coherence_phase():
    rng = np.random.default_rng(47)
    for _ in range(10):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        state = single_shot_state(experiment_initial(), ShotAngles(alpha=a, beta=b), "A")
        expected = -0.5 * np.exp(1j * (a + b) / 2.0)
        assert abs(state[1, 2] - expected) < 1e-12


def test_single_shot_mode_a_phase_wraps_to_sign_flip():
    state = single_shot_state(
        experiment_initial(), ShotAngles(alpha=1.5 * np.pi, beta=0.5 * np.pi), "A"
    )
    assert abs(state[1, 2] - 0.5) < 1e-12


def test_single_shot_mode_b_matches_amplitude_construction():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a, b, g, d = rng.uniform(-np.pi, np.pi, 4)
        shot = ShotAngles(alpha=a, beta=b, gamma=g, delta=d)
        state = single_shot_state(experiment_initial(), shot, "B")
        assert np.abs(state - mode_b_shot_matrix(a, b, g, d)).max() < 1e-12


def test_single_shot_mode_b_x_flip_fills_corner():
    shot = ShotAngles(alpha=0.0, beta=0.0, gamma=np.pi, delta=0.0)
    state = single_shot_state(experiment_initial(), shot, "B")
    assert abs(state[0, 0] - 0.5) < 1e-12


def test_single_shot_preserves_purity():
    rng = np.random.default_rng(59)
    a, b, g, d = rng.uniform(-np.pi, np.pi, 4)
    state = single_shot_state(
        experiment_initial(), ShotAngles(alpha=a, beta=b, gamma=g, delta=d), "B"
    )
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


def test_analytic_average_rejects_mode_b_variants():
    for variant in ("single_field_one_path", "single_field_both_paths"):
        setup = FieldSetup(mode="B", sigma=1.0, variant=variant)
        with pytest.raises(ValueError):
            ensemble_average_analytic(experiment_initial(), setup)


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
    offset = conditioned_unitary(ShotAngles(alpha=0.83, beta=-1.91), "A")
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
    with pytest.raises(ValueError):
        lambda_from_sigma(FieldSetup(mode="A", sigma=1.0), 0.0)
    with pytest.raises(ValueError):
        lambda_from_sigma(
            FieldSetup(mode="B", sigma=1.0, variant="single_field_one_path"), 1.0
        )


def test_monte_carlo_sigma_zero_is_exact():
    setup = FieldSetup(mode="A", sigma=0.0)
    estimate = ensemble_average_monte_carlo(experiment_initial(), setup, 100, 0)
    assert np.abs(estimate.mean - experiment_initial()).max() == 0.0
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
    bad = FieldSetup(mode="B", sigma=1.0, variant="single_field_both_paths")
    with pytest.raises(ValueError):
        ensemble_average_monte_carlo(experiment_initial(), bad, 100, 0)


def test_field_setup_validation():
    with pytest.raises(ValueError):
        FieldSetup(mode="C", sigma=1.0)
    with pytest.raises(ValueError):
        FieldSetup(mode="A", sigma=-1.0)
    with pytest.raises(ValueError):
        FieldSetup(mode="A", sigma=1.0, variant="nonsense")


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
