import numpy as np
import pytest

from spinpath.measures import (
    MeasureReport,
    concurrence,
    concurrence_bell_diagonal,
    measure_report,
    mixedness,
    wootters_roots,
)
from spinpath.states import (
    StateValidationError,
    bell_diagonal,
    experiment_initial,
    from_pure,
    maximally_mixed,
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_singlet_is_pure_and_maximally_entangled():
    rho = experiment_initial()
    assert abs(mixedness(rho) - 1.0) < 1e-12
    assert abs(concurrence(rho) - 1.0) < 1e-12


def test_maximally_mixed_values():
    rho = maximally_mixed()
    assert abs(mixedness(rho) - 0.25) < 1e-12
    assert concurrence(rho) < 1e-12


def test_mixedness_equals_weight_square_sum():
    rho = bell_diagonal((0.4, 0.3, 0.2, 0.1))
    assert abs(mixedness(rho) - 0.30) < 1e-12


def test_concurrence_bell_diagonal_examples():
    assert abs(concurrence(bell_diagonal((0.7, 0.1, 0.1, 0.1))) - 0.4) < 1e-10
    assert abs(concurrence_bell_diagonal((0.0, 0.0, 0.0, 1.0)) - 1.0) < 1e-15
    assert concurrence_bell_diagonal((0.5, 0.5, 0.0, 0.0)) == 0.0
    assert abs(concurrence_bell_diagonal((0.6, 0.2, 0.1, 0.1)) - 0.2) < 1e-15


def test_concurrence_of_random_pure_states_to_machine_precision():
    # For a pure state C = 2|psi0 psi3 - psi1 psi2| (Wootters 1998).
    rng = np.random.default_rng(41)
    psi = rng.normal(size=(5000, 4)) + 1j * rng.normal(size=(5000, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    exact = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
    worst = max(
        abs(concurrence(np.outer(v, v.conj())) - c) for v, c in zip(psi, exact)
    )
    assert worst <= 1e-13


def test_product_state_has_zero_roots():
    rho = from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(wootters_roots(rho)).max() < 1e-9
    assert concurrence(rho) == 0.0


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        nu = rng.dirichlet(np.ones(4))
        rho = bell_diagonal(nu)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-9


def test_mixedness_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u = random_unitary(rng, 4)
        assert abs(mixedness(u @ rho @ u.conj().T) - mixedness(rho)) < 1e-10


def test_shortcut_agrees_with_full_wootters():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        nu = rng.dirichlet(np.ones(4))
        full = concurrence(bell_diagonal(nu))
        shortcut = concurrence_bell_diagonal(nu)
        assert abs(full - shortcut) < 1e-9


def test_entanglement_threshold_at_half():
    rng = np.random.default_rng(37)
    for _ in range(200):
        nu = rng.dirichlet(np.ones(4))
        positive = concurrence(bell_diagonal(nu)) > 0.0
        assert positive == (max(nu) > 0.5 + 1e-12)
    # Boundary cases on both sides.
    assert concurrence(bell_diagonal((0.5, 0.5, 0.0, 0.0))) == 0.0
    eps = 1e-6
    above = (0.5 + eps, 0.5 - eps, 0.0, 0.0)
    assert concurrence(bell_diagonal(above)) > 0.0


def test_measure_report_fields_and_json():
    report = measure_report(experiment_initial())
    assert abs(report.mixedness - 1.0) < 1e-12
    assert abs(report.concurrence - 1.0) < 1e-12
    assert list(report.wootters_roots) == sorted(report.wootters_roots, reverse=True)
    payload = report.to_json()
    assert set(payload) == {"mixedness", "concurrence", "wootters_roots"}
    assert len(payload["wootters_roots"]) == 4


def test_measures_reject_invalid_state():
    with pytest.raises(ValueError):
        mixedness(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        concurrence(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    stack = np.array([maximally_mixed()] * 5)
    stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(StateValidationError, match="^state 3: positivity"):
        measure_report(stack)


def test_measure_report_range_checks_cover_every_state():
    roots = np.array([[1.0, 0.0, 0.0, 0.0]] * 3)
    good = {"mixedness": np.ones(3), "concurrence": np.ones(3), "wootters_roots": roots}
    MeasureReport(**good)
    for field, index, value, message in (
        ("mixedness", 2, 0.2, "mixedness"),
        ("concurrence", 1, 1.1, "concurrence"),
        ("wootters_roots", 2, [0.0, 1.0, 0.0, 0.0], "wootters_roots"),
    ):
        fields = {name: array.copy() for name, array in good.items()}
        fields[field][index] = value
        with pytest.raises(ValueError, match=message):
            MeasureReport(**fields)
        with pytest.raises(ValueError, match=message):
            MeasureReport(**{name: array[index] for name, array in fields.items()})


def random_states(rng, count):
    """Random density matrices of ranks 1..4 from Ginibre draws."""
    out = []
    for i in range(count):
        g = rng.normal(size=(4, 1 + i % 4)) + 1j * rng.normal(size=(4, 1 + i % 4))
        rho = g @ g.conj().T
        out.append(rho / np.trace(rho).real)
    return np.array(out)


def test_measure_report_stack_equals_per_state_reports():
    rho = random_states(np.random.default_rng(43), 64)
    report = measure_report(rho)
    assert report.mixedness.shape == report.concurrence.shape == (64,)
    assert report.wootters_roots.shape == (64, 4)
    for i, state in enumerate(rho):
        single = measure_report(state)
        assert abs(report.mixedness[i] - single.mixedness) <= 1e-15
        assert abs(report.concurrence[i] - single.concurrence) <= 1e-15
        assert np.abs(report.wootters_roots[i] - single.wootters_roots).max() <= 1e-15
    assert np.abs(wootters_roots(rho) - report.wootters_roots).max() == 0.0
