import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpath.lindblad import DecoherenceSpec, evolve
from spinpath.measures import measure_report
from spinpath.states import (
    EIGENVALUE_FLOOR,
    HERMITICITY_TOL,
    TRACE_TOL,
    BellWeights,
    StateValidationError,
    bell_diagonal,
    bell_state,
    check_real,
    experiment_initial,
    from_pure,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    validate_density_matrix,
)

SINGLET_MATRIX = 0.5 * np.array(
    [
        [0, 0, 0, 0],
        [0, 1, -1, 0],
        [0, -1, 1, 0],
        [0, 0, 0, 0],
    ],
    dtype=complex,
)


def test_bell_state_4_is_antisymmetric_combination():
    expected = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.abs(bell_state(4) - expected).max() < 1e-15


def test_bell_state_1_components():
    expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(bell_state(1) - expected).max() < 1e-15


def test_bell_states_normalized_and_orthonormal():
    vectors = [bell_state(i) for i in range(1, 5)]
    gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
    assert np.abs(gram - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("index", [0, 5, -1])
def test_bell_state_index_out_of_range(index):
    with pytest.raises(ValueError):
        bell_state(index)


def test_bell_diagonal_singlet_weights():
    rho = bell_diagonal((0.0, 0.0, 0.0, 1.0))
    assert np.abs(rho - SINGLET_MATRIX).max() < 1e-15


def test_bell_diagonal_equal_weights_is_maximally_mixed():
    rho = bell_diagonal((0.25, 0.25, 0.25, 0.25))
    assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-15


def test_bell_diagonal_pure_weight_matches_outer_product():
    rho = bell_diagonal((1.0, 0.0, 0.0, 0.0))
    assert np.abs(rho - from_pure(bell_state(1))).max() < 1e-15


def test_bell_diagonal_affine_in_weights():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nu_a = rng.dirichlet(np.ones(4))
        nu_b = rng.dirichlet(np.ones(4))
        t = rng.uniform()
        mixed = bell_diagonal(t * nu_a + (1.0 - t) * nu_b)
        combo = t * bell_diagonal(nu_a) + (1.0 - t) * bell_diagonal(nu_b)
        assert np.abs(mixed - combo).max() < 1e-12


def test_bell_diagonal_eigenvalues_are_the_weights():
    rng = np.random.default_rng(11)
    for _ in range(20):
        nu = rng.dirichlet(np.ones(4))
        eigenvalues = np.linalg.eigvalsh(bell_diagonal(nu))
        assert np.abs(np.sort(eigenvalues) - np.sort(nu)).max() < 1e-12


def hand_written_bell_diagonal(nu):
    """The Bell mixture written out entry by entry: the reference for the table form."""
    nu1, nu2, nu3, nu4 = nu
    s1, s2, d1, d2 = nu1 + nu2, nu3 + nu4, nu1 - nu2, nu3 - nu4
    return 0.5 * np.array(
        [[s1, 0.0, 0.0, d1], [0.0, s2, d2, 0.0], [0.0, d2, s2, 0.0], [d1, 0.0, 0.0, s1]], dtype=complex
    )


def dirichlet_weights(seed, alpha, zeros, slack):
    """Dirichlet weights with the flagged ones set to 0, then the least lowered by ``slack`` and
    the largest raised by it, down to the -1e-12 that ``BellWeights`` accepts."""
    nu = np.where(zeros, 0.0, np.random.default_rng(seed).dirichlet([alpha] * 4))
    nu = nu / nu.sum() if nu.sum() > 0.0 else np.array([1.0, 0.0, 0.0, 0.0])
    nu[np.argmin(nu)] -= slack
    nu[np.argmax(nu)] += slack
    return tuple(nu.tolist())


@settings(max_examples=500, deadline=None)
@given(
    nu=st.builds(
        dirichlet_weights,
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.05, 0.5, 1.0, 5.0]),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.floats(0.0, 1e-12),
    )
    | st.sampled_from([(1, 0, 0, 0), (0, 0, 0, 1), (0.25,) * 4, (0.5, 0.5, 0, 0), (1 - 3e-13, 1e-13, 1e-13, 1e-13)])
)
# Subnormal weights that halving each weight before the product, not each entry after it, gets wrong.
@example(nu=(0.9999999998442254, 1.5577457616577126e-10, -5e-324, 0.0))
@example(nu=(1.0, 0.0, 1.5e-323, 5e-324))
def test_bell_diagonal_is_the_hand_written_matrix_bit_for_bit(nu):
    # Weights drawn here are never -0.0: a -0.0 weight can turn an entry's -0.0 into +0.0.
    rho, reference = bell_diagonal(nu), hand_written_bell_diagonal(BellWeights(nu).nu)
    assert rho.dtype == reference.dtype and rho.tobytes() == reference.tobytes()


def test_bell_weights_reject_negative_and_unnormalized():
    with pytest.raises(ValueError):
        BellWeights((0.5, 0.6, -0.1, 0.0))
    with pytest.raises(ValueError):
        BellWeights((0.5, 0.5, 0.5, 0.5))


def test_bell_weights_that_are_not_finite_are_named():
    with pytest.raises(ValueError, match=r"^weights must be finite, got \(0\.5, nan, 0\.5, 0\.0\)$"):
        BellWeights((0.5, float("nan"), 0.5, 0.0))


def test_from_pure_basis_vector():
    rho = from_pure(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(rho - np.diag([1.0, 0.0, 0.0, 0.0])).max() < 1e-15


def test_from_pure_singlet_matrix():
    assert np.abs(from_pure(bell_state(4)) - SINGLET_MATRIX).max() < 1e-15


def test_from_pure_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        rho = from_pure(psi)
        assert np.abs(rho @ rho - rho).max() < 1e-12


def test_from_pure_rejects_unnormalized():
    with pytest.raises(ValueError):
        from_pure(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "imag-nan"])
def test_from_pure_rejects_non_finite_entries(bad):
    # |nan - 1| > tol is False, so the norm test alone would let NaN through.
    with pytest.raises(ValueError, match="pure state must be finite"):
        from_pure(np.array([bad, 0.0, 0.0, 0.0]))


def test_experiment_initial_matches_singlet_and_bell_diagonal():
    rho = experiment_initial()
    assert np.abs(rho - SINGLET_MATRIX).max() < 1e-15
    assert np.abs(rho - bell_diagonal((0.0, 0.0, 0.0, 1.0))).max() < 1e-15
    validate_density_matrix(rho)


def test_validate_accepts_maximally_mixed():
    validate_density_matrix(maximally_mixed())


def test_validate_reports_trace_violation_with_magnitude():
    with pytest.raises(StateValidationError, match="trace"):
        validate_density_matrix(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    try:
        validate_density_matrix(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    except StateValidationError as exc:
        assert "1.000" in str(exc)


def test_validate_reports_psd_violation():
    with pytest.raises(StateValidationError, match="positivity"):
        validate_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_validate_reports_hermiticity_violation():
    m = maximally_mixed()
    m[0, 1] = 0.1
    with pytest.raises(StateValidationError, match="hermiticity"):
        validate_density_matrix(m)


def test_validate_rejects_nan():
    m = maximally_mixed()
    m[0, 0] = np.nan
    with pytest.raises(StateValidationError, match="finite"):
        validate_density_matrix(m)


def _invalid(invariant):
    m = maximally_mixed()
    if invariant == "finiteness":
        m[0, 0] = np.nan
    elif invariant == "hermiticity":
        m[0, 1] = 0.1
    elif invariant == "trace":
        m = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    else:
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    return m


@pytest.mark.parametrize("invariant", ["finiteness", "hermiticity", "trace", "positivity"])
def test_validate_stack_names_first_invalid_state(invariant):
    stack = np.array([maximally_mixed(), experiment_initial()] * 3)
    assert np.array_equal(validate_density_matrix(stack), stack)
    stack[4] = _invalid(invariant)
    stack[5] = _invalid(invariant)
    with pytest.raises(StateValidationError) as stacked:
        validate_density_matrix(stack)
    with pytest.raises(StateValidationError) as single:
        validate_density_matrix(stack[4])
    assert str(stacked.value) == f"state 4: {single.value}"
    assert str(single.value).startswith(invariant)


def _eigvalsh_validator(m):
    """Oracle: the validator whose positivity check is eigvalsh of every state."""
    m = np.asarray(m, dtype=complex)

    def check(bad, defect, message):
        if bad.ndim == 0:
            if bad:
                raise StateValidationError(message.format(defect))
        elif bad.any():
            i = int(np.argmax(bad))
            raise StateValidationError(f"state {i}: " + message.format(defect[i]))

    if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
        raise StateValidationError(f"shape violation: expected (4, 4) or (N, 4, 4), got {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    check(~finite, finite, "finiteness violation: matrix contains nan or inf")
    adjoint = m.conj().swapaxes(-2, -1)
    herm_defect = np.abs(m - adjoint).max(axis=(-2, -1))
    check(herm_defect > HERMITICITY_TOL, herm_defect,
          "hermiticity violation: max|rho - rho^dagger| = {:.3e}")
    trace_defect = np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
    check(trace_defect > TRACE_TOL, trace_defect, "trace violation: |Tr rho - 1| = {:.3e}")
    min_eig = np.linalg.eigvalsh((m + adjoint) / 2.0)[..., 0]
    check(min_eig < EIGENVALUE_FLOOR, min_eig,
          f"positivity violation: min eigenvalue = {{:.3e}} < {EIGENVALUE_FLOOR:.1e}")
    return m


def _state_with_least_eigenvalue(seed, rank, least):
    """A unit-trace Hermitian matrix of the given rank whose least eigenvalue is moved to ``least``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    w, v = np.linalg.eigh(g @ g.conj().T)
    w = w / w.sum()
    w[-1] += w[0] - least
    w[0] = least
    rho = (v * w) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def _outcome(validator, m):
    try:
        out = validator(m)
    except StateValidationError as exc:
        return str(exc)
    assert np.array_equal(out, m)
    return "accepted"


# Least eigenvalues around the floor -1e-9, with the band (-1e-9, -5e-10]
# where the Cholesky certificate fails and the exact check still accepts.
LEAST = st.one_of(
    st.floats(-2e-9, 1e-9),
    st.floats(-1e-9, -5e-10, exclude_min=True),
    st.sampled_from([EIGENVALUE_FLOOR, -5e-10, 0.0]),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), least=LEAST)
def test_validate_decides_positivity_as_the_eigvalsh_oracle(seed, rank, least):
    rho = _state_with_least_eigenvalue(seed, rank, least)
    assert _outcome(validate_density_matrix, rho) == _outcome(_eigvalsh_validator, rho)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12), data=st.data())
def test_validate_stack_decides_positivity_as_the_eigvalsh_oracle(seed, size, data):
    ranks = data.draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    stack = np.array([_state_with_least_eigenvalue(seed + i, rank, 0.0) for i, rank in enumerate(ranks)])
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, size - 1))
        stack[i] = _state_with_least_eigenvalue(seed + size + i, ranks[i], data.draw(LEAST))
    expected = _outcome(_eigvalsh_validator, stack)
    assert _outcome(validate_density_matrix, stack) == expected
    if expected != "accepted":
        assert expected.startswith("state ")


INDEX = st.integers(0, 3)
PART = st.sampled_from(["real", "imag"])
# Sizes just inside and just outside the tolerances and the eigenvalue floor.
HERM_EDGES = [HERMITICITY_TOL * (1.0 - 1e-3), HERMITICITY_TOL * (1.0 + 1e-3)]
TRACE_EDGES = [sign * TRACE_TOL * (1.0 + e) for sign in (1.0, -1.0) for e in (-1e-3, 1e-3)]
LEAST_EDGES = [EIGENVALUE_FLOOR * (1.0 + e) for e in (-1e-3, 1e-3)] + [-2e-9, -7e-10, -0.5]
DEFECTS = st.one_of(
    st.tuples(st.just("value"), st.sampled_from([np.nan, np.inf, -np.inf]), PART, INDEX, INDEX),
    st.tuples(st.just("hermiticity"), st.sampled_from(HERM_EDGES), PART, INDEX, INDEX),
    st.tuples(st.just("trace"), st.sampled_from(TRACE_EDGES), st.just("real"), INDEX, INDEX),
    st.tuples(st.just("least"), st.sampled_from(LEAST_EDGES), st.just("real"), INDEX, INDEX),
)


def _with_defect(rho, defect, seed):
    """rho with one defect: a non-finite real or imaginary part at (i, j), an
    entry moved by a Hermiticity-sized amount, a diagonal entry moved by a
    trace-sized amount, or the state replaced by one with a negative least
    eigenvalue."""
    kind, size, part, i, j = defect
    m = rho.copy()
    if kind == "value":
        m[i, j] = complex(size, m[i, j].imag) if part == "real" else complex(m[i, j].real, size)
    elif kind == "hermiticity":
        m[i, j] += size if part == "real" else 1j * size
    elif kind == "trace":
        m[i, i] += size
    else:
        m = _state_with_least_eigenvalue(seed, 1 + i, size)
    return m


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 6), defects=st.lists(DEFECTS, min_size=1, max_size=2),
       data=st.data())
def test_validate_decides_and_words_every_defect_as_the_eigvalsh_oracle(seed, size, defects, data):
    # size 0 is one (4, 4) state; otherwise a stack of that many states.
    m = np.array([_state_with_least_eigenvalue(seed + k, 1 + k % 4, 0.0) for k in range(max(size, 1))])
    for n, defect in enumerate(defects):
        k = data.draw(st.integers(0, len(m) - 1))
        m[k] = _with_defect(m[k], defect, seed + len(m) + n)
    if size == 0:
        m = m[0]
    assert _outcome(validate_density_matrix, m) == _outcome(_eigvalsh_validator, m)


# Hermiticity defects just under the tolerance, in the upper triangle (which
# the Cholesky certificate never reads) or the lower one (which it reads), on
# states whose least eigenvalue is within 1e-11 of the certificate's margin
# -5e-10 or of the floor.
NEAR_EDGES = st.one_of(
    st.floats(-5e-10 - 1e-11, -5e-10 + 1e-11),
    st.floats(EIGENVALUE_FLOOR - 1e-11, EIGENVALUE_FLOOR + 1e-11),
)
SKEWS = st.tuples(
    st.floats(0.9 * HERMITICITY_TOL, 0.999 * HERMITICITY_TOL),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from(["upper", "lower"]),
    PART,
    st.tuples(INDEX, INDEX).filter(lambda pair: pair[0] != pair[1]),
)


def _skewed_state(seed, rank, least, skew):
    """A state with least eigenvalue ``least`` and one off-diagonal entry,
    in the named triangle, moved by a Hermiticity defect."""
    size, sign, triangle, part, pair = skew
    i, j = sorted(pair) if triangle == "upper" else sorted(pair, reverse=True)
    m = _state_with_least_eigenvalue(seed, rank, least)
    m[i, j] += sign * size if part == "real" else 1j * sign * size
    return m


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), least=NEAR_EDGES, skew=SKEWS)
def test_validate_decides_skewed_states_near_the_margins_as_the_eigvalsh_oracle(seed, rank, least, skew):
    m = _skewed_state(seed, rank, least, skew)
    assert np.abs(m - m.conj().T).max() <= HERMITICITY_TOL
    assert _outcome(validate_density_matrix, m) == _outcome(_eigvalsh_validator, m)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8), data=st.data())
def test_validate_stack_decides_skewed_states_near_the_margins_as_the_eigvalsh_oracle(seed, size, data):
    stack = np.array([_state_with_least_eigenvalue(seed + k, 1 + k % 4, 0.0) for k in range(size)])
    for n in range(data.draw(st.integers(1, 2))):
        k = data.draw(st.integers(0, size - 1))
        stack[k] = _skewed_state(seed + size + n, data.draw(st.integers(1, 4)),
                                 data.draw(NEAR_EDGES), data.draw(SKEWS))
    expected = _outcome(_eigvalsh_validator, stack)
    assert _outcome(validate_density_matrix, stack) == expected


def test_empty_stack_passes_validation_evolve_and_measure_report():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert validate_density_matrix(empty).shape == (0, 4, 4)
    for mode in ("A", "B"):
        evolved = evolve(experiment_initial(), DecoherenceSpec(mode, 1.0), np.array([]))
        assert evolved.shape == (0, 4, 4)
        report = measure_report(evolved)
        assert report.mixedness.shape == report.concurrence.shape == (0,)
        assert report.wootters_roots.shape == (0, 4)


def test_validate_spares_eigvalsh_when_the_certificate_holds(monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh ran")

    good = np.array([experiment_initial(), maximally_mixed(), bell_diagonal((0.5, 0.5, 0.0, 0.0))])
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    validate_density_matrix(good)
    validate_density_matrix(good[0])
    with pytest.raises(AssertionError, match="eigvalsh ran"):
        validate_density_matrix(_state_with_least_eigenvalue(0, 3, -7e-10))


def test_validate_rejects_bad_shapes():
    for shape in ((3, 3), (4,), (2, 2, 4, 4), (4, 4, 3)):
        with pytest.raises(StateValidationError, match="shape"):
            validate_density_matrix(np.zeros(shape, dtype=complex))


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    again = matrix_from_json(matrix_to_json(rho))
    assert np.abs(again - rho).max() < 1e-15


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 3, "re": [], "im": []})
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 4, "re": [[0.0] * 4] * 3, "im": [[0.0] * 4] * 4})
    # Only JSON numbers are entries: a bool, a numeric string or null is named, part and index.
    for part, (i, j), bad in (("re", (0, 0), True), ("re", (1, 1), False), ("re", (2, 2), "0"),
                              ("im", (3, 1), "0.5"), ("im", (0, 3), None)):
        obj = matrix_to_json(maximally_mixed())
        obj[part][i][j] = bad
        with pytest.raises(ValueError) as caught:
            matrix_from_json(obj)
        assert str(caught.value) == f"malformed matrix json: {part}[{i}][{j}] = {bad!r} is not a number"
    # Ints, floats and float subclasses such as np.float64 are numbers.
    assert np.array_equal(matrix_from_json({"dim": 4, "re": np.eye(4) / 4, "im": [[0] * 4] * 4}),
                          maximally_mixed())


class _Real(float):
    """A float subclass, which check_real reads through np.asarray."""


@pytest.mark.parametrize("value", [
    0, 1, -1, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, 10**400,
    0.5, -0.0, 5e-324, 1.7e308, np.nan, np.inf, -np.inf, -2.5,
    np.float64(0.5), _Real(0.25), _Real(-1.0), np.array(0.5), np.array(3), np.array(2**64 - 1, dtype=np.uint64),
])
def test_check_real_reads_exact_ints_and_floats_as_asarray_does(value):
    # An exact int or float skips np.asarray; every form must still get the
    # float, or the message up to ", got", that the 0-d array of it gets.
    def outcome(v, **kwargs):
        try:
            x = check_real(v, "x", **kwargs)
        except ValueError as exc:
            return str(exc).split(", got ")[0]
        assert type(x) is float
        return repr(x)

    general = np.asarray(value)
    for kwargs in ({}, {"positive": True}, {"signed": True}):
        assert outcome(value, **kwargs) == outcome(general, **kwargs)
