import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginibre import ginibre_state
from spinpath import kraus, lindblad
from spinpath.interferometer import FieldSetup
from spinpath.kraus import kraus_set_for_mode, trotter_evolve
from spinpath.lindblad import DecoherenceSpec, projectors_for_mode
from spinpath.pauli import ID2, PAULI_STRINGS, SIGMA_X, SIGMA_Y, SIGMA_Z, from_pauli, to_pauli
from spinpath.states import experiment_initial

# Every public entry point that takes a mode, called with valid other arguments.
MODE_ENTRY_POINTS = {
    "projectors_for_mode": projectors_for_mode,
    "kraus_set_for_mode": lambda mode: kraus_set_for_mode(mode, 0.5),
    "trotter_evolve": lambda mode: trotter_evolve(experiment_initial(), mode, 1.0, 1.0, 4),
    "DecoherenceSpec": lambda mode: DecoherenceSpec(mode=mode, lam=1.0),
    "FieldSetup": lambda mode: FieldSetup(mode=mode, sigma=1.0),
}


@pytest.mark.parametrize("mode", ["C", "a", None, ["A"]], ids=["C", "a", "None", "list"])
@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS.values(), ids=MODE_ENTRY_POINTS.keys())
def test_every_entry_point_rejects_a_bad_mode_with_one_error(entry, mode):
    # One check serves every entry point, and it never hashes the mode, so an
    # unhashable one gets the same ValueError as a misspelled one.
    with pytest.raises(ValueError) as raised:
        entry(mode)
    assert str(raised.value) == f"mode must be 'A' or 'B', got {mode!r}"


LETTERS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}
STRINGS = [spin + path for spin in LETTERS for path in LETTERS]


def test_pauli_strings_are_the_letter_products_in_order():
    assert PAULI_STRINGS.shape == (16, 4, 4) and not PAULI_STRINGS.flags.writeable
    for name, string in zip(STRINGS, PAULI_STRINGS, strict=True):
        assert np.array_equal(string, np.kron(LETTERS[name[0]], LETTERS[name[1]]))


def test_to_pauli_takes_the_traces_and_keeps_stack_shape():
    rng = np.random.default_rng(37)
    stack = np.array([[ginibre_state(rng, rank) for rank in (1, 4)]] * 3)
    r = to_pauli(stack)
    assert r.shape == (3, 2, 16) and r.dtype == float
    expected = [[[np.trace(rho @ string).real for string in PAULI_STRINGS] for rho in row] for row in stack]
    assert np.abs(r - expected).max() <= 1e-15
    assert from_pauli(r).shape == (3, 2, 4, 4)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_from_pauli_inverts_to_pauli_on_random_states(seed, rank):
    rho = ginibre_state(np.random.default_rng(seed), rank)
    assert np.abs(from_pauli(to_pauli(rho)) - rho).max() <= 1e-15


def pauli_transfer_matrix(superop):
    """R[j, k] = 1/4 Tr(P_j Phi(P_k)): the map's images of from_pauli's unit vectors, through to_pauli."""
    images = (superop @ from_pauli(np.eye(16)).reshape(16, 16).T).T.reshape(16, 4, 4)
    return to_pauli(images).T, images


@pytest.mark.parametrize("mode, kept", [("A", {"II", "IZ", "ZI", "ZZ"}), ("B", {"II", "IZ", "XI", "XZ"})])
def test_mode_maps_keep_exactly_the_strings_that_commute_with_the_jumps(mode, kept):
    # A string is kept iff it commutes with all three of the mode's jumps; the
    # twirl and the master equation's dephasing are that 0/1 mask, exactly.
    commutes = [all(np.array_equal(j @ p, p @ j) for j in kraus._JUMPS[mode]) for p in PAULI_STRINGS]
    assert {name for name, c in zip(STRINGS, commutes, strict=True) if c} == kept
    mask = np.array(commutes, dtype=float)
    for superop in (kraus._TWIRL[mode], lindblad._DEPHASING[mode]):
        ptm, images = pauli_transfer_matrix(superop)
        assert np.abs(ptm - np.diag(mask)).max() == 0.0
        # Phi(P_k / 4) = mask_k P_k / 4 as complex matrices: no imaginary part is dropped.
        assert np.abs(images - mask[:, None, None] * from_pauli(np.eye(16))).max() == 0.0
