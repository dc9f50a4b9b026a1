import pytest

from spinpath.interferometer import FieldSetup
from spinpath.kraus import kraus_set_for_mode, trotter_evolve
from spinpath.lindblad import DecoherenceSpec, projectors_for_mode
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
