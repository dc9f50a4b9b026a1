import types

import spinpath

# One public name per operation: a second entry point added to the package
# (or an old one coming back) changes this set and must be a deliberate edit.
PUBLIC_NAMES = {
    "BellWeights",
    "DecoherenceSpec",
    "EnsembleEstimate",
    "FieldSetup",
    "KrausSet",
    "MeasureReport",
    "ProjectorSet",
    "Reconstruction",
    "StateValidationError",
    "SystemHamiltonian",
    "bell_diagonal",
    "bell_state",
    "concurrence",
    "concurrence_bell_diagonal",
    "ensemble_average_analytic",
    "ensemble_average_monte_carlo",
    "evolve",
    "experiment_initial",
    "from_pure",
    "integrate_master",
    "lambda_from_sigma",
    "lindblad_generators_from_kraus",
    "matrix_from_json",
    "matrix_to_json",
    "maximally_mixed",
    "measure_report",
    "mixedness",
    "project_psd",
    "reconstruct_linear",
    "simulate_counts",
    "trotter_evolve",
    "validate_density_matrix",
}


def test_public_names_are_pinned():
    # Submodules become package attributes once imported, so they are not part of the set.
    public = {
        name
        for name, value in vars(spinpath).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES
