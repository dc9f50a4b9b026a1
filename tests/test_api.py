import ast
import pathlib
import types

import pytest

import spinpath

# One public name per operation: a second entry point added to the package
# (or an old one coming back) changes this set and must be a deliberate edit.
PUBLIC_NAMES = {
    "BellWeights",
    "DecoherenceSpec",
    "EnsembleEstimate",
    "FieldSetup",
    "MeasureReport",
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


def _private(dotted):
    return any(part.startswith("_") and not part.endswith("__") for part in dotted.split("."))


def private_numpy_names(source):
    """Dotted NumPy names with a private part that the source imports or reads through a NumPy alias."""
    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.append(alias.name)
                    bound = alias.asname or "numpy"
                    aliases[bound] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                found.append(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in aliases:
                found.append(".".join([aliases[node.id], *reversed(chain)]))
    return sorted({name for name in found if _private(name)})


@pytest.mark.parametrize(
    "source",
    [
        "import numpy.linalg._umath_linalg",
        "from numpy._core import multiarray",
        "from numpy.linalg import _umath_linalg as kernels",
        "import numpy as np\nnp.linalg._umath_linalg.cholesky(a)",
        "import numpy.linalg as la\nla._umath_linalg",
    ],
)
def test_private_numpy_check_catches(source):
    assert private_numpy_names(source)


def test_package_uses_public_numpy_only():
    package = pathlib.Path(spinpath.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 5
    for path in sources:
        assert private_numpy_names(path.read_text(encoding="utf-8")) == [], path.name
