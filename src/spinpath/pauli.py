"""Pauli matrices, path projectors, mode axes and tensor-product helpers.

Convention used everywhere in this package: the first tensor factor is
the spin qubit, the second is the path qubit, so the product basis is

    e1 = |up, I>,  e2 = |up, II>,  e3 = |down, I>,  e4 = |down, II>

(stored at indices 0..3).  A spin operator acts on indices {0,1} vs
{2,3}; a path operator acts on {0,2} vs {1,3}.

Each decoherence mode is a spin axis in ``MODE_AXES``, sz for mode A and
sx for mode B; each route derives its operators from it.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ID4 = np.eye(4, dtype=complex)

# The path projectors |I><I| and |II><II|.
PATH_I, PATH_II = map(np.diag, ID2)

MODE_AXES = {"A": SIGMA_Z, "B": SIGMA_X}


def check_mode(mode) -> None:
    """Raise ValueError unless ``mode`` is a key of ``MODE_AXES``, tested without hashing ``mode``."""
    if mode not in tuple(MODE_AXES):
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")


def spin_path(spin_op: np.ndarray, path_op: np.ndarray) -> np.ndarray:
    """Tensor product ``spin_op (x) path_op`` in the fixed basis ordering, as np.kron of the two."""
    a, b = np.asarray(spin_op, dtype=complex), np.asarray(path_op, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def spin_path_stack(pairs) -> np.ndarray:
    """Read-only (k, 4, 4) stack of the products ``spin (x) path`` over the (spin, path) ``pairs``."""
    stack = np.array([spin_path(spin, path) for spin, path in pairs])
    stack.flags.writeable = False
    return stack
