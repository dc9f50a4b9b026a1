"""Pauli matrices and tensor-product helpers for the spin-path system.

Convention used everywhere in this package: the first tensor factor is
the spin qubit, the second is the path qubit, so the product basis is

    e1 = |up, I>,  e2 = |up, II>,  e3 = |down, I>,  e4 = |down, II>

(stored at indices 0..3).  A spin operator acts on indices {0,1} vs
{2,3}; a path operator acts on {0,2} vs {1,3}.
"""

import numpy as np

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ID4 = np.eye(4, dtype=complex)


def spin_path(spin_op: np.ndarray, path_op: np.ndarray) -> np.ndarray:
    """Tensor product ``spin_op (x) path_op`` in the fixed basis ordering, as np.kron of the two."""
    a, b = np.asarray(spin_op, dtype=complex), np.asarray(path_op, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)
