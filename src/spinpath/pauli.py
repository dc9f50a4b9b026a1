"""Pauli matrices, path projectors, mode axes and tensor-product helpers.

Convention used everywhere in this package: the first tensor factor is
the spin qubit, the second is the path qubit, so the product basis is

    e1 = |up, I>,  e2 = |up, II>,  e3 = |down, I>,  e4 = |down, II>

(stored at indices 0..3).  A spin operator acts on indices {0,1} vs
{2,3}; a path operator acts on {0,2} vs {1,3}.

Each decoherence mode is a spin axis in ``MODE_AXES``, sz for mode A and
sx for mode B; each route derives its operators from it.

``PAULI_STRINGS`` holds the 16 products sa (x) sb over a, b in I, X, Y,
Z, string 4a + b, spin letter first.  A state is rho = 1/4 sum_k r_k P_k
with the real Pauli coordinates r_k = Tr(rho P_k): ``to_pauli`` and
``from_pauli`` map between the two, one product each (Wood, Biamonte &
Cory, Quantum Inf. Comput. 15, 759 (2015)).
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


# sa (x) sb over a, b in I, X, Y, Z: string 4a + b, spin letter first.
_LETTERS = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)
PAULI_STRINGS = spin_path_stack((a, b) for a in _LETTERS for b in _LETTERS)
# Row k is vec(P_k); each P_k is Hermitian, so Tr(rho P_k) = vec(rho) . conj(vec(P_k)).
_STRING_ROWS = PAULI_STRINGS.reshape(16, 16)
_TRACE_COLUMNS = _STRING_ROWS.conj().T


def to_pauli(rho) -> np.ndarray:
    """Real Pauli coordinates (..., 16), r_k = Re Tr(rho P_k), of a (..., 4, 4) stack."""
    rho = np.asarray(rho, dtype=complex)
    return (rho.reshape(*rho.shape[:-2], 16) @ _TRACE_COLUMNS).real


def from_pauli(r) -> np.ndarray:
    """(..., 4, 4) matrices 1/4 sum_k r_k P_k of real coordinates (..., 16), the inverse of ``to_pauli``."""
    r = np.asarray(r, dtype=float)
    return (r @ _STRING_ROWS / 4.0).reshape(*r.shape[:-1], 4, 4)
