"""Linear maps on 4x4 matrices as 16x16 superoperators.

Matrices are vectorized row-major, vec(X) = X.reshape(16), so that

    vec(A X B) = kron(A, B^T) vec(X)

and the sandwich X -> L X R^dagger is the matrix kron(L, conj(R)).
Composing maps is matrix multiplication: n RK4 steps are the n-th
matrix power of the step map, while n Kraus steps of weight w are one
step of weight 1 - (1 - w)^n (see :mod:`spinpath.kraus`).  RK4
integration and Kraus composition build their maps here, and the
interferometer's shot table its terms C_q; the closed forms in
:mod:`spinpath.lindblad` do not, so they stay an independent check.

See Havel, J. Math. Phys. 44, 534 (2003) and Wood, Biamonte & Cory,
Quantum Inf. Comput. 15, 759 (2015) for this representation.
"""

from __future__ import annotations

import numpy as np

from .pauli import ID4

ID16 = np.eye(16, dtype=complex)


def sandwich(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Superoperator of X -> left X right^dagger, kron(left, conj(right)) as one broadcast product."""
    return (np.asarray(left)[:, None, :, None] * np.conj(right)[None, :, None, :]).reshape(16, 16)


def kraus_map(operators) -> np.ndarray:
    """Read-only superoperator of X -> sum_k M_k X M_k^dagger, i.e. sum_k M_k (x) M_k^*."""
    g = np.asarray(operators, dtype=complex)
    superop = np.einsum("kac,kbd->abcd", g, g.conj()).reshape(16, 16)
    superop.flags.writeable = False
    return superop


def liouvillian(hamiltonian: np.ndarray, dephasing: np.ndarray, lam: float) -> np.ndarray:
    """Generator -i(H (x) 1 - 1 (x) H^T) - lam (1 - D).

    ``dephasing`` is the 16x16 map D, for the master equation's projectors
    kraus_map(projectors) = sum_k P_k (x) P_k^*.  ``hamiltonian`` must be
    Hermitian, so that rho H = rho H^dagger.
    """
    commutator = sandwich(hamiltonian, ID4) - sandwich(ID4, hamiltonian)
    return -1j * commutator - lam * (ID16 - dephasing)


def rk4_step(generator: np.ndarray, step: float) -> np.ndarray:
    """One classical RK4 step of d vec/dt = generator vec.

    For a linear equation the four stages collapse to the Taylor
    polynomial sum_{k<=4} (step * generator)^k / k!, evaluated here in
    Horner form.
    """
    x = step * generator
    return ID16 + x @ (ID16 + x @ (ID16 + x @ (ID16 + x / 4.0) / 3.0) / 2.0)


def apply(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Image of a 4x4 matrix under a 16x16 superoperator."""
    return (superop @ np.asarray(rho, dtype=complex).reshape(16)).reshape(4, 4)


def settle(rho: np.ndarray, budget: float, route: str, trace: float = 1.0) -> np.ndarray:
    """Re-Hermitize a state propagated by ``route`` and renormalize it to ``trace``.

    A state already Hermitian with that trace comes back bit-identical.

    Raises:
        numpy.linalg.LinAlgError: when the Hermiticity drift or the trace's
            distance from ``trace`` exceeds ``budget``, naming ``route``.
    """
    herm_drift = float(np.abs(rho - rho.conj().T).max())
    trace_drift = abs(float(np.trace(rho).real) - trace)
    if herm_drift > budget or trace_drift > budget:
        raise np.linalg.LinAlgError(
            f"{route} drift exceeded budget {budget:.1e}: "
            f"hermiticity {herm_drift:.3e}, trace {trace_drift:.3e}"
        )
    rho = (rho + rho.conj().T) / 2.0
    return rho / (np.trace(rho).real / trace)
