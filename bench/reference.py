"""Independent reference routes that the benchmark checks outputs against.

Nothing here imports spinpath.  Everything is written from the model
definitions in the package documentation, in a different representation
from the package's own code:

* evolution uses the 16x16 Liouvillian of the master equation,
  exponentiated by scaling and squaring;
* the Trotterized Kraus route is the n-th matrix power of the 16x16
  step superoperator;
* Gaussian angle averages are averages of exp(i*theta*G) over theta,
  taken in the eigenbasis of the Hermitian superoperator generator G;
* concurrence comes from the singular values of W^T (sy x sy) W with
  rho = W W^dagger, which keeps full precision on pure states.

Vectorization is row-major: vec(A X B) = kron(A, B.T) vec(X).
The tensor order is spin (x) path, so index = 2 * spin + path.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"X": SX, "Y": SY, "Z": SZ}
PATH_I = np.diag([1.0, 0.0]).astype(complex)
PATH_II = np.diag([0.0, 1.0]).astype(complex)
YY = np.kron(SY, SY)
I4 = np.eye(4, dtype=complex)
I16 = np.eye(16, dtype=complex)

# lambda * t = c * sigma^2 for each (mode, variant) field placement.
CALIBRATION = {
    ("A", "both_paths_independent"): 0.25,
    ("A", "single_field_one_path"): 0.125,
    ("A", "single_field_both_paths"): 0.5,
    ("B", "both_paths_independent"): 0.5,
}


def superop(m: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> M rho M^dagger."""
    return np.kron(m, m.conj())


def apply(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return (s @ rho.reshape(16)).reshape(4, 4)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    x = a / 2.0 ** squarings
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 18):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def projectors(mode: str) -> list[np.ndarray]:
    """Mode A: the product basis.  Mode B: eigenvectors of sx on the spin."""
    if mode == "A":
        return [np.diag(row).astype(complex) for row in np.eye(4)]
    return [
        np.kron((I2 + sign * SX) / 2.0, path)
        for path in (PATH_I, PATH_II)
        for sign in (1.0, -1.0)
    ]


def liouvillian(mode: str, lam: float, energies) -> np.ndarray:
    """L with d vec(rho)/dt = L vec(rho) for -i[H, rho] - lam (rho - sum P rho P)."""
    h = np.diag(np.asarray(energies, dtype=float)).astype(complex)
    pinch = sum(superop(p) for p in projectors(mode))
    return -1j * (np.kron(h, I4) - np.kron(I4, h.T)) - lam * (I16 - pinch)


def evolve(rho0: np.ndarray, mode: str, lam: float, energies, t: float) -> np.ndarray:
    return apply(expm(liouvillian(mode, lam, energies) * t), rho0)


def kraus_step(mode: str, weight: float) -> np.ndarray:
    """Step superoperator of the four-operator Kraus set with weight w."""
    companions = {
        "A": (np.kron(I2, SZ), np.kron(SZ, I2), np.kron(SZ, SZ)),
        "B": (np.kron(I2, SZ), np.kron(SX, I2), np.kron(SX, SZ)),
    }[mode]
    s = (1.0 - 0.75 * weight) * I16
    for op in companions:
        s = s + (weight / 4.0) * superop(op)
    return s


def trotter(rho0: np.ndarray, mode: str, lam: float, t: float, n: int) -> np.ndarray:
    step = kraus_step(mode, lam * t / n)
    return apply(np.linalg.matrix_power(step, n), rho0)


def _angle_average(generator: np.ndarray, sigma: float) -> np.ndarray:
    # E[S(exp(i theta K / 2))] for theta ~ N(0, sigma^2); the superoperator
    # is exp(i theta G) with Hermitian G = (K (x) 1 - 1 (x) K*) / 2.
    g = 0.5 * (np.kron(generator, I4) - np.kron(I4, generator.conj()))
    vals, vecs = np.linalg.eigh(g)
    return (vecs * np.exp(-0.5 * sigma * sigma * vals * vals)) @ vecs.conj().T


def gaussian_average(rho0: np.ndarray, mode: str, variant: str, sigma: float) -> np.ndarray:
    """Exact average of V rho V^dagger over Gaussian field angles."""
    z_i, z_ii = np.kron(SZ, PATH_I), np.kron(SZ, PATH_II)
    x_i, x_ii = np.kron(SX, PATH_I), np.kron(SX, PATH_II)
    if mode == "B":
        # U_p = U_z U_x on each path; the two paths commute.
        rotations = (z_i, x_i, z_ii, x_ii)
    elif variant == "both_paths_independent":
        rotations = (z_i, z_ii)
    elif variant == "single_field_one_path":
        rotations = (z_ii,)
    else:
        rotations = (z_i + z_ii,)
    s = I16
    for k in rotations:
        s = s @ _angle_average(k, sigma)
    return apply(s, rho0)


def born_probabilities(rho: np.ndarray, spin: str, path: str) -> np.ndarray:
    """Outcome probabilities in the order (+,+), (+,-), (-,+), (-,-)."""
    out = []
    for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        proj = np.kron((I2 + a * PAULI[spin]) / 2.0, (I2 + b * PAULI[path]) / 2.0)
        out.append(float(np.trace(rho @ proj).real))
    return np.array(out)


def mixedness(rho: np.ndarray) -> float:
    return float(np.sum(np.abs(rho) ** 2))


def concurrence(rho: np.ndarray) -> float:
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    w = vecs * np.sqrt(np.clip(vals, 0.0, None))
    s = np.linalg.svd(w.T @ YY @ w, compute_uv=False)
    return float(max(0.0, s[0] - s[1] - s[2] - s[3]))


def validity_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(Hermiticity defect, trace defect, minimum eigenvalue)."""
    herm = float(np.abs(rho - rho.conj().T).max())
    trace = abs(float(np.trace(rho).real) - 1.0)
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    return herm, trace, min_eig
