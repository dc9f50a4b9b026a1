"""Seeded Ginibre random states shared by the tests.

Both laws draw g = X + iY, with X and Y of shape (4, rank) and standard
normal entries from ``rng``, the real part first.  ``ginibre_state`` is
g g^dagger / Tr(g g^dagger), a density matrix of that rank.
``hermitian_ginibre_state`` is its Hermitian part, exactly Hermitian, from
the same draws.  ``tests/test_acceptance.py`` keeps its own draw, so that
the release gate stands alone.
"""

import numpy as np


def ginibre_state(rng, rank=4):
    """g g^dagger / Tr(g g^dagger) for a complex Gaussian g of shape (4, rank)."""
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def hermitian_ginibre_state(rng, rank=4):
    """(rho + rho^dagger) / 2 of ``ginibre_state(rng, rank)``."""
    rho = ginibre_state(rng, rank)
    return (rho + rho.conj().T) / 2.0
