"""Random density matrices, and the sampled form of verify's identity check.

The library checks the induced-inner-product identity in closed form
(``witness.identity_deviation``) and draws no random states.  The tests
still use random states as inputs, and keep the sampled check as the
reference that the closed form bounds from above.
"""

import numpy as np

from witgeo.linalg import hs_inner


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix from a complex Wishart draw, PSD by construction."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return m


def sampled_identity_deviation(w, rng: np.random.Generator, draws: int = 100) -> float:
    """max |Tr(W rho) + Re<rho0 - tau0, rho - tau0>| over seeded Wishart states."""
    diff = w.rho0.mat - w.tau0.mat
    worst = 0.0
    for _ in range(draws):
        rho = random_density(w.n, rng)
        lhs = np.trace(w.matrix @ rho).real
        rhs = -hs_inner(diff, rho - w.tau0.mat).real
        worst = max(worst, abs(lhs - rhs))
    return worst
