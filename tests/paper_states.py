"""States that only the paper-claim tests draw.

* schmidt_state: the Schmidt-diagonal pure targets sum_k a_k |kk> of the
  noisy-threshold guarantees; the program builds only the uniform one,
  ``states.max_entangled``;
* noise_ball: seeded noise near I/N, the sigma of the noisy-threshold
  guarantees (criterion 5);
* reweighted_bound_entangled: the reweighted far-face states of the
  frustum test.

The program builds none of them; they are the tests' routes to the claims
that ``witness.two_qubit_noise_threshold``, ``qudit_detection_predicate``
and ``frustum_predicate`` state in closed form.
"""

import math

import numpy as np

from witgeo.linalg import DensityState

from upb_reference import member_projector


def schmidt_state(amps) -> DensityState:
    """Pure bipartite state sum_k a_k |kk> with real Schmidt coefficients."""
    a = np.asarray(amps, dtype=float)
    d = len(a)
    if d < 2:
        raise ValueError("need at least two Schmidt coefficients")
    if abs(np.dot(a, a) - 1.0) > 1e-10:
        raise ValueError(f"coefficients are not normalized: sum of squares {np.dot(a, a)}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = a
    return DensityState(np.outer(psi, psi.conj()), (d, d))


def noise_ball(dims, delta: float, seed: int) -> DensityState:
    """A seeded valid density within Hilbert-Schmidt distance delta of I/N.

    Draws a traceless Hermitian direction with unit HS norm, steps 0.9*delta
    along it from I/N, and halves the step until the result is PSD.  The
    maximally mixed state is interior, so this terminates.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    n = math.prod(dims)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2
    h -= np.trace(h) / n * np.eye(n)
    h /= np.sqrt(np.vdot(h, h).real)
    base = np.eye(n, dtype=complex) / n
    scale = 0.9 * delta
    while True:
        sigma = base + scale * h
        if np.linalg.eigvalsh(sigma).min() >= 0.0:
            return DensityState(sigma, dims)
        scale /= 2


def reweighted_bound_entangled(upb, weights) -> DensityState:
    """Bound entangled neighbor (N*I/N - b*mu_b)/(N-b) from reweighted projectors.

    mu_b = sum_k p_k |phi_k><phi_k| with b the reciprocal of the largest
    weight.  Requires nonnegative weights summing to one; rejects any
    result that fails positive semidefiniteness.
    """
    p = np.asarray(weights, dtype=float)
    if len(p) != upb.m:
        raise ValueError(f"need {upb.m} weights, got {len(p)}")
    if p.min() < 0 or abs(p.sum() - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to one")
    n = upb.n
    b = 1.0 / p.max()
    if b >= n:
        raise ValueError(f"b = {b} must stay below N = {n}")
    mu_b = sum(p[k] * member_projector(upb, k) for k in range(upb.m))
    mat = (np.eye(n) - b * mu_b) / (n - b)
    low = np.linalg.eigvalsh(mat).min()
    if low < -1e-10:
        raise ValueError(
            f"reweighted state not PSD (min eig {low:.3e}); weights too concentrated"
        )
    return DensityState(mat, upb.dims)
