"""Trigonometric product bound of the three-qubit witness plane, found by search.

The bound has the closed form 2*sqrt(2) (README, "Three-qubit family:
the published bound is 2*sqrt(2)"), so the library keeps no search for
it.  This multistart L-BFGS-B maximization is criterion 6's independent
route to that value; the test files import it from here, with the
product states of the angle parametrization.
"""

import numpy as np
from scipy.optimize import minimize


def product_from_angles(thetas, phis) -> tuple[np.ndarray, ...]:
    """Unit local vectors (cos t_k, e^{i phi_k} sin t_k) of a product projection."""
    return tuple(
        np.array([np.cos(t), np.exp(1j * p) * np.sin(t)], dtype=complex)
        for t, p in zip(thetas, phis)
    )


def bell_correlation(phi1: float, phi2: float, phi3: float) -> float:
    """Four-term cosine combination entering the three-qubit product bound."""
    return float(
        np.cos(phi1 + phi2 + phi3)
        + np.cos(phi1 + phi2 - phi3)
        + np.cos(phi1 - phi2 + phi3)
        - np.cos(phi1 - phi2 - phi3)
    )


def product_bound_objective(thetas, phis) -> float:
    """sin(2 t1) sin(2 t2) sin(2 t3) * C(phi1, phi2, phi3)."""
    s = np.sin(2 * np.asarray(thetas, dtype=float))
    return float(np.prod(s)) * bell_correlation(*phis)


def bell_bound_three_qubit(restarts: int = 120, seed: int = 0) -> float:
    """Maximum of the trigonometric objective over all angles.

    The analytic maximum is 2*sqrt(2), attained at theta_k = pi/4,
    phi = (pi/4, -pi/4, -pi/4): at theta_k = pi/4 the objective is
    2[cos phi1 cos(phi2-phi3) - sin phi1 sin(phi2+phi3)], at most
    2*sqrt(2) by Cauchy-Schwarz.  The value 2 bounds only phi_k in {0, pi}.

    Multistart quasi-Newton refinement from seeded uniform starts.  The
    value equals 2 - min over product states of twice the integer-form
    three-qubit witness expectation, so it doubles as an independent
    check of the see-saw oracle on that witness.
    """
    rng = np.random.default_rng(seed)

    def neg(x):
        return -product_bound_objective(x[:3], x[3:])

    best = -np.inf
    for _ in range(restarts):
        x0 = np.concatenate(
            [rng.uniform(0, np.pi / 2, size=3), rng.uniform(-np.pi, np.pi, size=3)]
        )
        res = minimize(neg, x0, method="L-BFGS-B")
        if -res.fun > best:
            best = -res.fun
    return float(best)
