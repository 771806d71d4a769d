"""The shift-and-phase operators as matrices, and their algebra as checks.

The library builds the measurement bases from ``spin.projection_family``
and never forms an operator S_(j,k) itself.  The tests use the operators
directly: as the term-by-term route to the projection families, as a
basis of the d x d matrices, and to check the algebraic identities of
the family.
"""

import numpy as np

from witgeo.linalg import hs_inner
from witgeo.spin import eta_power


def spin_matrix(d: int, j: int, k: int) -> np.ndarray:
    """The shift-and-phase unitary S_(j,k) on a d-level system."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    j %= d
    k %= d
    s = np.zeros((d, d), dtype=complex)
    for r in range(d):
        s[r, (r + k) % d] = eta_power(d, j * r)
    return s


def spin_expand(alpha: np.ndarray, d: int) -> dict[tuple[int, int], complex]:
    """Coefficients s_u = Tr[S_u^dag alpha] for all d^2 indices u = (j, k)."""
    return {
        (j, k): complex(hs_inner(spin_matrix(d, j, k), alpha)) for j in range(d) for k in range(d)
    }


def spin_reconstruct(coeffs: dict[tuple[int, int], complex], d: int) -> np.ndarray:
    """Inverse of spin_expand: alpha = (1/d) sum_u s_u S_u."""
    return sum(c * spin_matrix(d, j, k) for (j, k), c in coeffs.items()) / d


def spin_relations(d: int) -> dict[str, float]:
    """Worst-case residuals of the four identities of the family.

    * commutation: S_(0,1) S_(1,0) = eta S_(1,0) S_(0,1);
    * factorization: S_(j,k) = (S_(1,0))^j (S_(0,1))^k;
    * power: (S_(j,k))^m = eta^(j*k*m*(m-1)/2) S_(m*j, m*k), for m in [0, d);
    * adjoint: S_(j,k)^dag = eta^(j*k) S_(d-j, d-k).
    """
    s01 = spin_matrix(d, 0, 1)
    s10 = spin_matrix(d, 1, 0)
    worst = {
        "commutation": float(np.abs(s01 @ s10 - eta_power(d, 1) * s10 @ s01).max()),
        "factorization": 0.0,
        "power": 0.0,
        "adjoint": 0.0,
    }
    for j in range(d):
        for k in range(d):
            s = spin_matrix(d, j, k)
            built = np.linalg.matrix_power(s10, j) @ np.linalg.matrix_power(s01, k)
            adj = eta_power(d, j * k) * spin_matrix(d, (d - j) % d, (d - k) % d)
            worst["factorization"] = max(worst["factorization"], np.abs(s - built).max())
            worst["adjoint"] = max(worst["adjoint"], np.abs(s.conj().T - adj).max())
            acc = np.eye(d, dtype=complex)
            for m in range(d):
                rhs = eta_power(d, j * k * (m * (m - 1) // 2)) * spin_matrix(
                    d, (m * j) % d, (m * k) % d
                )
                worst["power"] = max(worst["power"], np.abs(acc - rhs).max())
                acc = acc @ s
    return {name: float(v) for name, v in worst.items()}
