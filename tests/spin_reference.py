"""The shift-and-phase operators as matrices, their spectral projections,
and their algebra as checks.

The library writes the eigenvectors of S_(j,k) in closed form
(``spin.eigenbasis``) and never forms an operator or a projection
itself.  The tests use the operators directly: as the term-by-term
route to the projection families, as a basis of the d x d matrices, and
to check the algebraic identities of the family.  ``projection_family``
is the paper's projection formula, the reference the closed-form bases
are compared against.
"""

import numpy as np

from witgeo.linalg import hs_inner
from witgeo.spin import eta_power, is_prime


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


def projection_family(d: int, j: int, k: int) -> np.ndarray:
    """Spectral projections of S_(j,k) as a (d, d, d) stack; entry r is P_u(r).

        P_u(r) = (1/d) sum_m eta^(m*r) eta^(j*k*m*(m-1)/2) S_(m*u),

    a complete orthogonal family of rank-1 projections for u != (0,0) and
    prime d.  For d = 2 the odd-odd index (the sigma_y eigenprojections)
    is rejected.

    The sum over m runs in order, one array update per term for all d
    outcomes; the phases are the scalar eta_power values, so each member
    equals the term-by-term sum of S_(m*u) matrices bit for bit.
    """
    j %= d
    k %= d
    if j == 0 and k == 0:
        raise ValueError("projection family is undefined for the identity index")
    if not is_prime(d):
        # for composite d the generator can have order < d and the family
        # degenerates (members of trace 0 appear)
        raise ValueError(f"projection family needs a prime dimension, got {d}")
    if d % 2 == 0 and (j * k) % 2 == 1:
        raise ValueError(
            f"unsupported index (j={j}, k={k}) for even dimension d={d}"
        )
    # a vectorized exp would differ from eta_power in the last bit at d >= 11
    phase = np.array([eta_power(d, e) for e in range(d)])
    rows = np.arange(d)
    family = np.zeros((d, d, d), dtype=complex)
    for m in range(d):
        # m*(m-1) is even, so the halved exponent is an exact integer; axis 0 is r
        coeff = phase[(m * rows[:, None] + j * k * (m * (m - 1) // 2)) % d]
        # S_(m*j, m*k) holds eta^(m*j*row) at (row, row + m*k)
        family[:, rows, (rows + m * k) % d] += coeff * phase[(m * j % d) * rows % d]
    return family / d


def column_projectors(basis: np.ndarray) -> np.ndarray:
    """Stack whose entry r is the projector onto column r of basis."""
    return basis.T[:, :, None] * basis.T.conj()[:, None, :]


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
