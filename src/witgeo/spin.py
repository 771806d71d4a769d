# src/witgeo/spin.py

"""Generalized d-level spin (shift-and-phase) operators.

The operator family is indexed by u = (j, k) with 0 <= j, k < d:

    S_(j,k) = sum_r eta^(j*r) |r><r+k|,   eta = exp(2*pi*i/d),

with index addition modulo d.  S_(0,0) is the identity; at d = 2 the
family reduces to the Pauli matrices (S_(0,1) = sigma_x, S_(1,0) =
sigma_z).  The d^2 operators are unitary and pairwise orthogonal in the
Hilbert-Schmidt inner product with norm sqrt(d), so they form a basis of
the d x d matrices.

Phases are always computed by reducing the integer exponent modulo d
first; this keeps residual errors at machine precision even for the
cubic exponents appearing in the power relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hs_inner


def eta_power(d: int, exponent: int) -> complex:
    """exp(2*pi*i*exponent/d) with the exponent reduced in integer arithmetic."""
    return np.exp(2j * np.pi * (int(exponent) % d) / d)


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
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (d, d):
        raise ValueError(f"matrix shape {alpha.shape} does not match dimension {d}")
    coeffs = {}
    for j in range(d):
        for k in range(d):
            coeffs[(j, k)] = complex(hs_inner(spin_matrix(d, j, k), alpha))
    return coeffs


def spin_reconstruct(coeffs: dict[tuple[int, int], complex], d: int) -> np.ndarray:
    """Inverse of spin_expand: alpha = (1/d) sum_u s_u S_u."""
    out = np.zeros((d, d), dtype=complex)
    for (j, k), c in coeffs.items():
        out += c * spin_matrix(d, j, k)
    return out / d


def spin_projection(d: int, j: int, k: int, r: int) -> np.ndarray:
    """Rank-1 spectral projection of S_(j,k) attached to outcome r.

    P_u(r) = (1/d) sum_m eta^(m*r) eta^(j*k*m*(m-1)/2) S_(m*u).  Requires
    u != (0,0).  For even d the construction only works when j*k is even
    (the odd-odd qubit case needs the sigma_y eigenprojections instead,
    which the measurement layer builds directly from Pauli matrices).
    """
    return projection_family(d, j, k)[r % d]


def projection_family(d: int, j: int, k: int) -> np.ndarray:
    """The complete orthogonal family as a (d, d, d) stack; entry r is P_u(r).

    The sum over m runs in order, one array update per term for all d
    outcomes; the phases are the scalar eta_power values, so each member
    equals the term-by-term sum of spin_matrix products bit for bit.
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


@dataclass(frozen=True)
class SpinRelationsReport:
    """Worst-case residuals of the four algebraic identities of the family."""

    d: int
    commutation: float     # S_(0,1) S_(1,0) = eta S_(1,0) S_(0,1)
    factorization: float   # S_(j,k) = (S_(1,0))^j (S_(0,1))^k
    power: float           # (S_(j,k))^m = eta^(j*k*m*(m-1)/2) S_(m*j, m*k)
    adjoint: float         # S_(j,k)^dag = eta^(j*k) S_(d-j, d-k)

    @property
    def max_deviation(self) -> float:
        return max(self.commutation, self.factorization, self.power, self.adjoint)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= 1e-10


def spin_relations_check(d: int) -> SpinRelationsReport:
    """Evaluate all four identities over every index pair and power m in [0, d)."""
    s01 = spin_matrix(d, 0, 1)
    s10 = spin_matrix(d, 1, 0)
    commutation = np.abs(s01 @ s10 - eta_power(d, 1) * s10 @ s01).max()

    factorization = 0.0
    power = 0.0
    adjoint = 0.0
    for j in range(d):
        for k in range(d):
            s = spin_matrix(d, j, k)
            built = np.linalg.matrix_power(s10, j) @ np.linalg.matrix_power(s01, k)
            factorization = max(factorization, np.abs(s - built).max())
            adj = eta_power(d, j * k) * spin_matrix(d, (d - j) % d, (d - k) % d)
            adjoint = max(adjoint, np.abs(s.conj().T - adj).max())
            acc = np.eye(d, dtype=complex)
            for m in range(d):
                rhs = eta_power(d, j * k * (m * (m - 1) // 2)) * spin_matrix(
                    d, (m * j) % d, (m * k) % d
                )
                power = max(power, np.abs(acc - rhs).max())
                acc = acc @ s
    return SpinRelationsReport(
        d=d,
        commutation=float(commutation),
        factorization=float(factorization),
        power=float(power),
        adjoint=float(adjoint),
    )


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % q for q in range(2, int(math.isqrt(d)) + 1))
