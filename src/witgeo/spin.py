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
first, so they stay exact to machine precision however large the
exponent grows.
"""

from __future__ import annotations

import math

import numpy as np


def eta_power(d: int, exponent: int) -> complex:
    """exp(2*pi*i*exponent/d) with the exponent reduced in integer arithmetic."""
    return np.exp(2j * np.pi * (int(exponent) % d) / d)


def projection_family(d: int, j: int, k: int) -> np.ndarray:
    """Spectral projections of S_(j,k) as a (d, d, d) stack; entry r is P_u(r).

        P_u(r) = (1/d) sum_m eta^(m*r) eta^(j*k*m*(m-1)/2) S_(m*u),

    a complete orthogonal family of rank-1 projections for u != (0,0) and
    prime d.  For d = 2 the odd-odd index (the sigma_y eigenprojections)
    is rejected; the measurement layer builds that basis from the Pauli
    matrices directly.

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


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % q for q in range(2, int(math.isqrt(d)) + 1))
