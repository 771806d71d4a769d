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


def eigenbasis(d: int, j: int, k: int) -> np.ndarray:
    """Eigenvectors of S_(j,k) as the columns of a d x d unitary.

    Column r has eigenvalue eta^(-r), so its projector is the paper's
    P_u(r) = (1/d) sum_m eta^(m*r + j*k*m*(m-1)/2) S_(m*u): for k != 0 it
    holds eta^(-(r*m + j*k*m*(m-1)/2)) / sqrt(d) at row m*k, for k = 0 it is
    the unit vector at row -r/j mod d (the mutually unbiased bases of
    Wootters and Fields).  It needs u != (0,0) and prime d (for composite d
    the generator can have order < d and its eigenvalues repeat); at d = 2
    it rejects the odd-odd index (sigma_y); the measurement layer builds its
    qubit settings from the computational and equatorial axis bases.
    """
    if not is_prime(d):
        raise ValueError(f"eigenbasis needs a prime dimension, got {d}")
    j %= d
    k %= d
    if j == 0 and k == 0:
        raise ValueError("eigenbasis is undefined for the identity index")
    if d == 2 and j == k == 1:
        raise ValueError(f"unsupported index (j={j}, k={k}) for even dimension d={d}")
    r = np.arange(d)
    basis = np.zeros((d, d), dtype=complex)
    if k == 0:
        basis[-r * pow(j, -1, d) % d, r] = 1.0
        return basis
    # m*(m-1) is even, so the halved exponent is an exact integer; the
    # phases are the scalar eta_power values, indexed by the reduced exponent
    phase = np.array([eta_power(d, e) for e in range(d)])
    m = r[:, None]
    exponent = -(m * r + (j * k % d) * (m * (m - 1) // 2 % d)) % d
    basis[m * k % d, r] = phase[exponent] / np.sqrt(d)
    return basis


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % q for q in range(2, int(math.isqrt(d)) + 1))
