# src/witgeo/states.py

"""Constructors for the concrete states used throughout the toolkit.

Bipartite side: maximally entangled qudit states and the closest
separable state of the maximally entangled one.  Multipartite side: the
n-qubit GHZ family, built from its X shape (x_matrix) with its dephased
separable companion, and the two-parameter three-qubit bound entangled
family rho(m, t) with its published nearest separable state.

Every constructor but x_matrix and pauli_parity_state (bare matrices) returns
a DensityState, a convex combination of positive semidefinite matrices by its
form.  The three-qubit family, which has a second, independent formula, is
checked against it on construction.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import BadInput, DensityState, tensor

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI = {1: PAULI_X, 2: PAULI_Y}


def completely_random(dims) -> DensityState:
    """The maximally mixed state I/N on local dimensions dims."""
    n = math.prod(dims)
    return DensityState(np.eye(n, dtype=complex) / n, dims)


def max_entangled(d: int) -> DensityState:
    """Maximally entangled state sum_k |kk>/sqrt(d) on a d x d system."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1 / np.sqrt(d)  # |kk> sits at index k*d + k
    return DensityState(np.outer(psi, psi.conj()), (d, d))


def closest_separable(rho0: DensityState) -> DensityState:
    """Closest separable state to the maximally entangled state rho0 = max_entangled(d).

    The closed form is the convex combination d/(d+1) * I/N + 1/(d+1) * rho0,
    which also lies on the segment from I/N to rho0 (so the nearest
    separable state and the last separable segment point coincide here).
    It takes rho0, which the witness needs too, so that rho0 is built once.
    """
    d = rho0.dims[0]
    mat = d / (d + 1) * (np.eye(d * d, dtype=complex) / (d * d)) + 1 / (d + 1) * rho0.mat
    return DensityState(mat, rho0.dims)


# ----------------------------------------------------------------------------
# n-qubit GHZ family


def x_matrix(size: int, diag, end, corner) -> np.ndarray:
    """The GHZ family's X shape: diag on the diagonal, end at its ends, corner in the corners."""
    mat = np.zeros((size, size), dtype=complex)
    mat.flat[:: size + 1] = diag
    mat[0, 0] = mat[-1, -1] = end
    mat[0, -1] = mat[-1, 0] = corner
    return mat


def ghz(n: int) -> DensityState:
    """Projector onto (|0...0> + |1...1>)/sqrt(2) for n qubits."""
    if n < 2:
        raise ValueError("need at least two parties")
    v = np.complex128(1 / np.sqrt(2))
    return DensityState(x_matrix(2**n, 0, v * v.conj(), v * v.conj()), (2,) * n)


def ghz_dephased(n: int) -> DensityState:
    """Equal mixture of |0...0> and |1...1> (the GHZ state without coherences)."""
    return DensityState(x_matrix(2**n, 0, 0.5, 0), (2,) * n)


# ----------------------------------------------------------------------------
# three-qubit bound entangled family


def pauli_parity_state(j: int, k: int, l: int, sign: int) -> np.ndarray:
    """The 8 x 8 matrix (1/8)[I + sign * sigma_j x sigma_k x sigma_l].

    Indices take values 1 (sigma_x) or 2 (sigma_y).  The matrix is an
    equal mixture of the four rank-1 products

        (I + s1*sigma_j)/2 x (I + s2*sigma_k)/2 x (I + sign*s1*s2*sigma_l)/2

    over (s1, s2) in {+1, -1}^2, hence a separable state: the cross terms
    cancel because each of s1, s2 and s1*s2 sums to zero.
    """
    if j not in _PAULI or k not in _PAULI or l not in _PAULI:
        raise ValueError("indices must be 1 (sigma_x) or 2 (sigma_y)")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (np.eye(8, dtype=complex) + sign * tensor(_PAULI[j], _PAULI[k], _PAULI[l])) / 8


def _anti_diagonal_density(fv) -> np.ndarray:
    mat = np.eye(8, dtype=complex) / 8
    for i, v in enumerate(fv):
        mat[3 - i, 4 + i] = v
        mat[4 + i, 3 - i] = v
    return mat


def three_qubit_family(m: float, t: float) -> DensityState:
    """Three-qubit PPT family: diagonal 1/8, anti-diagonal (m - t, m + t, 1/8, 1/8).

    The region is |m| + |t| <= 1/8; outside it the matrix is not a state,
    and the constructor raises BadInput.  It cross-checks the matrix
    against the independent expansion in parity states

        (1/2+4m)*P+(111) + (1/2-4m)*P-(221) + 4t*(P-(212) + P+(122)) - 8t*I/8

    and raises on disagreement.  t < 0 is the mirrored branch, with the
    two inner anti-diagonal entries exchanged.
    """
    if not abs(m) + abs(t) <= 0.125 + 1e-12:
        raise BadInput(f"(m={m}, t={t}) leaves the family's region |m| + |t| <= 1/8")
    mat = _anti_diagonal_density((m - t, m + t, 0.125, 0.125))
    via_parity = (
        (0.5 + 4 * m) * pauli_parity_state(1, 1, 1, +1)
        + (0.5 - 4 * m) * pauli_parity_state(2, 2, 1, -1)
        + 4 * t * (pauli_parity_state(2, 1, 2, -1) + pauli_parity_state(1, 2, 2, +1))
        - 8 * t * np.eye(8, dtype=complex) / 8
    )
    dev = np.abs(mat - via_parity).max()
    if dev > 1e-12:
        raise AssertionError(f"internal decomposition mismatch: {dev:.3e}")
    return DensityState(mat, (2, 2, 2))


def three_qubit_nearest(m: float, t: float) -> DensityState:
    """The published nearest separable state to rho(m, t), for t > 0 in the family's region.

    Diagonal 1/8, anti-diagonal (m - t/2, m + t/2, 1/8 - t/2, 1/8 - t/2).
    It is separable, a mixture of the Pauli-parity states P+(111), P-(212),
    P+(122), P-(221) with weights 1/2+4m-2t, 2t, 2t, 1/2-4m-2t, which are
    nonnegative where |m| + t/2 <= 1/8; the family's region implies that.
    It is provably not the closest separable state: the product pi*
    minimizing Tr(W pi) for the witness built through it has
    Tr[(rho - nearest)(pi* - nearest)] = -Tr(W pi*) > 0, so mixing a
    little pi* into it moves it closer to rho.
    """
    return DensityState(
        _anti_diagonal_density((m - t / 2, m + t / 2, 0.125 - t / 2, 0.125 - t / 2)),
        (2, 2, 2),
    )
