# src/witgeo/states.py

"""Constructors for the concrete states used throughout the toolkit.

Bipartite side: maximally entangled qudit states, Schmidt-diagonal pure
states and the closest separable state of the maximally entangled one.
Multipartite side: the n-qubit GHZ family with its dephased and
corner-correlated separable companions, and the two-parameter
three-qubit bound entangled family with its separable candidates.

Every constructor but pauli_parity_state (a bare 8 x 8 matrix) returns a
DensityState, a convex combination of positive semidefinite matrices by its
form.  Constructors with a second, independent formula for the same matrix
(the three-qubit family, the GHZ segment state) evaluate both routes and
refuse to return on disagreement.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import DensityState, SystemShape, tensor

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI = {1: PAULI_X, 2: PAULI_Y}


def completely_random(dims) -> DensityState:
    """The maximally mixed state I/N on the given tensor shape."""
    shape = SystemShape(tuple(dims))
    return DensityState(np.eye(shape.size, dtype=complex) / shape.size, shape)


def schmidt_state(amps) -> DensityState:
    """Pure bipartite state sum_k a_k |kk> with real Schmidt coefficients."""
    a = np.asarray(amps, dtype=float)
    d = len(a)
    if d < 2:
        raise ValueError("need at least two Schmidt coefficients")
    if abs(np.dot(a, a) - 1.0) > 1e-10:
        raise ValueError(f"coefficients are not normalized: sum of squares {np.dot(a, a)}")
    psi = np.zeros(d * d, dtype=complex)
    for k in range(d):
        psi[k * d + k] = a[k]
    return DensityState(np.outer(psi, psi.conj()), SystemShape((d, d)))


def max_entangled(d: int) -> DensityState:
    """Maximally entangled state sum_k |kk>/sqrt(d) on a d x d system."""
    return schmidt_state(np.full(d, 1.0 / np.sqrt(d)))


def closest_separable(d: int) -> DensityState:
    """Closest separable state to the maximally entangled state rho0.

    The closed form is the convex combination d/(d+1) * I/N + 1/(d+1) * rho0,
    which also lies on the segment from I/N to rho0 (so the nearest
    separable state and the last separable segment point coincide here).
    """
    rho0 = max_entangled(d)
    mat = d / (d + 1) * (np.eye(d * d, dtype=complex) / (d * d)) + 1 / (d + 1) * rho0.mat
    return DensityState(mat, rho0.shape)


# ----------------------------------------------------------------------------
# n-qubit GHZ family


def ghz(n: int) -> DensityState:
    """Projector onto (|0...0> + |1...1>)/sqrt(2) for n qubits."""
    if n < 2:
        raise ValueError("need at least two parties")
    size = 2**n
    psi = np.zeros(size, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2)
    return DensityState(np.outer(psi, psi.conj()), SystemShape((2,) * n))


def ghz_dephased(n: int) -> DensityState:
    """Equal mixture of |0...0> and |1...1> (the GHZ state without coherences)."""
    size = 2**n
    mat = np.zeros((size, size), dtype=complex)
    mat[0, 0] = mat[-1, -1] = 0.5
    return DensityState(mat, SystemShape((2,) * n))


def ghz_corner_mix(n: int) -> DensityState:
    """Separable companion state: I/N plus corner coherences of weight 1/2^n."""
    size = 2**n
    mat = np.eye(size, dtype=complex) / size
    mat[0, -1] = mat[-1, 0] = 1.0 / size
    return DensityState(mat, SystemShape((2,) * n))


def ghz_segment_weight(n: int) -> float:
    """Mixing weight s0 = 1/(2^(n-1) + 1) of the last separable segment point."""
    return 1.0 / (2 ** (n - 1) + 1)


def ghz_segment_state(n: int) -> DensityState:
    """Last separable state on the segment from I/N to the GHZ state.

    Computed both as (1-s0)*I/N + s0*rho0 and as the convex combination
    s0*dephased + (1-s0)*corner_mix; the two must agree entrywise.
    """
    s0 = ghz_segment_weight(n)
    via_segment = (1 - s0) * (np.eye(2**n, dtype=complex) / 2**n) + s0 * ghz(n).mat
    via_parts = s0 * ghz_dephased(n).mat + (1 - s0) * ghz_corner_mix(n).mat
    dev = np.abs(via_segment - via_parts).max()
    if dev > 1e-12:
        raise AssertionError(f"internal consistency failure: segment forms differ by {dev:.3e}")
    return DensityState(via_segment, SystemShape((2,) * n))


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


def three_qubit_family(c: float, d: float) -> DensityState:
    """Three-qubit PPT family: diagonal 1/8, anti-diagonal (d, c, 1/8, 1/8).

    The constructor cross-checks the matrix against the independent
    expansion in parity states with m = (c+d)/2, t = (c-d)/2:

        (1/2+4m)*P+(111) + (1/2-4m)*P-(221) + 4t*(P-(212) + P+(122)) - 8t*I/8

    and raises on disagreement.  For the mirrored branch (d > c) the same
    family applies with the roles of the two inner anti-diagonal entries
    exchanged, which amounts to swapping the arguments.
    """
    if not (-0.125 - 1e-12 <= c <= 0.125 + 1e-12) or not (
        -0.125 - 1e-12 <= d <= 0.125 + 1e-12
    ):
        raise ValueError(f"parameters must lie in [-1/8, 1/8], got c={c}, d={d}")
    mat = _anti_diagonal_density((d, c, 0.125, 0.125))

    m = (c + d) / 2
    t = (c - d) / 2
    via_parity = (
        (0.5 + 4 * m) * pauli_parity_state(1, 1, 1, +1)
        + (0.5 - 4 * m) * pauli_parity_state(2, 2, 1, -1)
        + 4 * t * (pauli_parity_state(2, 1, 2, -1) + pauli_parity_state(1, 2, 2, +1))
        - 8 * t * np.eye(8, dtype=complex) / 8
    )
    dev = np.abs(mat - via_parity).max()
    if dev > 1e-12:
        raise AssertionError(f"internal decomposition mismatch: {dev:.3e}")
    return DensityState(mat, SystemShape((2, 2, 2)))


def three_qubit_family_mt(m: float, t: float) -> DensityState:
    """Same family in the symmetric parameters m = (c+d)/2, t = (c-d)/2."""
    return three_qubit_family(m + t, m - t)


class SeparableCandidates(NamedTuple):
    rho: DensityState       # the family member at (m, t) itself
    nearest: DensityState   # published nearest state: separable, not the closest
    segment: DensityState   # last separable state on the segment from I/N


def three_qubit_separable_candidates(m: float, t: float) -> SeparableCandidates:
    """The three-qubit family member rho(m, t), t > 0, with its separable companions.

    ``nearest`` has anti-diagonal (m - t/2, m + t/2, 1/8 - t/2, 1/8 - t/2)
    and diagonal 1/8.  It is separable, a mixture of the Pauli-parity
    states P+(111), P-(212), P+(122), P-(221) with weights 1/2+4m-2t, 2t,
    2t, 1/2-4m-2t, but provably not the closest separable state: the
    product pi* minimizing Tr(W pi) for the witness built through it has
    Tr[(rho - nearest)(pi* - nearest)] = -Tr(W pi*) > 0, so mixing a
    little pi* into ``nearest`` moves it closer to rho.

    ``segment`` solves rho(m,t) = (1+8t)*segment - 8t*I/8, which places
    it on the segment from I/N to rho(m,t).  For t < 0 apply
    the family's mirror symmetry first.
    """
    if t <= 0:
        raise ValueError("t must be positive; use the mirrored parameters for t < 0")
    if abs(m) + t / 2 > 0.125 + 1e-12:
        raise ValueError(f"(m={m}, t={t}) leaves the valid parameter region")
    rho = three_qubit_family_mt(m, t)
    nearest = DensityState(
        _anti_diagonal_density((m - t / 2, m + t / 2, 0.125 - t / 2, 0.125 - t / 2)),
        SystemShape((2, 2, 2)),
    )
    d0 = np.eye(8, dtype=complex) / 8
    segment = DensityState((rho.mat + 8 * t * d0) / (1 + 8 * t), SystemShape((2, 2, 2)))
    return SeparableCandidates(rho, nearest, segment)
