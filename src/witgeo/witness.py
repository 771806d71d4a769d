# src/witgeo/witness.py

"""Witness construction from separable-set geometry, plus detection bounds.

Given an entangled target rho0 and a separable reference tau0, the
supporting-hyperplane construction

    W = tau0 + c0*I - rho0,    c0 = Tr[tau0 (rho0 - tau0)]

yields a Hermitian observable with Tr(W rho0) = -||rho0 - tau0||^2 < 0.
The induced-inner-product identity

    Tr(W rho) = -<rho0 - tau0, rho - tau0>

holds for every rho; identity_deviation is its worst case over all states,
which verify checks.  nearest_witness is the one place W and c0 are
computed; a Witness only checks that it detects its target.  The paper's
route through the last separable point on the segment from I/N to rho0
gives the same observable; the tests keep it as a reference route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DensityState, hs_inner

# An expectation value this far below zero counts as detection; anything
# closer to zero is treated as eigensolver noise.
DETECTION_TOL = 1e-10


@dataclass(frozen=True)
class Witness:
    """Hermitian witness observable with its construction data."""

    matrix: np.ndarray
    c0: float
    rho0: DensityState
    tau0: DensityState
    s0: float | None = None

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if hs_inner(mat, self.rho0.mat).real >= 0:
            raise ValueError("witness does not detect its target state")

    @property
    def n(self) -> int:
        return self.rho0.n

    @property
    def dims(self) -> tuple[int, ...]:
        return self.rho0.dims


def _hyperplane(rho0: DensityState, tau0: DensityState) -> tuple[float, np.ndarray]:
    """c0 and W = tau0 + c0*I - rho0 of the hyperplane with normal rho0 - tau0."""
    if rho0.dims != tau0.dims:
        raise ValueError(f"shape mismatch: {rho0.dims} vs {tau0.dims}")
    c0 = hs_inner(tau0.mat, rho0.mat - tau0.mat).real
    return c0, tau0.mat + c0 * np.eye(rho0.n) - rho0.mat


def nearest_witness(rho0: DensityState, tau0: DensityState) -> Witness:
    """Witness through the closest separable state (hyperplane normal rho0 - tau0).

    rho0 = tau0 gives W = 0, which the detection check rejects.
    """
    c0, w = _hyperplane(rho0, tau0)
    return Witness(matrix=w, c0=c0, rho0=rho0, tau0=tau0)


def evaluate(w: Witness, rho) -> float:
    """Expectation value Tr(W rho)."""
    mat = rho.mat if isinstance(rho, DensityState) else rho
    return float(hs_inner(w.matrix, mat).real)  # raises on a shape mismatch


def identity_deviation(w: Witness) -> float:
    """sup over states rho of |Tr(W rho) + Re<rho0 - tau0, rho - tau0>|.

    For unit-trace Hermitian rho the expression is Tr[(H - k I) rho], with
    H the Hermitian part of W + (rho0 - tau0) and k = Re<rho0 - tau0, tau0>,
    so the supremum is the largest absolute eigenvalue of H - k I.
    """
    diff = w.rho0.mat - w.tau0.mat
    a = w.matrix + diff - hs_inner(diff, w.tau0.mat).real * np.eye(w.n)
    return float(np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2)).max())


def two_qubit_noise_threshold(a: float, b: float, delta: float = 0.0) -> float:
    """Visibility threshold (1+4*delta)/(4ab+1+4*delta) for two-qubit detection.

    For p above the returned value, p*|psi_a><psi_a| + (1-p)*sigma is
    guaranteed inseparable for every sigma within Hilbert-Schmidt
    distance delta of I/4.  Returns a value >= 1 when no visibility can
    give a guarantee (a*b = 0).
    """
    if a < 0 or b < 0:
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(a * a + b * b - 1.0) > 1e-10:
        raise ValueError(f"coefficients not normalized: a^2+b^2 = {a*a + b*b}")
    if not (delta >= 0 and np.isfinite(4 * delta)):  # 4*delta = inf would give inf / inf
        raise ValueError(f"delta must be nonnegative with 4*delta finite, got {delta}")
    return (1 + 4 * delta) / (4 * a * b + 1 + 4 * delta)


def qudit_detection_predicate(d: int, amps, p: float, delta: float) -> bool:
    """Sufficient inseparability test for p*|psi_a><psi_a| + (1-p)*sigma on d x d.

    True when (1-p)/p * (1 - 1/d + delta*sqrt(2d(d-1))) < (sum_k a_k)^2 - 1,
    with ||sigma - I/N|| < delta.  At d = 2 this reduces to the threshold
    form of two_qubit_noise_threshold.  p = 0 detects nothing.
    """
    a = np.asarray(amps, dtype=float)
    if abs(np.dot(a, a) - 1.0) > 1e-10:
        raise ValueError("coefficients not normalized")
    if len(a) != d:
        raise ValueError(f"expected {d} coefficients, got {len(a)}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    # Python floats overflow to inf without a numpy warning; an infinite term
    # would give 0 * inf at p = 1
    term = 1 - 1 / d + delta * math.sqrt(2 * d * (d - 1))
    if not (delta >= 0 and math.isfinite(term)):
        raise ValueError(f"delta must be nonnegative with a finite noise term, got {delta}")
    if p == 0:
        return False
    rhs = float(np.sum(a)) ** 2 - 1
    return bool((1 - p) / p * term < rhs)


def frustum_predicate(p: float, delta: float, n: int, m: int, b: float, eps: float) -> bool:
    """Detection-region test for mixtures of reweighted far-face states.

    True when p*(m-b)/(N-b) + (1-p)/N + (1-p)*delta/sqrt(m) < eps/m, in
    which case (1-p)*sigma + p*rho_b stays on the detected side of the
    far-face hyperplane for every sigma within delta of I/N.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if not 0 < b <= m < n:
        raise ValueError(f"need 0 < b <= m < N, got b={b}, m={m}, N={n}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    lhs = p * (m - b) / (n - b) + (1 - p) / n + (1 - p) * delta / math.sqrt(m)  # m may exceed int64
    return bool(lhs < eps / m)
