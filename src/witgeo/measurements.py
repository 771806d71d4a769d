# src/witgeo/measurements.py

"""Witness decompositions into coordinated local measurement settings.

A *setting* fixes one complete orthogonal basis per party (everyone
measures simultaneously) and attaches a real weight to every joint
outcome; the setting's value on a state is the weighted sum of joint
outcome probabilities.  A witness decomposition is

    W = identity_coeff * I + sum_s setting_weight_s * M_s,
    M_s = sum_outcomes weight_s[outcome] * (tensor of outcome projectors),

so the witness expectation is assembled from locally measurable data
plus a constant.  Outcome weights are stored densely, one entry per
joint outcome (at most 7^2 or 2^4 entries here), which keeps the
correlated and anti-correlated patterns uniform.

Builders cover the two-qubit witness (3 settings), the d x d witness
for odd prime d (d+1 settings from the spin projection families), the
three-qubit bound entangled family (4 settings), the n-qubit GHZ
witness, and the far-face witness of an unextendible product basis (m
single-outcome settings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linalg import DensityState, tensor
from .spin import is_prime, projection_family
from .states import (
    closest_separable,
    ghz,
    ghz_corner_mix,
    ghz_dephased,
    max_entangled,
    three_qubit_separable_candidates,
)
from .witness import Witness, nearest_witness

if TYPE_CHECKING:
    from .upb import UpbSet

_BASIS_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSetting:
    """One complete local basis per party plus a weight per joint outcome.

    ``party_bases`` holds one (d, d) array per party whose *columns* are
    the measurement eigenvectors; column unitarity is exactly per-party
    completeness plus orthogonality of the outcome projectors.
    ``weights`` is real with shape equal to the local dimensions.
    """

    party_bases: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __post_init__(self):
        bases = tuple(np.array(u, dtype=complex) for u in self.party_bases)
        w = np.array(self.weights, dtype=float)
        if not all(np.isfinite(a).all() for a in (*bases, w)):
            raise ValueError("party bases and outcome weights must be finite")
        for u in bases:
            d = u.shape[0]
            if u.shape != (d, d):
                raise ValueError("party basis must be square")
            dev = np.abs(u.conj().T @ u - np.eye(d)).max()
            if dev > _BASIS_TOL:
                raise ValueError(f"party basis not orthonormal: deviation {dev:.3e}")
            u.setflags(write=False)
        object.__setattr__(self, "party_bases", bases)
        if w.shape != self.dims:
            raise ValueError(f"weight table shape {w.shape} != local dims {self.dims}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.party_bases)

    def joint_isometry(self) -> np.ndarray:
        """Kron of the party bases; column o is the joint outcome vector."""
        return tensor(*self.party_bases)

    def weighted_sum(self) -> np.ndarray:
        """M = sum_o weights[o] * |o><o| in the joint measurement basis."""
        a = self.joint_isometry()
        return (a * self.weights.ravel()) @ a.conj().T

    def joint_probabilities(self, rho: DensityState) -> np.ndarray:
        """Exact outcome distribution Tr[(tensor of projectors) rho]."""
        if rho.dims != self.dims:
            raise ValueError(f"state shape {rho.dims} != setting shape {self.dims}")
        a = self.joint_isometry()
        return (a.conj() * (rho.mat @ a)).sum(axis=0).real.reshape(self.dims)


@dataclass(frozen=True)
class WitnessDecomposition:
    identity_coeff: float
    settings: tuple[tuple[float, MeasurementSetting], ...]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise ValueError("a decomposition needs at least one setting")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.settings[0][1].dims

    def matrix(self) -> np.ndarray:
        n = int(np.prod(self.dims))
        out = self.identity_coeff * np.eye(n, dtype=complex)
        for sw, setting in self.settings:
            out += sw * setting.weighted_sum()
        return out

    def residual(self, w) -> float:
        target = w.matrix if isinstance(w, Witness) else np.asarray(w)
        return float(np.abs(self.matrix() - target).max())


_S = 1 / np.sqrt(2)
# columns: the +1 and -1 eigenvectors, with the phases and zero signs eigh gives
_PAULI_BASES = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[_S, -_S], [_S, _S]], dtype=complex),
    "y": np.array([[-_S, -_S], [complex(0, -_S), complex(0, _S)]]),
}


def _parity_weights(n: int, parity: int, weight: float) -> np.ndarray:
    """Weight table over {0,1}^n supported on outcomes of fixed parity.

    Outcome bit 0 stands for the +1 eigenvector, so the joint sign is
    (-1)^(number of 1 bits).
    """
    signs = (-1) ** np.indices((2,) * n).sum(axis=0)
    return np.where(signs == parity, weight, 0.0)


def two_qubit_decomposition() -> WitnessDecomposition:
    """Three-setting form of the two-qubit witness.

    The closest separable state is an equal mixture of three one-setting
    densities: equal outcomes along z, equal outcomes along x, opposite
    outcomes along y.  With W = (2/3) I - 2 tau0 each setting enters with
    weight -2/3.
    """
    settings = [
        (-2.0 / 3.0, MeasurementSetting((_PAULI_BASES[axis],) * 2, _parity_weights(2, parity, 0.5)))
        for axis, parity in (("z", +1), ("x", +1), ("y", -1))
    ]
    return WitnessDecomposition(2.0 / 3.0, tuple(settings))


def qudit_decomposition(d: int) -> WitnessDecomposition:
    """(d+1)-setting form of the d x d witness for prime d.

    One setting pairs the spectral families of the two pure shift
    operators with indices (1,0) and (d-1,0); the remaining d settings
    pair the families of (j,1) with (d-j,1).  In every setting the weight
    sits on the anti-correlated outcomes (r, d-r) with value 1/d, making
    each setting's weighted sum a separable density; the closest
    separable state is their equal mixture and

        W = 2/(1+d) * I - d * tau0

    fixes the setting weights at -d/(d+1).
    """
    if d == 2:
        return two_qubit_decomposition()
    if not is_prime(d):
        raise ValueError(f"dimension must be prime, got {d}")

    index_pairs = [((1, 0), (d - 1, 0))] + [((j, 1), ((d - j) % d, 1)) for j in range(d)]
    weights = np.zeros((d, d))
    for r in range(d):
        weights[r, (d - r) % d] = 1.0 / d

    # basis column r is the top eigenvector of the rank-1 P_u(r); every (j, 1)
    # family serves two settings, so each family is built once
    bases = {
        u: np.ascontiguousarray(np.linalg.eigh(projection_family(d, *u))[1][:, :, -1].T)
        for u in {u for pair in index_pairs for u in pair}
    }
    settings = [
        (-d / (d + 1), MeasurementSetting((bases[u], bases[v]), weights))
        for u, v in index_pairs
    ]
    return WitnessDecomposition(2.0 / (1 + d), tuple(settings))


def three_qubit_decomposition(t: float) -> WitnessDecomposition:
    """Four-setting form of the three-qubit family witness at parameters (0, t).

    The witness equals t * [(5/4) I - 2 (P+(111) + P-(221) + P-(212) +
    P+(122))]; each parity state is one setting in the corresponding
    x/y local bases with weight 1/4 on the outcomes of matching parity.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    settings = []
    for axes, parity in (("xxx", +1), ("yyx", -1), ("yxy", -1), ("xyy", +1)):
        bases = tuple(_PAULI_BASES[ax] for ax in axes)
        settings.append((-2.0 * t, MeasurementSetting(bases, _parity_weights(3, parity, 0.25))))
    return WitnessDecomposition(1.25 * t, tuple(settings))


class GhzWitness(NamedTuple):
    a: float
    b: float
    c: float
    mixing: float           # weight of the dephased part inside tau0
    witness: Witness
    corner: DensityState    # Q, which the equatorial settings reproduce


class GhzDecomposition(NamedTuple):
    a: float
    b: float
    c: float
    mixing: float           # weight of the dephased part inside tau0
    witness: Witness
    decomposition: WitnessDecomposition


def _xy_axis_basis(phi: float) -> np.ndarray:
    """Eigenbasis of cos(phi) sigma_x + sin(phi) sigma_y, +1 eigenvector first."""
    plus = np.array([1.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -np.exp(1j * phi)], dtype=complex) / np.sqrt(2)
    return np.column_stack([plus, minus])


def ghz_witness(n: int) -> GhzWitness:
    """GHZ witness a*I - b*Delta - c*Q with its checked coefficients.

    tau0 is the closest point to the GHZ state on the segment between
    the dephased state (Delta) and the corner state (Q); the mixing
    weight is the vertex of that one-dimensional quadratic, in closed
    form and clipped to [0, 1].
    """
    if n < 2:
        raise ValueError("need at least two parties")
    rho0 = ghz(n)
    delta = ghz_dephased(n)
    corner = ghz_corner_mix(n)
    size = 2**n

    diff = delta.mat - corner.mat
    resid = rho0.mat - corner.mat

    denom = float(np.vdot(diff, diff).real)
    x = min(1.0, max(0.0, float(np.vdot(diff, resid).real) / denom))

    tau0 = DensityState(x * delta.mat + (1 - x) * corner.mat, rho0.shape)
    wit = nearest_witness(rho0, tau0)

    a = wit.c0 + 0.5
    b = 1.0 - x
    c = 2 ** (n - 1) - 1 + x
    recon = a * np.eye(size) - b * delta.mat - c * corner.mat
    dev = np.abs(recon - wit.matrix).max()
    if dev > 1e-10:
        raise AssertionError(f"witness coefficients inconsistent by {dev:.3e}")
    if min(a, b, c) <= 0:
        raise AssertionError(f"expected positive coefficients, got {(a, b, c)}")
    return GhzWitness(a, b, c, x, wit, corner)


def ghz_settings(g: GhzWitness) -> WitnessDecomposition:
    """The n+1 settings of a GHZ witness: one computational-basis setting for Delta
    and n one-axis settings whose equal mixture reproduces Q.

    Setting j of Q measures every party along the equatorial axis at angle
    pi*j/n and weights the outcomes of parity (-1)^j uniformly; the weighted
    sum is I/N + (-1)^j/N * (axis operator)^(tensor n), and the alternating
    average leaves exactly the two corner coherences.  The builder verifies
    that matrix identity against ``g.corner`` and fails loudly otherwise.
    """
    n = len(g.corner.dims)
    dephased_weights = np.zeros((2,) * n)
    dephased_weights[(0,) * n] = dephased_weights[(1,) * n] = 0.5
    settings = [(-g.b, MeasurementSetting((np.eye(2, dtype=complex),) * n, dephased_weights))]
    acc = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(n):
        basis = _xy_axis_basis(np.pi * j / n)
        setting = MeasurementSetting(
            (basis,) * n, _parity_weights(n, (-1) ** j, 1.0 / 2 ** (n - 1))
        )
        settings.append((-g.c / n, setting))
        acc += setting.weighted_sum()
    dev = np.abs(acc / n - g.corner.mat).max()
    if dev > 1e-12:
        raise AssertionError(f"corner-state expansion failed verification: {dev:.3e}")
    return WitnessDecomposition(g.a, tuple(settings))


def ghz_decomposition(n: int) -> GhzDecomposition:
    """GHZ witness (see ghz_witness) with its n+1 measurement settings."""
    g = ghz_witness(n)
    return GhzDecomposition(g.a, g.b, g.c, g.mixing, g.witness, ghz_settings(g))


def complete_basis(v: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis whose first column is v."""
    v = np.asarray(v, dtype=complex).ravel()
    d = len(v)
    q, _ = np.linalg.qr(np.column_stack([v, np.eye(d)]))
    if abs(abs(np.vdot(q[:, 0], v)) - 1.0) > 1e-10:
        raise AssertionError("basis completion lost the seed vector")
    q = np.array(q)
    q[:, 0] = v  # undo the QR phase on the seed column
    return q


def far_face_decomposition(upb: "UpbSet", eps: float) -> WitnessDecomposition:
    """Settings measuring the far-face witness of an unextendible product basis.

    Each basis member is a product vector, so one local setting per
    member (factor completed to a full local basis, weight 1 on the
    all-zero outcome) measures its projector; m settings in total.

        W = eps*N/(N-m) * mu0 - eps^2*N/(m(N-m)) * I
    """
    n_total = upb.shape.size
    m = upb.m
    if not 0 < eps < m / n_total:
        raise ValueError(f"eps = {eps} outside (0, m/N)")
    coeff = eps * n_total / (n_total - m)
    settings = []
    for k in range(m):
        bases = tuple(complete_basis(f) for f in upb.vectors[k])
        w = np.zeros(upb.shape.dims)
        w[(0,) * upb.shape.parties] = 1.0
        settings.append((coeff / m, MeasurementSetting(bases, w)))
    return WitnessDecomposition(-coeff * eps / m, tuple(settings))


# ----------------------------------------------------------------------------
# finite-shot simulation


class ShotEstimate(NamedTuple):
    estimate: float
    stderr: float
    shots_per_setting: int


def shot_estimate(
    dec: WitnessDecomposition, rho: DensityState, shots_per_setting: int, seed: int
) -> ShotEstimate:
    """Plug-in estimate of Tr(W rho) from simulated local measurements.

    For each setting, the outcome counts of ``shots_per_setting`` shots
    are one multinomial draw from the exact outcome distribution; the
    per-setting statistic is the sample mean of the outcome weights, and
    the sample mean and variance depend on the shots only through those
    counts.  Substreams are derived from (seed, setting index), so
    results are bit-reproducible and independent of evaluation order.
    The estimator is unbiased with standard error assembled from
    per-setting sample variances.  Time and memory per setting grow with
    the number of outcomes, not with the number of shots.
    """
    if not 1 <= shots_per_setting < 2**63:  # numpy draws int64 counts
        raise ValueError(f"shots per setting must lie in [1, {2**63 - 1}]")
    estimate = dec.identity_coeff
    variance = 0.0
    for idx, (sw, setting) in enumerate(dec.settings):
        probs = setting.joint_probabilities(rho).ravel()
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-8:  # also rejects NaN
            raise ValueError(
                f"setting {idx} outcome probabilities sum to {total}, not 1"
            )
        probs = np.clip(probs, 0.0, None)
        rng = np.random.default_rng([seed, idx])
        counts = rng.multinomial(shots_per_setting, probs / probs.sum())
        w = setting.weights.ravel()
        mean = float(counts @ w) / shots_per_setting
        seen = w[counts > 0]
        # a constant sample has variance exactly 0; the sum would leave rounding
        if seen.min() == seen.max():
            var = 0.0
        else:
            var = float(counts @ (w - mean) ** 2) / (shots_per_setting - 1)
        estimate += sw * mean
        variance += sw * sw * var / shots_per_setting
    return ShotEstimate(estimate, float(np.sqrt(variance)), shots_per_setting)


# ----------------------------------------------------------------------------
# convenience: witness + decomposition bundles for the standard targets


def standard_witness(d: int) -> Witness:
    """Witness for the d x d maximally entangled state via its closed-form tau0."""
    return nearest_witness(max_entangled(d), closest_separable(d))


def three_qubit_witness(m: float, t: float) -> Witness:
    """Published witness construction for the three-qubit family at (m, t), t > 0.

    Built through the claimed nearest separable state; independent of m,
    with c0 = t/4.  It is not positive on product states, so it is not a
    witness: W = (t/4)[I - (XXX + XYY - YXY - YYX)] has product-state
    floor (t/4)(1 - sqrt(2)), reached at Bloch angles theta_k = pi/4,
    phi = (pi/4, -pi/4, -pi/4).
    """
    cands = three_qubit_separable_candidates(m, t)
    return nearest_witness(cands.rho, cands.nearest)
