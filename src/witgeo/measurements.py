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
joint outcome (N entries), which keeps the correlated and
anti-correlated patterns uniform.  M_s and the outcome probabilities
are contracted one party at a time, O(d N^2) per setting; the N x N
Kronecker product of the party bases is never formed.

Builders cover the d x d witness for prime d (d+1 settings in the
closed-form spin eigenbases; d = 2 takes the 3 GHZ settings of n = 2),
the three-qubit bound entangled family (4 settings), the n-qubit GHZ
witness, and the far-face witness of an unextendible product basis (m
single-outcome settings).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .linalg import BadInput, DensityState
from .spin import eigenbasis
from .states import (
    closest_separable,
    ghz,
    max_entangled,
    three_qubit_family,
    three_qubit_nearest,
    x_matrix,
)
from .witness import Witness, nearest_witness

if TYPE_CHECKING:
    from .upb import UpbSet


@dataclass(frozen=True)
class MeasurementSetting:
    """One complete local basis per party plus a weight per joint outcome.

    ``party_bases`` holds one (d, d) array per party whose *columns* are
    the measurement eigenvectors; column unitarity is exactly per-party
    completeness plus orthogonality of the outcome projectors.
    ``weights`` is real with shape equal to the local dimensions.  Both are
    kept as given: the builders' bases are unitary by their closed forms
    (proven in the tests), and ``io`` checks the bases it reads, so
    construction checks only the table shape.
    """

    party_bases: tuple[np.ndarray, ...]
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != self.dims:
            raise ValueError(f"weight table shape {self.weights.shape} != local dims {self.dims}")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.party_bases)

    def weighted_sum(self) -> np.ndarray:
        """M = sum_o weights[o] * |o><o| in the joint measurement basis."""
        out = self.weights.reshape(-1, 1, 1)  # (outcomes of earlier parties, rows, cols)
        for u in reversed(self.party_bases):  # (P*d, R, R) -> (P, d*R, d*R), last party first
            d, (p, r, _) = u.shape[0], out.shape
            y = out.reshape(p // d, d, r, 1, r) * u.conj().T.reshape(d, 1, d, 1)
            out = (u @ y.reshape(p // d, d, -1)).reshape(p // d, d * r, d * r)
        return out.reshape(out.shape[1:])

    def joint_probabilities(self, rho: DensityState) -> np.ndarray:
        """Exact outcome distribution Tr[(tensor of projectors) rho]."""
        if rho.dims != self.dims:
            raise ValueError(f"state shape {rho.dims} != setting shape {self.dims}")
        out = rho.mat.reshape(1, *rho.mat.shape)  # (outcomes of earlier parties, rows, cols)
        for u in self.party_bases:  # (P, d*R, d*R) -> (P*d, R, R): rows meet U^dagger, columns U
            d, (p, n, _) = u.shape[0], out.shape
            y = (u.conj().T @ out.reshape(p, d, -1)).reshape(p, d, n // d, d, n // d)
            y *= u.T.reshape(d, 1, d, 1)  # in place: one full-size temporary per party, not two
            out = y.sum(axis=3).reshape(p * d, n // d, n // d)
        return out.real.reshape(self.dims)


@dataclass(frozen=True)
class WitnessDecomposition:
    identity_coeff: float
    settings: tuple[tuple[float, MeasurementSetting], ...]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise ValueError("a decomposition needs at least one setting")
        if any(s.dims != self.dims for _, s in self.settings[1:]):
            raise ValueError(f"setting shapes {[s.dims for _, s in self.settings]} differ")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.settings[0][1].dims

    def matrix(self) -> np.ndarray:
        n = int(np.prod(self.dims))
        out = self.identity_coeff * np.eye(n, dtype=complex)
        for sw, setting in self.settings:
            out += sw * setting.weighted_sum()
        return out

    def residual(self, w: Witness) -> float:
        return float(np.abs(self.matrix() - w.matrix).max())


def _parity_weights(n: int, parity: int, weight: float) -> np.ndarray:
    """Weight table over {0,1}^n supported on outcomes of fixed parity.

    Outcome bit 0 stands for the +1 eigenvector, so the joint sign is
    (-1)^(number of 1 bits).
    """
    signs = (-1) ** np.indices((2,) * n).sum(axis=0)
    return np.where(signs == parity, weight, 0.0)


def _xy_axis_basis(phi: float) -> np.ndarray:
    """Eigenbasis of cos(phi) sigma_x + sin(phi) sigma_y, +1 eigenvector first."""
    plus = np.array([1.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -np.exp(1j * phi)], dtype=complex) / np.sqrt(2)
    return np.column_stack([plus, minus])


def qudit_decomposition(d: int) -> WitnessDecomposition:
    """(d+1)-setting form of the d x d witness for prime d.

    One setting pairs the eigenbases (spin.eigenbasis) of the two pure
    phase operators with indices (1,0) and (d-1,0); the remaining d
    settings pair those of (j,1) with (d-j,1).  In every setting the weight
    sits on the anti-correlated outcomes (r, d-r) with value 1/d, making
    each setting's weighted sum a separable density; the closest
    separable state is their equal mixture and

        W = 2/(1+d) * I - d * tau0

    fixes the setting weights at -d/(d+1).  At d = 2 (sigma_y has no
    eigenbasis here) the witness is the n = 2 GHZ witness, whose settings
    are equal outcomes along z and x and opposite outcomes along y.
    """
    if d == 2:
        return ghz_settings(ghz_witness(2))
    # eigenbasis rejects a composite d
    index_pairs = [((1, 0), (d - 1, 0))] + [((j, 1), ((d - j) % d, 1)) for j in range(d)]
    weights = np.eye(d)[:, -np.arange(d) % d] / d  # 1/d at (r, -r mod d)
    settings = [
        (-d / (d + 1), MeasurementSetting((eigenbasis(d, *u), eigenbasis(d, *v)), weights))
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
    axis_bases = {"x": _xy_axis_basis(0.0), "y": _xy_axis_basis(np.pi / 2)}
    settings = []
    for axes, parity in (("xxx", +1), ("yyx", -1), ("yxy", -1), ("xyy", +1)):
        bases = tuple(axis_bases[ax] for ax in axes)
        settings.append((-2.0 * t, MeasurementSetting(bases, _parity_weights(3, parity, 0.25))))
    return WitnessDecomposition(1.25 * t, tuple(settings))


class GhzWitness(NamedTuple):
    a: float
    b: float
    c: float
    mixing: float           # weight of the dephased part inside tau0
    witness: Witness


class GhzDecomposition(NamedTuple):
    # a GHZ witness and its residual-checked settings; a, b, c and mixing stay on GhzWitness
    witness: Witness
    decomposition: WitnessDecomposition


def ghz_witness(n: int) -> GhzWitness:
    """GHZ witness a*I - b*Delta - c*Q with its checked coefficients.

    tau0 is the closest point to the GHZ state on the segment between
    the dephased state (Delta) and the corner state (Q).  With N = 2^n
    the mixing weight is the vertex of that one-dimensional quadratic,

        x = <Delta - Q, rho0 - Q> / |Delta - Q|^2 = (N-2)^2 / (N^2 - 2N + 4),

    which lies in (0, 1) for every n >= 2.  tau0 and the convex form are built
    from their X entries (states.x_matrix); the form is checked against W entrywise."""
    if n < 2:
        raise BadInput(f"ghz needs at least two parties, got n = {n}")
    rho0 = ghz(n)
    size = 2**n

    x = (size - 2) ** 2 / (size * size - 2 * size + 4)
    q = (1 - x) / size  # x*Delta + (1-x)*Q bit for bit, as 1/N is a power of 2
    tau0 = DensityState(x_matrix(size, q, x / 2 + q, q), rho0.dims)
    wit = nearest_witness(rho0, tau0)

    a, b, c = wit.c0 + 0.5, 1.0 - x, 2 ** (n - 1) - 1 + x
    dev = np.abs(x_matrix(size, a - c / size, a - b / 2 - c / size, -c / size) - wit.matrix).max()
    if dev > 1e-10:
        raise AssertionError(f"witness coefficients inconsistent by {dev:.3e}")
    if min(a, b, c) <= 0:
        raise AssertionError(f"expected positive coefficients, got {(a, b, c)}")
    return GhzWitness(a, b, c, x, wit)


def ghz_settings(g: GhzWitness) -> WitnessDecomposition:
    """The n+1 settings of a GHZ witness: one computational-basis setting for Delta
    and n one-axis settings whose equal mixture reproduces Q.

    Setting j of Q measures every party along the equatorial axis at angle
    pi*j/n and weights the outcomes of parity (-1)^j uniformly; the weighted
    sum is I/N + (-1)^j/N * (axis operator)^(tensor n), and the alternating
    average leaves exactly the two corner coherences.  Like the other
    builders it does not check itself: the reconstruction residual against
    ``g.witness`` covers every setting and coefficient.
    """
    n = len(g.witness.dims)
    dephased_weights = np.zeros((2,) * n)
    dephased_weights[(0,) * n] = dephased_weights[(1,) * n] = 0.5
    settings = [(-g.b, MeasurementSetting((np.eye(2, dtype=complex),) * n, dephased_weights))]
    for j in range(n):
        basis = _xy_axis_basis(np.pi * j / n)
        weights = _parity_weights(n, (-1) ** j, 1.0 / 2 ** (n - 1))
        settings.append((-g.c / n, MeasurementSetting((basis,) * n, weights)))
    return WitnessDecomposition(g.a, tuple(settings))


def ghz_decomposition(n: int) -> GhzDecomposition:
    """GHZ witness (see ghz_witness) with its n+1 measurement settings,
    checked against the witness by the reconstruction residual."""
    g = ghz_witness(n)
    dec = ghz_settings(g)
    dev = dec.residual(g.witness)
    if dev > 1e-10:
        raise AssertionError(f"GHZ settings reconstruct the witness only to {dev:.3e}")
    return GhzDecomposition(g.witness, dec)


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
    n_total = upb.n
    m = upb.m
    if not 0 < eps < m / n_total:
        raise ValueError(f"eps = {eps} outside (0, m/N)")
    coeff = eps * n_total / (n_total - m)
    settings = []
    for k in range(m):
        bases = tuple(complete_basis(f) for f in upb.vectors[k])
        w = np.zeros(upb.dims)
        w[(0,) * len(upb.dims)] = 1.0
        settings.append((coeff / m, MeasurementSetting(bases, w)))
    return WitnessDecomposition(-coeff * eps / m, tuple(settings))


# ----------------------------------------------------------------------------
# finite-shot simulation


class ShotEstimate(NamedTuple):
    estimate: float
    stderr: float
    shots_per_setting: int
    expectation: float      # identity_coeff + sum_s sw_s * (p_s . w_s): the shot-free value


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
    the number of outcomes, not with the number of shots.  The exact
    value of the settings, ``expectation``, is Tr(W rho) if they measure W.
    """
    if not 1 <= shots_per_setting < 2**63:  # numpy draws int64 counts
        raise BadInput(f"shots per setting must lie in [1, {2**63 - 1}]")
    estimate = expectation = dec.identity_coeff
    variance = 0.0
    for idx, (sw, setting) in enumerate(dec.settings):
        probs = setting.joint_probabilities(rho).ravel()
        total = probs.sum()
        if not abs(total - 1.0) <= 1e-8:  # also rejects NaN
            raise ValueError(
                f"setting {idx} outcome probabilities sum to {total}, not 1"
            )
        w = setting.weights.ravel()
        expectation += sw * float(probs @ w)
        probs = np.clip(probs, 0.0, None)
        rng = np.random.default_rng([seed, idx])
        counts = rng.multinomial(shots_per_setting, probs / probs.sum())
        mean = float(counts @ w) / shots_per_setting
        seen = w[counts > 0]
        # a constant sample has variance exactly 0; the sum would leave rounding
        if seen.min() == seen.max():
            var = 0.0
        else:
            var = float(counts @ (w - mean) ** 2) / (shots_per_setting - 1)
        estimate += sw * mean
        variance += sw * sw * var / shots_per_setting
    return ShotEstimate(estimate, float(np.sqrt(variance)), shots_per_setting, expectation)


# ----------------------------------------------------------------------------
# convenience: witness + decomposition bundles for the standard targets


def standard_witness(d: int) -> Witness:
    """Witness for the d x d maximally entangled state via its closed-form tau0."""
    rho0 = max_entangled(d)
    return nearest_witness(rho0, closest_separable(rho0))


def three_qubit_witness(m: float, t: float) -> Witness:
    """Published witness construction for the three-qubit family at (m, t), t > 0.

    Built through the claimed nearest separable state; independent of m,
    with c0 = t/4.  It is not positive on product states, so it is not a
    witness: W = (t/4)[I - (XXX + XYY - YXY - YYX)] has product-state
    floor (t/4)(1 - sqrt(2)), reached at Bloch angles theta_k = pi/4,
    phi = (pi/4, -pi/4, -pi/4).  For t < 0 apply the family's mirror
    symmetry first.
    """
    if t <= 0:
        raise BadInput("t must be positive; use the mirrored parameters for t < 0")
    rho = three_qubit_family(m, t)  # checks the region, which implies nearest's |m| + t/2 <= 1/8
    return nearest_witness(rho, three_qubit_nearest(m, t))
