# src/witgeo/upb.py

"""Far-face machinery built on unextendible product bases.

An unextendible product basis (UPB) is an orthonormal family of m < N
product vectors whose orthogonal complement contains no product vector.
The uniform mixture over its projectors is a separable state of rank m
sitting on the face of the separable set diametrically opposite (through
I/N) the bound entangled state

    rho0 = (N * I/N - m * mu0) / (N - m),

which is PPT by construction of the family.  Because the minimum product
overlap eps/m = inf Tr(mu0 sigma) is strictly positive for a UPB, the
witness

    W = eps*N/(N-m) * (mu0 - eps/m * I)

detects rho0 while staying nonnegative on the separable set.  It
coincides with the hyperplane form tau0 + c0*I - rho0 through the segment
point tau0 = (1-s0) I/N + s0 rho0 at s0 = 1 - eps*N/m; far_face_witness
checks that coincidence once, on construction.  Like every Witness it
needs Tr(W rho0) = -eps^2 N/(m(N-m)) < -DETECTION_TOL, so a tiny eps is bad input.
estimate_epsilon runs the see-saw under the caller's SeeSawConfig and
returns eps together with the see-saw's own MinProductsResult (value
eps/m, argmin, consensus and every restart's value).  The three take
mu0 = uniform_mixture(upb), which a command builds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import BadInput, DensityState, check_size, tensor
from .oracle import MinProductsResult, SeeSawConfig, min_over_products
from .witness import Witness, nearest_witness


@dataclass(frozen=True)
class UpbSet:
    """Orthonormal product vectors stored by their per-party factors."""

    dims: tuple[int, ...]
    vectors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        # the one place dims enter from outside the program: UPB files
        dims = tuple(int(d) for d in self.dims)
        if not dims or min(dims) < 2:
            raise ValueError(f"local dimensions must all be >= 2, got {dims}")
        check_size(math.prod(dims), "x".join(map(str, dims)))  # before the m x m Gram matrix
        object.__setattr__(self, "dims", dims)
        if not self.vectors:
            raise ValueError("the family has no vectors")
        stored = []
        for factors in self.vectors:
            if len(factors) != len(dims):
                raise ValueError("each vector needs one factor per party")
            facs = []
            for f, d in zip(factors, dims):
                f = np.asarray(f, dtype=complex).ravel()
                if len(f) != d:
                    raise ValueError(f"factor length {len(f)} != local dimension {d}")
                nrm = np.linalg.norm(f)
                if nrm < 1e-12:
                    raise ValueError("zero factor")
                f = f / nrm
                f.setflags(write=False)
                facs.append(f)
            stored.append(tuple(facs))
        object.__setattr__(self, "vectors", tuple(stored))
        if self.m >= self.n:
            raise ValueError("a product basis this large cannot be unextendible")
        gram = self.gram()
        dev = np.abs(gram - np.eye(self.m)).max()
        if dev > 1e-10:
            raise ValueError(f"vectors are not orthonormal: Gram deviation {dev:.3e}")

    @property
    def m(self) -> int:
        return len(self.vectors)

    @property
    def n(self) -> int:
        """Total dimension N = d1 * ... * dn."""
        return math.prod(self.dims)

    def gram(self) -> np.ndarray:
        # the overlap of two product vectors is the product of the party overlaps,
        # so no vector of the full size N is formed
        parties = [np.array(factors) for factors in zip(*self.vectors)]  # each (m, d_k)
        return reduce(np.multiply, [f.conj() @ f.T for f in parties])


def tiles() -> UpbSet:
    """The five-member 3 x 3 tiles family.

    Amplitudes follow the standard construction: four domino states
    |0>(|0>-|1>), |2>(|1>-|2>), (|0>-|1>)|2>, (|1>-|2>)|0> and the
    uniform stopper.  The constructor's orthonormality check plus the
    downstream PPT / positive-overlap checks are what certify the
    transcription.
    """
    e = np.eye(3)
    return UpbSet(
        (3, 3),
        (
            (e[0], e[0] - e[1]),
            (e[2], e[1] - e[2]),
            (e[0] - e[1], e[2]),
            (e[1] - e[2], e[0]),
            (e[0] + e[1] + e[2], e[0] + e[1] + e[2]),
        ),
    )


def uniform_mixture(upb: UpbSet) -> DensityState:
    """The separable state mu0 = (1/m) sum_k |phi_k><phi_k| (rank m, purity 1/m)."""
    parties = [np.array(factors)[:, :, None] for factors in zip(*upb.vectors)]  # each (m, d_k, 1)
    mat = sum(np.outer(v, v.conj()) for v in tensor(*parties)[:, :, 0]) / upb.m
    return DensityState(mat, upb.dims)


def bound_entangled(upb: UpbSet, mu0: DensityState) -> DensityState:
    """Normalized projector complement (N*I/N - m*mu0)/(N-m); PPT by construction."""
    n = upb.n
    m = upb.m
    mat = (np.eye(n) - m * mu0.mat) / (n - m)
    low = np.linalg.eigvalsh(mat).min()
    if low < -1e-10:
        raise BadInput(f"complement state not PSD (min eig {low:.3e}); invalid UPB input")
    return DensityState(mat, upb.dims)


def estimate_epsilon(
    upb: UpbSet, mu0: DensityState, cfg: SeeSawConfig
) -> tuple[float, MinProductsResult]:
    """Estimate eps = m * inf Tr(mu0 sigma) over product states by see-saw.

    Returns eps with the see-saw's own result, whose value is eps/m.  eps
    is an upper bound on the true m * infimum (restart consensus is the
    confidence proxy).  A value at numerical zero contradicts
    unextendibility and is rejected; so is a value outside the bracket
    (0, m/N) required for the far-face witness.
    """
    res = min_over_products(mu0.mat, upb.dims, cfg)
    if res.value <= 1e-12:
        raise BadInput(
            "minimum product overlap is numerically zero; the family is extendible "
            "or otherwise invalid"
        )
    eps = upb.m * res.value
    if not eps < upb.m / upb.n:
        raise AssertionError(f"eps = {eps} exceeds its bracket m/N")
    return eps, res


def far_face_witness(upb: UpbSet, mu0: DensityState, eps: float) -> Witness:
    """Witness eps*N/(N-m) * (mu0 - eps/m * I) for the UPB's bound entangled state.

    nearest_witness gives c0 and tau0 + c0 I - rho0 at the segment point
    tau0 = (1-s0) I/N + s0 rho0, s0 = 1 - eps*N/m; the closed form must
    equal that matrix, and it is the stored one.  (tau0 is a hyperplane
    intersection point here, not itself separable.)
    """
    n = upb.n
    m = upb.m
    if not 0.0 < eps < m / n:
        raise ValueError(f"eps = {eps} outside (0, m/N = {m/n})")
    rho0 = bound_entangled(upb, mu0)
    closed = eps * n / (n - m) * (mu0.mat - eps / m * np.eye(n))

    s0 = 1.0 - eps * n / m
    tau0 = DensityState((1 - s0) * np.eye(n) / n + s0 * rho0.mat, upb.dims)
    hp = nearest_witness(rho0, tau0)
    dev = np.abs(closed - hp.matrix).max()
    if dev > 1e-10:
        raise AssertionError(f"far-face witness deviates from tau0 + c0 I - rho0 by {dev:.3e}")
    return Witness(closed, hp.c0, rho0, tau0, s0)
