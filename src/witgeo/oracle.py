# src/witgeo/oracle.py

"""Numerical verification oracles.

* ppt_report: minimum eigenvalue of every partial transpose, one cut per
  party subset up to complement symmetry.
* min_over_products: see-saw (alternating local eigenvector) minimization
  of Tr(H pi) over rank-1 product projections.  Linearity in the state
  makes product projections sufficient to probe the separable set, so
  the returned value is an upper bound on the true minimum over it, with
  restart consensus as the confidence signal.  Never a certified global
  minimum.
* product_from_angles: the product projection with local vectors
  (cos t_k, e^{i phi_k} sin t_k), the parametrization of the three-qubit
  product bound.  That bound has the closed form 2*sqrt(2); see
  measurements.three_qubit_witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DensityState,
    ProductProjection,
    hermitian_eigen,
    is_hermitian,
    partial_transpose,
    tensor,
)


@dataclass(frozen=True)
class PptReport:
    """Minimum eigenvalue of the partial transpose for each canonical cut."""

    min_eigenvalues: dict[tuple[int, ...], float]

    @property
    def minimum(self) -> float:
        return min(self.min_eigenvalues.values())

    def is_ppt(self, tol: float = 1e-10) -> bool:
        return self.minimum >= -tol


def ppt_report(rho: DensityState) -> PptReport:
    """Partial-transpose spectra over all cuts, one per complement pair.

    Transposing a subset and its complement give matrices with the same
    spectrum, so only subsets excluding party 0 are listed.
    """
    n = rho.shape.parties
    if n < 2:
        raise ValueError("need at least two parties")
    out = {}
    others = range(1, n)
    for r in range(1, n):
        for subset in itertools.combinations(others, r):
            pt = partial_transpose(rho, subset)
            w, _ = hermitian_eigen(pt)
            out[subset] = float(w[0])
    return PptReport(out)


# See-saw stopping rule: a restart ends once a sweep lowers the objective
# by less than _SWEEP_TOL, or after _MAX_SWEEPS sweeps.
_MAX_SWEEPS = 200
_SWEEP_TOL = 1e-11


@dataclass(frozen=True)
class SeeSawConfig:
    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class MinProductsResult:
    value: float
    argmin: ProductProjection
    consensus: int
    restarts: int
    values: tuple[float, ...] = field(repr=False)

    def summary(self) -> str:
        return (
            f"upper bound {self.value:.12g} with restart consensus "
            f"{self.consensus}/{self.restarts}"
        )


def _local_operator(h: np.ndarray, vecs: list[np.ndarray], k: int) -> np.ndarray:
    """eff[a, b] = <a, others|H|b, others>, every party but k fixed to its vector."""
    cols = tensor(*(np.eye(len(v)) if i == k else v[:, None] for i, v in enumerate(vecs)))
    return cols.conj().T @ h @ cols


def min_over_products(h: np.ndarray, dims, cfg: SeeSawConfig | None = None) -> MinProductsResult:
    """See-saw minimization of Tr(H pi) over product projections pi.

    Each pass holds all parties but one fixed; the optimal local vector
    is the minimum eigenvector of the effective single-party operator.
    The objective after each sweep is the last party's lowest local
    eigenvalue; it never rises, and a sweep that raises it by more than
    1e-9 raises AssertionError.  Restarts are independent and merged by
    min, keyed by (value, restart index), so the result is deterministic
    under (seed, restarts).
    """
    cfg = cfg or SeeSawConfig()
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("objective matrix must be Hermitian")
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not dims or int(np.prod(dims)) != h.shape[0]:
        raise ValueError(f"dims {dims} do not match matrix size {h.shape[0]}")

    finals = []
    argmins = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, r])
        vecs = []
        for d in dims:
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(v / np.linalg.norm(v))
        prev = np.inf
        for _ in range(_MAX_SWEEPS):
            for k in range(n):
                w, v = np.linalg.eigh(_local_operator(h, vecs, k))
                vecs[k] = v[:, 0]
            val = float(w[0])  # <pi|H|pi> once the last party is updated
            if val > prev + 1e-9:
                raise AssertionError(f"see-saw sweep increased the objective: {prev!r} -> {val!r}")
            if prev - val < _SWEEP_TOL:
                break
            prev = val
        finals.append(val)
        argmins.append(ProductProjection(tuple(vecs)))

    best_idx = min(range(cfg.restarts), key=lambda i: (finals[i], i))
    best = finals[best_idx]
    consensus = sum(1 for v in finals if v <= best + 1e-9)
    return MinProductsResult(
        value=best,
        argmin=argmins[best_idx],
        consensus=consensus,
        restarts=cfg.restarts,
        values=tuple(finals),
    )


# ----------------------------------------------------------------------------
# three-qubit product-state bound


def product_from_angles(thetas, phis) -> ProductProjection:
    """Product projection with local vectors (cos t_k, e^{i phi_k} sin t_k)."""
    facs = tuple(
        np.array([np.cos(t), np.exp(1j * p) * np.sin(t)], dtype=complex)
        for t, p in zip(thetas, phis)
    )
    return ProductProjection(facs)
