# src/witgeo/oracle.py

"""Numerical verification oracles.

* ppt_report: minimum eigenvalue of every partial transpose, one cut per
  party subset up to complement symmetry.
* min_over_products: see-saw (alternating local eigenvector) minimization
  of Tr(H pi) over rank-1 product projections.  Linearity in the state
  makes product projections sufficient to probe the separable set, so
  the returned value is an upper bound on the true minimum over it, with
  restart consensus as the confidence signal.  Never a certified global
  minimum.  A party step contracts H with the other parties' vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import DensityState, is_hermitian, partial_transpose, tensor


@dataclass(frozen=True)
class PptReport:
    """Minimum eigenvalue of the partial transpose for each canonical cut."""

    min_eigenvalues: dict[tuple[int, ...], float]

    @property
    def minimum(self) -> float:
        return min(self.min_eigenvalues.values())


def ppt_report(rho: DensityState) -> PptReport:
    """Partial-transpose spectra over all cuts, one per complement pair.

    Transposing a subset and its complement give matrices with the same
    spectrum, so only subsets excluding party 0 are listed.
    """
    others = range(1, len(rho.dims))
    cuts = itertools.chain.from_iterable(itertools.combinations(others, r) for r in others)
    return PptReport(
        {c: float(np.linalg.eigvalsh(partial_transpose(rho.mat, c, rho.dims))[0]) for c in cuts}
    )


# See-saw stopping rule: a restart ends once a sweep lowers the objective
# by less than _SWEEP_TOL, or after _MAX_SWEEPS sweeps.
_MAX_SWEEPS = 200
_SWEEP_TOL = 1e-11
# A party step holds one N x N copy of H (268 MB at ghz 12) and restarts x N x d_k
# partial sums: at the bound 32 MiB at ghz 12 (d_k = 2), and 0.9 GiB for qudit 61.
MAX_RESTARTS = 256


@dataclass(frozen=True)
class SeeSawConfig:
    restarts: int
    seed: int


@dataclass(frozen=True)
class MinProductsResult:
    value: float
    argmin: tuple[np.ndarray, ...]  # one unit vector per party
    consensus: int
    restarts: int
    values: tuple[float, ...] = field(repr=False)

    def summary(self) -> str:
        return (
            f"upper bound {self.value:.12g} with restart consensus "
            f"{self.consensus}/{self.restarts}"
        )


def min_over_products(h: np.ndarray, dims, cfg: SeeSawConfig) -> MinProductsResult:
    """See-saw minimization of Tr(H pi) over product projections pi.

    Each pass holds all parties but one fixed; the optimal local vector
    is the minimum eigenvector of the effective single-party operator.
    The objective after each sweep is the last party's lowest local
    eigenvalue; it never rises, and a sweep that raises it by more than
    1e-9 raises AssertionError.  Every start comes from one normal draw
    of shape (restarts, sum(dims), 2) on default_rng(seed): row r holds
    restart r's real and imaginary parts, party after party, so restart
    r starts from the same vectors for any restarts > r.  Restarts are
    merged by min over (value, restart index), so the result is
    deterministic under (seed, restarts).  They advance together: each
    party step copies H with party k's indices first, takes one product
    per live restart with its vector o of the other parties (one gemm over
    all would round by the live set), contracts with conj(o) and runs one
    batched eigh; a restart leaves once a sweep gains less than _SWEEP_TOL.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("objective matrix must be Hermitian")
    dims = tuple(int(d) for d in dims)

    draw = np.random.default_rng(cfg.seed).normal(size=(cfg.restarts, sum(dims), 2))
    starts = np.split(draw.view(complex)[..., 0], np.cumsum(dims)[:-1], axis=1)
    vecs = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in starts]  # (restarts, d_k)
    n = len(dims)
    finals = np.full(cfg.restarts, np.inf)  # each restart's objective after its last sweep
    live = np.arange(cfg.restarts)
    for _ in range(_MAX_SWEEPS):
        for k, d in enumerate(dims):  # hk[a i b, j] = H[a i, b j], i and j the other parties
            hk = np.moveaxis(h.reshape(dims * 2), (k, n + k), (0, n)).reshape(d * h.shape[0], -1)
            others = vecs[:k] + vecs[k + 1 :]
            o = tensor(np.ones((live.size, 1, 1)), *(v[live, :, None] for v in others))
            t = (hk @ o).reshape(-1, d, o.shape[1], d)  # one product per restart
            w, u = np.linalg.eigh((o.conj().transpose(0, 2, 1)[:, None] @ t)[:, :, 0])
            vecs[k][live] = u[:, :, 0]
        val, prev = w[:, 0], finals[live]  # <pi|H|pi> once the last party is updated
        if np.any(val > prev + 1e-9):
            i = np.argmax(val - prev)
            raise AssertionError(f"see-saw sweep increased the objective: {prev[i]} -> {val[i]}")
        finals[live] = val
        live = live[prev - val >= _SWEEP_TOL]
        if not live.size:
            break

    values = finals.tolist()
    best_idx = min(range(cfg.restarts), key=lambda i: (values[i], i))
    consensus = sum(1 for v in values if v <= values[best_idx] + 1e-9)
    return MinProductsResult(
        value=values[best_idx],
        argmin=tuple(v[best_idx] for v in vecs),
        consensus=consensus,
        restarts=cfg.restarts,
        values=tuple(values),
    )

