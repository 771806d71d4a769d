"""The see-saw run one restart at a time, as the library ran it before batching.

``oracle.min_over_products`` advances every restart together, with one
batched ``eigh`` per party step.  This loop is the plain form of the same
algorithm: the same seeded starts (row r of one normal draw for restart
r), local contraction (H with party k's indices first, times the other
parties' product vector, then its conjugate), multiplication order and
stopping rule, so ``tests/test_oracle.py`` requires its results to be
bit-identical to the library's.  That test's argmin check takes Tr(H pi)
through the Kronecker product instead, a route independent of both.
"""

import numpy as np

from witgeo.linalg import is_hermitian, tensor
from witgeo.oracle import _MAX_SWEEPS, _SWEEP_TOL, MinProductsResult, SeeSawConfig


def _local_operator(h: np.ndarray, vecs: list[np.ndarray], k: int) -> np.ndarray:
    """eff[a, b] = <a, others|H|b, others>, every party but k fixed to its vector."""
    dims = tuple(len(v) for v in vecs)
    n, d = len(dims), dims[k]
    hk = np.moveaxis(h.reshape(dims * 2), (k, n + k), (0, n)).reshape(d * h.shape[0], -1)
    o = tensor(np.ones((1, 1)), *(v[:, None] for v in vecs[:k] + vecs[k + 1 :]))
    t = (hk @ o).reshape(d, o.shape[0], d)  # t[a, i, b] = sum_j H[a i, b j] o[j]
    return (o.conj().T[None] @ t)[:, 0]


def min_over_products(h: np.ndarray, dims, cfg: SeeSawConfig) -> MinProductsResult:
    """See-saw minimization of Tr(H pi) over product projections pi, restart by restart."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("objective matrix must be Hermitian")
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if not dims or int(np.prod(dims)) != h.shape[0]:
        raise ValueError(f"dims {dims} do not match matrix size {h.shape[0]}")

    draw = np.random.default_rng(cfg.seed).normal(size=(cfg.restarts, sum(dims), 2))
    finals = []
    argmins = []
    for r in range(cfg.restarts):
        # restart r's start is row r of the draw, formed with the library's expressions
        starts = np.split(draw[r : r + 1].view(complex)[..., 0], np.cumsum(dims)[:-1], axis=1)
        vecs = [(v / np.linalg.norm(v, axis=1, keepdims=True))[0] for v in starts]
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
        argmins.append(tuple(vecs))

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
