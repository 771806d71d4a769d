# src/witgeo/linalg.py

"""Dense complex matrix algebra for multipartite density operators.

Everything operates on plain ``numpy`` complex arrays.  States carry
their local dimensions ``dims = (d1, ..., dn)``, a tuple of ints, so
partial transposes and local contractions know where the party
boundaries are; ``tensor`` is the one Kronecker product, of matrices or
of broadcasting stacks of them.  A ``DensityState`` is immutable after
construction, its matrix marked read-only; it checks the matrix in one
O(N^2) pass and takes no spectrum; positivity is shown where a state can
lack it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Validation tolerances; the states here are well conditioned.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10

# Every target is held as dense N x N matrices; ghz 12 (N = 2^12) tops the size ladder.
MAX_SIZE = 2**12


class BadInput(ValueError):
    """A user value or file fails a check where it enters; the CLI exits 2 on it."""


def check_size(size: int, form: str) -> None:
    """Reject a target of dimension N = size, written as form, before any matrix or spectrum."""
    if size > MAX_SIZE:
        raise BadInput(f"target too large for dense matrices: N = {form} > {MAX_SIZE}")


@dataclass(frozen=True)
class DensityState:
    """A density operator on the tensor-product space of local dimensions ``dims``.

    Construction checks what one O(N^2) pass can: square, size against
    ``dims``, finite, Hermitian (in bounded row blocks), unit trace.  It
    takes no spectrum: states built here are convex combinations of positive
    semidefinite matrices by their closed forms (proven in the tests), and
    input is checked where it enters, UPB files by ``upb.bound_entangled``.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.setflags(write=False)
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] != math.prod(dims):
            raise ValueError(f"matrix dimension {mat.shape[0]} does not match dims {dims}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        herm = _hermitian_deviation(mat)
        if herm > TOL_HERM:
            raise ValueError(f"not Hermitian: deviation {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace {tr} != 1")

    @property
    def n(self) -> int:
        """Total dimension N = d1 * ... * dn."""
        return self.mat.shape[0]


def tensor(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product with party 1 most significant: |jk> -> j*d2 + k.

    Factors are matrices, or stacks of them whose leading axes broadcast:
    (m, p, q) and (s, t) give (m, p*s, q*t).  A vector is passed as one
    column, v[:, None].  Each product is np.kron of its pair, bit for bit.
    """
    if not mats or any(np.ndim(m) < 2 for m in mats):
        raise ValueError("tensor() takes one or more matrices; pass a vector as v[:, None]")
    out, *rest = [np.asarray(m, dtype=complex) for m in mats]
    for b in rest:
        out = out[..., :, None, :, None] * b[..., None, :, None, :]
        *lead, p, s, q, t = out.shape
        out = out.reshape(*lead, p * s, q * t)
    return out


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # numpy's pairwise sum, not np.vdot: vdot calls a BLAS dot whose result
    # depends on the BLAS thread count, and reports must not
    return complex(np.sum(a.conj() * b))


def partial_transpose(mat: np.ndarray, parties, dims) -> np.ndarray:
    """Transpose the tensor indices of the listed parties (0-based) of a matrix on dims."""
    mat = np.asarray(mat)
    n = len(dims)
    parties = sorted(set(int(p) for p in parties))
    if not parties:
        raise ValueError("parties must be a nonempty set")
    if parties[0] < 0 or parties[-1] >= n:
        raise ValueError(f"invalid party index in {parties} for {n} parties")
    t = mat.reshape(*dims, *dims)
    perm = list(range(2 * n))
    for p in parties:
        perm[p], perm[n + p] = perm[n + p], perm[p]
    return t.transpose(perm).reshape(mat.shape)


def _hermitian_deviation(a: np.ndarray) -> float:
    """max |a_ij - conj(a_ji)|, over j >= i by symmetry, in 2^14-entry blocks; np.max keeps NaN."""
    rows = max(1, 2**14 // max(1, len(a)))
    blocks = (a[i : i + rows, i:] - a[i:, i : i + rows].conj().T for i in range(0, len(a), rows))
    return np.max([np.abs(block).max() for block in blocks])


def is_hermitian(a: np.ndarray) -> bool:
    return bool(_hermitian_deviation(np.asarray(a)) <= TOL_HERM)

