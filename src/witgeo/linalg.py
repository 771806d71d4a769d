# src/witgeo/linalg.py

"""Dense complex matrix algebra for multipartite density operators.

Everything operates on plain ``numpy`` complex arrays.  States carry
their tensor-factor shape so partial transposes and local contractions
know where the party boundaries are.  All values are treated as
immutable after construction; arrays stored on the dataclasses are
marked read-only.  A ``DensityState`` checks its matrix in one O(N^2)
pass and takes no spectrum; positivity is shown where a state can lack it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# Validation tolerances; the states here are well conditioned.
TOL_HERM = 1e-10
TOL_TRACE = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SystemShape:
    """Ordered local dimensions (d1, ..., dn) of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"local dimensions must all be >= 2, got {dims}")

    @property
    def size(self) -> int:
        """Total dimension N = d1 * ... * dn."""
        return int(np.prod(self.dims))

    @property
    def parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityState:
    """A density operator on a given tensor shape.

    Construction checks what one O(N^2) pass can: square, size against
    the shape, finite, Hermitian, unit trace.  It takes no spectrum:
    states built here are convex combinations of positive semidefinite
    matrices by their closed forms (proven in the tests), and input is
    checked where it enters, UPB files by ``upb.bound_entangled``.
    """

    mat: np.ndarray
    shape: SystemShape

    def __post_init__(self):
        mat = _readonly(self.mat)
        object.__setattr__(self, "mat", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if mat.shape[0] != self.shape.size:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match shape {self.shape.dims}"
            )
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        herm = np.abs(mat - mat.conj().T).max()
        if herm > TOL_HERM:
            raise ValueError(f"not Hermitian: deviation {herm:.3e}")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TOL_TRACE:
            raise ValueError(f"trace {tr} != 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    @property
    def n(self) -> int:
        return self.shape.size


@dataclass(frozen=True)
class ProductProjection:
    """A rank-1 product projection, stored as one unit vector per party."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        facs = tuple(_readonly(np.ravel(f)) for f in self.factors)
        object.__setattr__(self, "factors", facs)
        for f in facs:
            if abs(np.linalg.norm(f) - 1.0) > 1e-12:
                raise ValueError("product factors must be unit vectors")


def tensor(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product with party 1 most significant: |jk> -> j*d2 + k."""
    if not mats:
        raise ValueError("tensor() needs at least one factor")
    return reduce(np.kron, [np.asarray(m, dtype=complex) for m in mats])


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dag b]."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))  # vdot conjugates a and sums entrywise


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


def is_hermitian(a: np.ndarray, tol: float = TOL_HERM) -> bool:
    a = np.asarray(a)
    return bool(np.abs(a - a.conj().T).max() <= tol)

