# src/witgeo/io.py

"""JSON documents for matrices, witnesses, decompositions and UPB families.

Matrix document: {"dims": [d1, ...], "index": [k, ...], "entries": [[re, im], ...]}
stores the nonzero entries of the N x N matrix, N = prod(dims), each at its
row-major index k = i*N + j, in strictly increasing order.  An entry counts
as zero only when both its doubles are +0.0, so -0.0 is kept; floats are
written by round-trip repr, so readers recover the exact matrix.  The
witness document is a matrix document plus a {"c0", "s0"} metadata block;
the decomposition document lists the identity coefficient and, per
setting, the party bases (each a dense d x d unitary, stored as
{"dims": [d], "entries": [[re, im], ...]} over all d*d entries and
checked unitary when read) and the dense weight table; the UPB document
stores per-party complex factor lists and, like a flat amplitudes list,
is only read.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import MAX_SIZE, BadInput, is_hermitian
from .measurements import MeasurementSetting, WitnessDecomposition
from .upb import UpbSet
from .witness import Witness

# A stored party basis may deviate from unitarity by this much, entrywise in U^dagger U.
_BASIS_TOL = 1e-10


def _entries(mat: np.ndarray) -> np.ndarray:
    # a C-contiguous complex array viewed as float is its [re, im] pairs in order
    return np.asarray(mat, dtype=complex).ravel().view(float).reshape(-1, 2)


def _typed(values: list, types: set, what: str) -> list:
    """The list, if its entries have only the given exact types."""
    others = set(map(type, values)) - types  # int() and float() parse strings; bool is no int
    if others:
        raise ValueError(f"expected {what}, found {sorted(t.__name__ for t in others)}")
    return values


def _floats(values: list) -> np.ndarray:
    """Float array from a flat list that holds only finite JSON numbers."""
    out = np.array(_typed(values, {int, float}, "JSON numbers"), dtype=float)
    if not np.isfinite(out).all():  # json reads NaN, Infinity and 1e400 as floats
        raise ValueError("expected finite numbers, found NaN or infinity")
    return out


def _dims(values: list) -> tuple[int, ...]:
    dims = tuple(_typed(values, {int}, "JSON integers as dimensions"))
    if min(dims, default=1) < 1:  # reshape would read -1 as "infer this one"
        raise ValueError(f"expected dimensions of at least 1, found {list(dims)}")
    return dims


def _number(value) -> float:
    return float(_floats([value])[0])


def _complex(entries) -> np.ndarray:
    """1-D complex array from a list of [re, im] pairs of JSON numbers."""
    if set(map(len, entries)) - {2}:  # len() of a null or number raises TypeError
        raise ValueError("entries are not a list of [re, im] pairs")
    return _floats(list(chain.from_iterable(entries))).view(complex)


def _save(path, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, default=np.ndarray.tolist))


@contextmanager
def _document(path):
    """The JSON document at path; bad text raises BadInput naming the file, as OSError does,
    and a BadInput raised on a well-formed document (a target too large) keeps its words."""
    try:
        yield json.loads(Path(path).read_text())
    except BadInput as exc:
        raise BadInput(f"{path}: {exc}") from None
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise BadInput(f"invalid document {path}: {type(exc).__name__}: {exc}") from None


def matrix_doc(mat: np.ndarray, dims) -> dict:
    dims = [int(d) for d in dims]
    n = math.prod(dims)
    mat = np.asarray(mat)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    pairs = _entries(mat)
    # by bit pattern, so that an entry holding -0.0 is stored
    index = np.flatnonzero(np.bitwise_or(*pairs.view(np.uint64).T))
    return {"dims": dims, "index": index, "entries": pairs[index]}


def matrix_from_doc(doc: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    dims = _dims(doc["dims"])
    n = math.prod(dims)
    if n > MAX_SIZE:
        raise ValueError(f"matrix dimension {n} exceeds {MAX_SIZE}")
    index = np.array(_typed(doc["index"], {int}, "JSON integers as indices"), dtype=np.int64)
    values = _complex(doc["entries"])
    if len(index) != len(values):
        raise ValueError(f"{len(index)} indices for {len(values)} entries")
    # one check for repeats and order; numpy would read -1 from the end
    if len(index) and (index[0] < 0 or index[-1] >= n * n or (np.diff(index) <= 0).any()):
        raise ValueError(f"indices must increase strictly within [0, {n * n})")
    flat = np.zeros(n * n, dtype=complex)
    flat[index] = values
    return flat.reshape(n, n), dims


def _basis_from_doc(doc: dict) -> np.ndarray:
    """A party basis from its dense document, all d*d entries row-major, checked unitary."""
    n = math.prod(_dims(doc["dims"]))
    flat = _complex(doc["entries"])
    if len(flat) != n * n:
        raise ValueError(f"expected {n*n} entries, got {len(flat)}")
    u = flat.reshape(n, n)
    dev = np.abs(u.conj().T @ u - np.eye(n)).max()
    if dev > _BASIS_TOL:
        raise ValueError(f"party basis not orthonormal: deviation {dev:.3e}")
    return u


def save_matrix(path, mat: np.ndarray, dims) -> None:
    _save(path, matrix_doc(mat, dims))


def witness_doc(w: Witness) -> dict:
    doc = matrix_doc(w.matrix, w.dims)
    doc["c0"] = float(w.c0)
    doc["s0"] = None if w.s0 is None else float(w.s0)
    return doc


def save_witness(path, w: Witness) -> None:
    _save(path, witness_doc(w))


def load_witness_matrix(path) -> tuple[np.ndarray, tuple[int, ...], float, float | None]:
    """Matrix, dims and metadata of a stored witness (states are not stored)."""
    with _document(path) as doc:
        mat, dims = matrix_from_doc(doc)
        if not is_hermitian(mat):
            raise ValueError("witness matrix is not Hermitian")
        s0 = doc.get("s0")
        return mat, dims, _number(doc["c0"]), None if s0 is None else _number(s0)


def decomposition_doc(dec: WitnessDecomposition) -> dict:
    settings = []
    for sw, setting in dec.settings:
        settings.append(
            {
                "weight": float(sw),
                "party_bases": [
                    {"dims": [u.shape[0]], "entries": _entries(u)} for u in setting.party_bases
                ],
                "outcome_weights": {
                    "shape": list(setting.weights.shape),
                    "values": setting.weights.ravel(),
                },
            }
        )
    return {"identity_coeff": float(dec.identity_coeff), "settings": settings}


def save_decomposition(path, dec: WitnessDecomposition) -> None:
    _save(path, decomposition_doc(dec))


def load_decomposition(path) -> WitnessDecomposition:
    settings = []
    with _document(path) as doc:
        for s in doc["settings"]:
            bases = tuple(_basis_from_doc(b) for b in s["party_bases"])
            table = s["outcome_weights"]
            w = _floats(table["values"]).reshape(_dims(table["shape"]))
            settings.append((_number(s["weight"]), MeasurementSetting(bases, w)))
        return WitnessDecomposition(_number(doc["identity_coeff"]), tuple(settings))


def load_amplitudes(path) -> np.ndarray:
    with _document(path) as doc:
        return _floats(doc)


def load_upb(path) -> UpbSet:
    with _document(path) as doc:
        vectors = tuple(tuple(_complex(factor) for factor in vec) for vec in doc["vectors"])
        return UpbSet(_dims(doc["shape"]), vectors)
