# src/witgeo/io.py

"""JSON documents for matrices, witnesses, decompositions and UPB families.

Matrix document: {"dims": [d1, ...], "entries": [[re, im], ...]} with the
entries row-major over the full N x N matrix, N = prod(dims).  Floats are
written by round-trip repr, so readers recover the exact doubles.  The
witness document is a matrix document plus a {"c0", "s0"} metadata block;
the decomposition document lists the identity coefficient and, per
setting, the party bases (as matrix documents) and the dense weight
table; the UPB document stores per-party complex factor lists and is
only read.

The document builders keep each matrix as an array of [re, im] rows,
and ``_save`` writes exactly the bytes of ``json.dumps`` of the list
form.  The program's matrices hold a few distinct values (GHZ objects
are X-shaped, qudit ones have a few closed-form entries), so the writer
formats each distinct pair once and joins the text from those.  Small
tables, and tables whose doubles are mostly distinct, take the plain
``tolist`` route: there the table would cost more than it saves.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .linalg import DensityState, SystemShape
from .measurements import MeasurementSetting, WitnessDecomposition
from .upb import UpbSet
from .witness import Witness


# Entry tables below this many pairs take the plain route: for them the two
# sorts of the distinct-pair table cost about what they save.
_TABLE_MIN = 256
_ARRAY = "\0array"  # stands in for each array while json encodes the document


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
    if set(map(len, entries)) != {2}:  # len() of a null or number raises TypeError
        raise ValueError("entries are not a list of [re, im] pairs")
    return _floats(list(chain.from_iterable(entries))).view(complex)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values.

    numpy 2.4's np.unique hashes integer input, which takes 20 times as
    long as this sort on 131072 mostly distinct values.
    """
    ordered = np.sort(values, axis=None)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def _table_json(arr: np.ndarray) -> str | None:
    """json.dumps(arr.tolist()) of an [re, im] table, formatting each distinct pair once.

    None for other arrays, small tables and tables whose doubles are mostly
    distinct: json's own loop over the list is cheaper for those.
    """
    if arr.ndim != 2 or len(arr) < _TABLE_MIN:
        return None
    # keyed on bit patterns, not values, so that 0.0 and -0.0 stay apart
    bits = arr.view(np.uint64)
    halves = _distinct(bits)
    if 2 * len(halves) > arr.size:
        return None
    codes = np.searchsorted(halves, bits)
    pairs = codes[:, 0] * len(halves) + codes[:, 1]
    distinct = _distinct(pairs)
    rows = halves[np.stack(np.divmod(distinct, len(halves)), axis=1)].view(float)
    texts = np.array([json.dumps(row) for row in rows.tolist()], dtype=object)
    return "[" + ", ".join(texts[np.searchsorted(distinct, pairs)]) + "]"


def _save(path, doc: dict) -> None:
    texts = []

    def swap(arr: np.ndarray):  # json calls this for each array, in document order
        text = _table_json(arr)
        if text is None:
            return arr.tolist()
        texts.append(text)
        return _ARRAY

    # a freshly built document holds no cycle; checking costs a dict update per pair
    pieces = json.dumps(doc, check_circular=False, default=swap).split(json.dumps(_ARRAY))
    with open(path, "w") as out:
        out.writelines(chain(*zip(pieces, texts), pieces[-1:]))


@contextmanager
def _document(path):
    """The JSON document at path; bad content raises ValueError naming the file."""
    text = Path(path).read_text()
    try:
        yield json.loads(text)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid document {path}: {type(exc).__name__}: {exc}") from None


def matrix_doc(mat: np.ndarray, dims) -> dict:
    dims = [int(d) for d in dims]
    n = int(np.prod(dims))
    mat = np.asarray(mat)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
    return {"dims": dims, "entries": _entries(mat)}


def matrix_from_doc(doc: dict) -> tuple[np.ndarray, tuple[int, ...]]:
    dims = _dims(doc["dims"])
    n = int(np.prod(dims))
    flat = _complex(doc["entries"])
    if len(flat) != n * n:
        raise ValueError(f"expected {n*n} entries, got {len(flat)}")
    return flat.reshape(n, n), dims


def save_matrix(path, mat: np.ndarray, dims) -> None:
    _save(path, matrix_doc(mat, dims))


def save_state(path, state: DensityState) -> None:
    save_matrix(path, state.mat, state.dims)


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
        s0 = doc.get("s0")
        return mat, dims, _number(doc["c0"]), None if s0 is None else _number(s0)


def decomposition_doc(dec: WitnessDecomposition) -> dict:
    settings = []
    for sw, setting in dec.settings:
        settings.append(
            {
                "weight": float(sw),
                "party_bases": [
                    matrix_doc(u, [u.shape[0]]) for u in setting.party_bases
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
            bases = tuple(matrix_from_doc(b)[0] for b in s["party_bases"])
            table = s["outcome_weights"]
            w = _floats(table["values"]).reshape(_dims(table["shape"]))
            settings.append((_number(s["weight"]), MeasurementSetting(bases, w)))
        return WitnessDecomposition(_number(doc["identity_coeff"]), tuple(settings))


def load_upb(path) -> UpbSet:
    with _document(path) as doc:
        shape = SystemShape(_dims(doc["shape"]))
        vectors = tuple(tuple(_complex(factor) for factor in vec) for vec in doc["vectors"])
        return UpbSet(shape, vectors)
