"""Property tests: a damaged stored document is bad input, never a crash.

Each mutation family starts from a document that the program stores for
``bell2`` and applies exactly one of:

* replace one number with NaN, Infinity, 1e400 (which json reads as
  infinity), a string, null or an empty list, and for the witness also
  with an integer that is a valid dimension, an index past the end or
  -1;
* drop one key of one object;
* empty one list.

For the decomposition document, ``estimate bell2 --decomposition FILE``
must then exit 0 or 2, never 3.  On exit 0 stdout must be strict JSON
(no NaN or Infinity); on exit 2 stdout is empty and stderr names the
file.  For the witness document, ``io.load_witness_matrix`` must either
return or raise ValueError naming the file.

A dimension that is not a JSON integer is bad input even where the
rest of the document would still read: ``int()`` would parse ``"2"``
and truncate ``2.5``.  So is a dimension below 1: ``reshape`` reads
``-1`` as "infer this one".
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import io as wio
from witgeo.cli import main
from witgeo.measurements import qudit_decomposition, standard_witness
from witgeo.upb import tiles

from upb_document import upb_doc

TOKENS = ["NaN", "Infinity", "1e400", '"0.5"', "null", "[]"]


def _walk(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _walk(child, (*path, key))


def _stored_document(save, obj) -> dict:
    """The document that save writes for obj, as mutable JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "document.json"
        save(path, obj)
        return json.loads(path.read_text())


def _mutations(doc: dict, tokens: list[str]):
    numbers = [p for p, v in _walk(doc) if type(v) in (int, float)]
    keys = [(*p, k) for p, v in _walk(doc) if isinstance(v, dict) for k in v]
    lists = [p for p, v in _walk(doc) if isinstance(v, list) and v]
    return st.one_of(
        st.tuples(st.just("replace"), st.sampled_from(numbers), st.sampled_from(tokens)),
        st.tuples(st.just("drop"), st.sampled_from(keys), st.just(None)),
        st.tuples(st.just("empty"), st.sampled_from(lists), st.just(None)),
    )


DOC = _stored_document(wio.save_decomposition, qudit_decomposition(2))
NUMBERS = [p for p, v in _walk(DOC) if type(v) in (int, float)]
MUTATIONS = _mutations(DOC, TOKENS)
WITNESS_DOC = _stored_document(wio.save_witness, standard_witness(2))
# 4 is a valid dimension; 16 is one past the last index of the 4 x 4 matrix
WITNESS_MUTATIONS = _mutations(WITNESS_DOC, [*TOKENS, "4", "16", "-1"])


def mutated_text(kind, path, token, source=DOC) -> str:
    doc = json.loads(json.dumps(source))
    container = doc
    for key in path[:-1]:
        container = container[key]
    if kind == "replace":
        container[path[-1]] = "MARK"
        return json.dumps(doc).replace('"MARK"', token)
    if kind == "drop":
        del container[path[-1]]
    else:
        container[path[-1]] = []
    return json.dumps(doc)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def decomposition_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "bell2_decomposition.json"


@pytest.fixture(scope="module")
def witness_file(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "bell2_witness.json"


def test_stored_document_is_the_mutated_one(capsys, tmp_path):
    assert main(["decompose", "bell2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "bell2_decomposition.json").read_text()) == DOC


def test_stored_witness_is_the_mutated_one(capsys, tmp_path):
    assert main(["witness", "bell2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "bell2_witness.json").read_text()) == WITNESS_DOC


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutation=MUTATIONS)
def test_damaged_decomposition_is_bad_input_or_valid(decomposition_file, mutation):
    decomposition_file.write_text(mutated_text(*mutation))
    argv = ["estimate", "bell2", "--decomposition", str(decomposition_file)]
    code, out, err = _run([*argv, "--seed", "1", "--shots", "100"])
    assert code in (0, 2), err
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == ""
        assert str(decomposition_file) in err


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutation=WITNESS_MUTATIONS)
def test_damaged_witness_loads_or_is_bad_input(witness_file, mutation):
    witness_file.write_text(mutated_text(*mutation, source=WITNESS_DOC))
    try:
        mat, dims, c0, s0 = wio.load_witness_matrix(witness_file)
    except ValueError as exc:
        assert str(witness_file) in str(exc)
    else:
        assert mat.shape == (math.prod(dims),) * 2
        assert np.isfinite(mat).all() and math.isfinite(c0)
        assert np.abs(mat - mat.conj().T).max() <= 1e-10


def test_settings_of_different_shapes_are_bad_input(tmp_path):
    # a qudit-3 setting appended to the bell2 decomposition
    doc = json.loads(json.dumps(DOC))
    qudit = _stored_document(wio.save_decomposition, qudit_decomposition(3))
    doc["settings"].append(qudit["settings"][0])
    path = tmp_path / "decomposition.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["estimate", "bell2", "--decomposition", str(path), "--seed", "1"])
    assert (code, out) == (2, "")
    assert str(path) in err
    assert "(2, 2), (2, 2), (2, 2), (3, 3)" in err


DIMENSIONS = [p for p in NUMBERS if len(p) > 1 and p[-2] in ("dims", "shape")]


@pytest.mark.parametrize("token", ['"2"', "2.0", "2.5", "true", "0", "-1"])
def test_dimension_that_is_not_an_integer_is_bad_input(tmp_path, token):
    # 3 settings, each with two one-entry basis dims and a two-entry weight shape
    assert len(DIMENSIONS) == 3 * (2 + 2)
    path = tmp_path / "decomposition.json"
    for dim in DIMENSIONS:
        path.write_text(mutated_text("replace", dim, token))
        argv = ["estimate", "bell2", "--decomposition", str(path), "--seed", "1"]
        code, out, err = _run(argv)
        assert (code, out) == (2, ""), dim
        assert str(path) in err

    upb_path = tmp_path / "upb.json"
    doc = upb_doc(tiles())
    doc["shape"][0] = "MARK"
    upb_path.write_text(json.dumps(doc).replace('"MARK"', token.replace("2", "3")))
    code, out, err = _run(["witness", "upb", str(upb_path), "--seed", "1", "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert str(upb_path) in err


def test_local_dimension_below_two_is_bad_input(tmp_path):
    # the reader admits 1 as a dimension; UpbSet rejects it, naming the bound
    path = tmp_path / "upb.json"
    doc = upb_doc(tiles())
    doc["shape"] = [1, 3]
    path.write_text(json.dumps(doc))
    code, out, err = _run(["witness", "upb", str(path), "--seed", "1", "--out", str(tmp_path)])
    assert (code, out) == (2, "")
    assert str(path) in err
    assert ">= 2" in err
