"""Property test: a damaged decomposition document is bad input, never a crash.

The mutation family starts from the decomposition document that
``decompose bell2`` stores and applies exactly one of:

* replace one number with NaN, Infinity, 1e400 (which json reads as
  infinity), a string, null or an empty list;
* drop one key of one object;
* empty one list.

``estimate bell2 --decomposition FILE`` must then exit 0 or 2, never 3.
On exit 0 stdout must be strict JSON (no NaN or Infinity); on exit 2
stdout is empty and stderr names the file.

A dimension that is not a JSON integer is bad input even where the
rest of the document would still read: ``int()`` would parse ``"2"``
and truncate ``2.5``.  So is a dimension below 1: ``reshape`` reads
``-1`` as "infer this one".
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import io as wio
from witgeo.cli import main
from witgeo.measurements import two_qubit_decomposition
from witgeo.upb import tiles

from upb_document import upb_doc

TOKENS = ["NaN", "Infinity", "1e400", '"0.5"', "null", "[]"]


def _walk(node, path=()):
    """(path, node) for every node of a JSON document, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _walk(child, (*path, key))


def _stored_document() -> dict:
    """The decomposition document of bell2 as the program stores it, as mutable JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "decomposition.json"
        wio.save_decomposition(path, two_qubit_decomposition())
        return json.loads(path.read_text())


DOC = _stored_document()
NUMBERS = [p for p, v in _walk(DOC) if type(v) in (int, float)]
KEYS = [(*p, k) for p, v in _walk(DOC) if isinstance(v, dict) for k in v]
LISTS = [p for p, v in _walk(DOC) if isinstance(v, list) and v]

MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from(NUMBERS), st.sampled_from(TOKENS)),
    st.tuples(st.just("drop"), st.sampled_from(KEYS), st.just(None)),
    st.tuples(st.just("empty"), st.sampled_from(LISTS), st.just(None)),
)


def mutated_text(kind, path, token) -> str:
    doc = json.loads(json.dumps(DOC))
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


def test_stored_document_is_the_mutated_one(capsys, tmp_path):
    assert main(["decompose", "bell2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "bell2_decomposition.json").read_text()) == DOC


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
