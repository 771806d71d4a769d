"""Document round trips for matrices, witnesses, decompositions, UPB files."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import cli
from witgeo import io as wio
from witgeo.linalg import DensityState, SystemShape
from witgeo.measurements import qudit_decomposition, two_qubit_decomposition
from witgeo.states import closest_separable, max_entangled
from witgeo.upb import tiles, uniform_mixture
from witgeo.witness import nearest_witness

from json_reference import reference_text
from segment_reference import segment_witness
from upb_document import upb_doc


def read_matrix(path):
    """Matrix and dims of a plain matrix document (the program stores states so)."""
    return wio.matrix_from_doc(json.loads(path.read_text()))


def saved_doc(path, save, obj) -> dict:
    """The document that save writes for obj, read back as mutable JSON."""
    save(path, obj)
    return json.loads(path.read_text())


def bell2_witness():
    return segment_witness(max_entangled(2), closest_separable(2), 1 / 3)


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    path = tmp_path / "m.json"
    wio.save_matrix(path, mat, (2, 3))
    back, dims = read_matrix(path)
    assert dims == (2, 3)
    assert np.array_equal(back, mat)  # repr round-trips doubles exactly


def test_save_matrix_bytes_match_per_entry_encoding(tmp_path):
    # signed zeros, subnormals and extremes: the vectorized encoder writes the
    # same float reprs as one float() per entry
    values = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1 / 3, -1.5]
    mat = np.array([complex(x, y) for x, y in zip(values, values[::-1])] * 2).reshape(4, 4)
    path = tmp_path / "m.json"
    wio.save_matrix(path, mat, (2, 2))
    entries = [[float(z.real), float(z.imag)] for z in mat.ravel()]
    assert path.read_text() == json.dumps({"dims": [2, 2], "entries": entries})
    back, _ = read_matrix(path)
    assert back.tobytes() == mat.tobytes()


@pytest.mark.parametrize(
    "argv", [["bell2"], ["qudit", "5"], ["ghz", "5"], ["threeq", "0", "0.125"], ["upb", "tiles"]]
)
def test_written_files_equal_reference_encoding(tmp_path, argv):
    argv = [*argv, "--seed", "1", "--out", str(tmp_path)]
    target = cli._build_target(cli.build_parser().parse_args(["witness", *argv]))
    assert cli.main(["witness", *argv]) == 0
    assert cli.main(["decompose", *argv]) == 0
    w = target.witness
    expected = {
        "witness": wio.witness_doc(w),
        "tau0": wio.matrix_doc(w.tau0.mat, w.tau0.dims),
        "rho0": wio.matrix_doc(w.rho0.mat, w.rho0.dims),
        "decomposition": wio.decomposition_doc(target.decompose()),
    }
    for kind, doc in expected.items():
        assert (tmp_path / f"{target.name}_{kind}.json").read_text() == reference_text(doc), kind


# Signed zeros, the smallest subnormal and the extremes: a table keyed on
# values rather than bit patterns would merge 0.0 and -0.0.
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, 1e308, -1e308]


def from_pool(pool, n: int, seed: int) -> np.ndarray:
    """An n x n complex matrix whose real and imaginary parts are drawn from pool."""
    rng = np.random.default_rng(seed)
    mat = np.empty((n, n), dtype=complex)
    mat.real, mat.imag = np.asarray(pool)[rng.integers(len(pool), size=(2, n, n))]
    return mat


def dense_hermitian(n: int) -> np.ndarray:
    rng = np.random.default_rng(2)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


# matrix and how many distinct-value sorts its route takes
ROUTES = {
    "small": (lambda: from_pool(EDGE_DOUBLES, 8, 0), 0),
    "mostly_distinct": (lambda: dense_hermitian(256), 1),
    "table": (lambda: from_pool(EDGE_DOUBLES, 32, 1), 2),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_each_route_writes_reference_bytes(tmp_path, monkeypatch, route):
    build, sorts = ROUTES[route]
    mat = build()
    calls = []
    distinct = wio._distinct
    monkeypatch.setattr(wio, "_distinct", lambda values: calls.append(1) or distinct(values))
    path = tmp_path / "m.json"
    wio.save_matrix(path, mat, (len(mat),))
    assert len(calls) == sorts
    assert path.read_text() == reference_text(wio.matrix_doc(mat, (len(mat),)))
    back, _ = read_matrix(path)
    assert back.tobytes() == mat.tobytes()


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "m.json"


POOL = [*EDGE_DOUBLES, -5e-324, 2.225073858507201e-308, 1 / 3]


# sizes on both sides of the table's size cut of 256 pairs (n = 16)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 4, 15, 16, 24, 40]),
    extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_saved_matrix_matches_reference_and_round_trips(matrix_file, n, extra, seed):
    mat = from_pool(POOL + extra, n, seed)
    wio.save_matrix(matrix_file, mat, (n,))
    text = matrix_file.read_text()
    assert text == reference_text(wio.matrix_doc(mat, (n,)))
    back, dims = wio.matrix_from_doc(json.loads(text))
    assert dims == (n,)
    assert back.tobytes() == mat.tobytes()


ZEROS = [[0.0, 0.0]] * 3
MALFORMED_ENTRIES = {
    "string": ([2], [["1", 0.0]] + ZEROS),
    "null": ([2], [None] + ZEROS),
    "null_part": ([2], [[1.0, None]] + ZEROS),
    "bool": ([2], [[True, 0.0]] + ZEROS),
    "ragged": ([2], [[1.0, 0.0], [0.0]] + ZEROS[:2]),
    "three_element": ([2], [[1.0, 0.0, 0.0]] * 4),
    # 6 triples hold the 18 numbers of 9 pairs
    "three_element_same_total": ([3], [[1.0, 0.0, 0.0]] * 6),
    "wrong_count": ([2], [[1.0, 0.0]] * 3),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_entries_rejected_naming_file(tmp_path, case):
    # a witness document whose only fault is in its matrix entries
    dims, entries = MALFORMED_ENTRIES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps({"dims": dims, "entries": entries, "c0": 0.0, "s0": None}))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_witness_matrix(path)


# json reads NaN, Infinity and out-of-range literals such as 1e400 as floats
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400"]


def write_with(path, doc: dict, token: str) -> None:
    """Write doc with every "MARK" string replaced by the raw JSON token."""
    path.write_text(json.dumps(doc).replace('"MARK"', token))


@pytest.mark.parametrize("token", NON_FINITE)
def test_matrix_rejects_non_finite_entry(tmp_path, token):
    path = tmp_path / "w.json"
    doc = saved_doc(path, wio.save_witness, bell2_witness())
    doc["entries"][5][1] = "MARK"
    write_with(path, doc, token)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_witness_matrix(path)


@pytest.mark.parametrize("key", ["c0", "s0"])
@pytest.mark.parametrize("token", NON_FINITE)
def test_witness_rejects_non_finite_metadata(tmp_path, key, token):
    path = tmp_path / "w.json"
    doc = saved_doc(path, wio.save_witness, bell2_witness())
    doc[key] = "MARK"
    write_with(path, doc, token)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_witness_matrix(path)


DECOMPOSITION_NUMBERS = {
    "identity_coeff": lambda doc: doc.__setitem__("identity_coeff", "MARK"),
    "weight": lambda doc: doc["settings"][1].__setitem__("weight", "MARK"),
    "outcome_weight": lambda doc: doc["settings"][0]["outcome_weights"]["values"].__setitem__(
        2, "MARK"
    ),
    "basis_entry": lambda doc: doc["settings"][2]["party_bases"][1]["entries"][0].__setitem__(
        0, "MARK"
    ),
}


@pytest.mark.parametrize("where", sorted(DECOMPOSITION_NUMBERS))
@pytest.mark.parametrize("token", NON_FINITE)
def test_decomposition_rejects_non_finite_number(tmp_path, where, token):
    path = tmp_path / "dec.json"
    doc = saved_doc(path, wio.save_decomposition, two_qubit_decomposition())
    DECOMPOSITION_NUMBERS[where](doc)
    write_with(path, doc, token)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_decomposition(path)


@pytest.mark.parametrize("token", NON_FINITE)
def test_upb_rejects_non_finite_entry(tmp_path, token):
    doc = upb_doc(tiles())
    doc["vectors"][3][1][2][0] = "MARK"
    path = tmp_path / "upb.json"
    write_with(path, doc, token)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_upb(path)


def test_decomposition_rejects_string_weight(tmp_path):
    path = tmp_path / "dec.json"
    doc = saved_doc(path, wio.save_decomposition, two_qubit_decomposition())
    doc["settings"][0]["outcome_weights"]["values"][0] = "0.5"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_decomposition(path)


def test_matrix_doc_shape(tmp_path):
    path = tmp_path / "m.json"
    wio.save_matrix(path, np.eye(4), (2, 2))
    doc = json.loads(path.read_text())
    assert doc["dims"] == [2, 2]
    assert len(doc["entries"]) == 16
    assert doc["entries"][0] == [1.0, 0.0]


def test_matrix_doc_validates():
    with pytest.raises(ValueError):
        wio.matrix_doc(np.eye(3), (2, 2))


def test_state_round_trip(tmp_path):
    st = closest_separable(3)
    path = tmp_path / "state.json"
    wio.save_state(path, st)
    mat, dims = read_matrix(path)
    back = DensityState(mat, SystemShape(dims))
    assert back.dims == (3, 3)
    assert np.array_equal(back.mat, st.mat)


def test_state_loading_validates(tmp_path):
    path = tmp_path / "bad.json"
    wio.save_matrix(path, np.eye(4), (2, 2))  # trace 4, not a state
    mat, dims = read_matrix(path)
    with pytest.raises(ValueError, match="trace"):
        DensityState(mat, SystemShape(dims))


def test_witness_round_trip(tmp_path):
    w = bell2_witness()
    path = tmp_path / "w.json"
    wio.save_witness(path, w)
    mat, dims, c0, s0 = wio.load_witness_matrix(path)
    assert np.array_equal(mat, w.matrix)
    assert dims == (2, 2)
    assert c0 == w.c0
    assert s0 == pytest.approx(1 / 3)


def test_witness_without_segment_weight(tmp_path):
    w = nearest_witness(max_entangled(2), closest_separable(2))
    path = tmp_path / "w.json"
    wio.save_witness(path, w)
    _, _, _, s0 = wio.load_witness_matrix(path)
    assert s0 is None


@pytest.mark.parametrize("builder", [two_qubit_decomposition, lambda: qudit_decomposition(3)])
def test_decomposition_round_trip(tmp_path, builder):
    dec = builder()
    path = tmp_path / "dec.json"
    wio.save_decomposition(path, dec)
    back = wio.load_decomposition(path)
    assert back.identity_coeff == dec.identity_coeff
    assert len(back.settings) == len(dec.settings)
    assert np.abs(back.matrix() - dec.matrix()).max() == 0.0
    for (sw1, s1), (sw2, s2) in zip(dec.settings, back.settings):
        assert sw1 == sw2
        assert np.array_equal(s1.weights, s2.weights)


def test_upb_round_trip(tmp_path):
    upb = tiles()
    path = tmp_path / "upb.json"
    path.write_text(json.dumps(upb_doc(upb)))
    back = wio.load_upb(path)
    assert back.m == 5
    assert back.shape.dims == (3, 3)
    # factors are re-normalized on load, so equality holds to an ulp
    assert np.abs(uniform_mixture(back).mat - uniform_mixture(upb).mat).max() <= 1e-15
