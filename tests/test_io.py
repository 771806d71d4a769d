"""Document round trips for matrices, witnesses, decompositions, UPB files."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import cli
from witgeo import io as wio
from witgeo.linalg import DensityState
from witgeo.measurements import qudit_decomposition
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
    return segment_witness(max_entangled(2), closest_separable(max_entangled(2)), 1 / 3)


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
    # same float reprs as one float() per entry, and leaves out only +0.0 + 0.0j
    values = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1 / 3, -1.5]
    mat = np.array([complex(x, y) for x, y in zip(values, values[::-1])] * 2).reshape(4, 4)
    mat[1, 2] = mat[3, 0] = complex(0.0, 0.0)
    path = tmp_path / "m.json"
    wio.save_matrix(path, mat, (2, 2))
    pairs = [[float(z.real), float(z.imag)] for z in mat.ravel()]
    index = [k for k, pair in enumerate(pairs) if repr(pair) != "[0.0, 0.0]"]
    assert len(index) == 14
    entries = [pairs[k] for k in index]
    assert path.read_text() == json.dumps({"dims": [2, 2], "index": index, "entries": entries})
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
    for kind, mat in {"witness": w.matrix, "tau0": w.tau0.mat, "rho0": w.rho0.mat}.items():
        back, dims = read_matrix(tmp_path / f"{target.name}_{kind}.json")
        assert dims == w.dims, kind
        assert back.tobytes() == mat.tobytes(), kind


# Signed zeros, the smallest subnormal and the extremes: a writer that tested
# values rather than bit patterns would drop -0.0 as a zero.
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, 1e308, -1e308]


def from_pool(pool, n: int, seed: int) -> np.ndarray:
    """An n x n complex matrix whose real and imaginary parts are drawn from pool."""
    rng = np.random.default_rng(seed)
    mat = np.empty((n, n), dtype=complex)
    mat.real, mat.imag = np.asarray(pool)[rng.integers(len(pool), size=(2, n, n))]
    return mat


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "m.json"


POOL = [*EDGE_DOUBLES, -5e-324, 2.225073858507201e-308, 1 / 3]
# mostly +0.0, so that most drawn matrices are sparse, as the program's are
SPARSE_POOL = [0.0] * 12 + POOL


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 4, 15, 16, 24, 40]),
    pool=st.sampled_from([SPARSE_POOL, SPARSE_POOL, POOL]),
    extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_saved_matrix_matches_reference_and_round_trips(matrix_file, n, pool, extra, seed):
    mat = from_pool(pool + extra, n, seed)
    wio.save_matrix(matrix_file, mat, (n,))
    text = matrix_file.read_text()
    assert text == reference_text(wio.matrix_doc(mat, (n,)))
    doc = json.loads(text)
    index = np.array(doc["index"], dtype=np.int64)
    assert (np.diff(index) > 0).all()
    # exactly the entries that are not +0.0 in both parts
    assert len(index) == np.count_nonzero(mat.view(np.uint64).reshape(-1, 2).any(axis=1))
    back, dims = wio.matrix_from_doc(doc)
    assert dims == (n,)
    assert back.tobytes() == mat.tobytes()


# matrix and how many of its entries are stored: -0.0 in either part keeps an entry
ZERO_MATRICES = {
    "all_zero": (np.zeros((4, 4), dtype=complex), 0),
    "all_negative_zero": (np.full((4, 4), complex(-0.0, -0.0)), 16),
    "negative_zero_imaginary": (np.full((4, 4), complex(0.0, -0.0)), 16),
    "signed_zero_diagonal": (np.diag([-0.0, 0.0, 1.0, -0.0]).astype(complex), 3),
}


@pytest.mark.parametrize("case", sorted(ZERO_MATRICES))
def test_zero_matrices_round_trip_exactly(tmp_path, case):
    mat, stored = ZERO_MATRICES[case]
    path = tmp_path / "m.json"
    wio.save_matrix(path, mat, (2, 2))
    doc = json.loads(path.read_text())
    assert len(doc["index"]) == len(doc["entries"]) == stored
    back, _ = wio.matrix_from_doc(doc)
    assert back.tobytes() == mat.tobytes()


# (dims, index, entries) of a witness document whose only fault is the named
# one; N = 2 holds indices 0..3
ONES = [[1.0, 0.0]] * 2
MALFORMED_ENTRIES = {
    "string": ([2], [0, 3], [["1", 0.0], [1.0, 0.0]]),
    "null": ([2], [0, 3], [None, [1.0, 0.0]]),
    "null_part": ([2], [0, 3], [[1.0, None], [1.0, 0.0]]),
    "bool": ([2], [0, 3], [[True, 0.0], [1.0, 0.0]]),
    "ragged": ([2], [0, 1, 2, 3], [[1.0, 0.0], [0.0], [0.0, 0.0, 0.0], [1.0, 0.0]]),
    "three_element": ([2], [0, 3], [[1.0, 0.0, 0.0]] * 2),
    # 2 triples hold the 6 numbers of 3 pairs
    "three_element_same_total": ([2], [0, 1, 3], [[1.0, 0.0, 0.0]] * 2),
    "more_entries": ([2], [0, 3], [[1.0, 0.0]] * 3),
    "more_indices": ([2], [0, 3], [[1.0, 0.0]]),  # numpy would broadcast the one entry
    "index_string": ([2], [0, "3"], ONES),
    "index_float": ([2], [0, 3.0], ONES),
    "index_bool": ([2], [0, True], ONES),
    "index_null": ([2], [0, None], ONES),
    "index_past_end": ([2], [0, 4], ONES),
    "index_minus_one": ([2], [-1, 0], ONES),
    "index_overflow": ([2], [0, 2**64], ONES),
    "index_repeated": ([2], [0, 0, 3], [[1.0, 0.0]] * 3),
    "index_out_of_order": ([2], [3, 0], ONES),
    "not_hermitian": ([2], [1], [[1.0, 0.0]]),
    "not_hermitian_diagonal": ([2], [0, 3], [[1.0, 1e-9], [1.0, 0.0]]),
    "too_large": ([65, 65], [], []),  # N = 4225 > 4096
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ENTRIES))
def test_malformed_entries_rejected_naming_file(tmp_path, case):
    # a witness document whose only fault is in its matrix entries
    dims, index, entries = MALFORMED_ENTRIES[case]
    path = tmp_path / f"{case}.json"
    doc = {"dims": dims, "index": index, "entries": entries, "c0": 0.0, "s0": None}
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_witness_matrix(path)


def test_dense_form_rejected_naming_file(tmp_path):
    # the form with every entry and no index, as earlier versions wrote it
    path = tmp_path / "w.json"
    doc = {"dims": [2], "entries": [[1.0, 0.0]] * 4, "c0": 0.0, "s0": None}
    path.write_text(json.dumps(doc))
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
    doc["entries"][1][1] = "MARK"
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
    doc = saved_doc(path, wio.save_decomposition, qudit_decomposition(2))
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
    doc = saved_doc(path, wio.save_decomposition, qudit_decomposition(2))
    doc["settings"][0]["outcome_weights"]["values"][0] = "0.5"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        wio.load_decomposition(path)


def test_matrix_doc_shape(tmp_path):
    path = tmp_path / "m.json"
    wio.save_matrix(path, np.eye(4), (2, 2))
    doc = json.loads(path.read_text())
    assert doc["dims"] == [2, 2]
    assert doc["index"] == [0, 5, 10, 15]
    assert doc["entries"] == [[1.0, 0.0]] * 4


def test_matrix_doc_validates():
    with pytest.raises(ValueError):
        wio.matrix_doc(np.eye(3), (2, 2))


def test_state_round_trip(tmp_path):
    st = closest_separable(max_entangled(3))
    path = tmp_path / "state.json"
    wio.save_matrix(path, st.mat, st.dims)
    mat, dims = read_matrix(path)
    back = DensityState(mat, dims)
    assert back.dims == (3, 3)
    assert np.array_equal(back.mat, st.mat)


def test_state_loading_validates(tmp_path):
    path = tmp_path / "bad.json"
    wio.save_matrix(path, np.eye(4), (2, 2))  # trace 4, not a state
    mat, dims = read_matrix(path)
    with pytest.raises(ValueError, match="trace"):
        DensityState(mat, dims)


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
    w = nearest_witness(max_entangled(2), closest_separable(max_entangled(2)))
    path = tmp_path / "w.json"
    wio.save_witness(path, w)
    _, _, _, s0 = wio.load_witness_matrix(path)
    assert s0 is None


@pytest.mark.parametrize("d", [2, 3])
def test_decomposition_round_trip(tmp_path, d):
    dec = qudit_decomposition(d)
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
    assert back.dims == (3, 3)
    # factors are re-normalized on load, so equality holds to an ulp
    assert np.abs(uniform_mixture(back).mat - uniform_mixture(upb).mat).max() <= 1e-15
