"""Command-line behavior: outputs, exit codes, reproducibility."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import cli
from witgeo import io as wio
from witgeo import states
from witgeo import witness as witness_module
from witgeo.cli import main
from witgeo.measurements import ghz_settings, ghz_witness
from witgeo.upb import tiles as upb_tiles
from witgeo.witness import Witness

from upb_document import pairs, upb_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None


class TestWitnessCommand:
    def test_bell2(self, capsys, tmp_path):
        code, doc = run_json(capsys, "witness", "bell2", "--out", str(tmp_path))
        assert code == 0
        assert doc["outputs"]["c0"]["value"] == pytest.approx(1 / 6, abs=1e-12)
        mat, dims, c0, _ = wio.load_witness_matrix(tmp_path / "bell2_witness.json")
        assert dims == (2, 2)
        assert mat[0, 3] == pytest.approx(-1 / 3)
        assert (tmp_path / "bell2_tau0.json").exists()
        assert (tmp_path / "bell2_rho0.json").exists()

    def test_qudit(self, capsys, tmp_path):
        code, doc = run_json(capsys, "witness", "qudit", "3", "--out", str(tmp_path))
        assert code == 0
        assert doc["outputs"]["c0"]["value"] == pytest.approx(1 / 6, abs=1e-12)

    def test_threeq(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "witness", "threeq", "0", "0.125", "--out", str(tmp_path)
        )
        assert code == 0
        assert doc["outputs"]["c0"]["value"] == pytest.approx(1 / 32, abs=1e-12)

    def test_upb_requires_seed(self, capsys, tmp_path):
        code, _ = run(capsys, "witness", "upb", "tiles", "--out", str(tmp_path))
        assert code == 2

    def test_upb(self, capsys, tmp_path):
        code, doc = run_json(
            capsys,
            "witness", "upb", "tiles",
            "--seed", "1", "--restarts", "24", "--out", str(tmp_path),
        )
        assert code == 0
        eps = doc["outputs"]["epsilon"]["value"]
        assert 0 < eps < 5 / 9
        assert 0 < doc["outputs"]["s0"]["value"] < 1

    def test_malformed_upb_file_is_bad_input(self, capsys, tmp_path):
        doc = upb_doc(upb_tiles())
        doc["vectors"][0][0][0] = ["1", 0.0]
        path = tmp_path / "upb.json"
        path.write_text(json.dumps(doc))
        code = main(["witness", "upb", str(path), "--seed", "1", "--out", str(tmp_path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_far_face_form_mismatch_is_internal(self, capsys, monkeypatch, tmp_path):
        # a c0 off by 1e-6 puts the closed form 1e-6 away from tau0 + c0 I - rho0
        monkeypatch.setattr(witness_module, "hs_inner", lambda a, b: complex(np.vdot(a, b)) + 1e-6)
        code = main(["witness", "upb", "tiles", "--seed", "1", "--out", str(tmp_path)])
        assert code == cli.EXIT_INTERNAL
        assert "deviates from tau0 + c0 I - rho0" in capsys.readouterr().err

    def test_ghz(self, capsys, tmp_path):
        code, doc = run_json(capsys, "witness", "ghz", "3", "--out", str(tmp_path))
        assert code == 0
        for coeff in ("a", "b", "c"):
            assert doc["outputs"][coeff]["value"] > 0
        assert doc["outputs"]["detection_value"]["value"] < -1e-6

    def test_invalid_dimension(self, capsys, tmp_path):
        code, _ = run(capsys, "witness", "qudit", "4", "--out", str(tmp_path))
        assert code == 2

    def test_separable_target(self, capsys, tmp_path):
        code, _ = run(capsys, "witness", "threeq", "0", "0", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize(
        "target,form", [(("qudit", "67"), "67^2"), (("ghz", "13"), "2^13"), (("upb",), "67x67")]
    )
    def test_target_too_large_is_bad_input(self, capsys, tmp_path, target, form):
        # N above 2^12 is rejected before any matrix is built
        if target == ("upb",):
            path = tmp_path / "upb67.json"
            e0 = np.eye(67)[0]
            path.write_text(json.dumps({"shape": [67, 67], "vectors": [[pairs(e0), pairs(e0)]]}))
            target = ("upb", str(path), "--seed", "1")
        code = main(["witness", *target, "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"N = {form} > 4096" in err
        assert list(tmp_path.glob("*witness*")) == []


class TestDecomposeCommand:
    @pytest.mark.parametrize(
        "argv,count",
        [
            (("decompose", "bell2"), 3),
            (("decompose", "qudit", "5"), 6),
            (("decompose", "threeq", "0", "0.125"), 4),
        ],
    )
    def test_setting_counts(self, capsys, tmp_path, argv, count):
        code, doc = run_json(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        assert doc["outputs"]["settings"] == count
        assert doc["outputs"]["reconstruction_residual"]["value"] <= 1e-10

    def test_ghz_setting_count(self, capsys, tmp_path):
        code, doc = run_json(capsys, "decompose", "ghz", "4", "--out", str(tmp_path))
        assert code == 0
        assert doc["outputs"]["settings"] == 5

    def test_upb_settings(self, capsys, tmp_path):
        code, doc = run_json(
            capsys,
            "decompose", "upb", "tiles",
            "--seed", "1", "--restarts", "24", "--out", str(tmp_path),
        )
        assert code == 0
        assert doc["outputs"]["settings"] == 5
        assert doc["outputs"]["reconstruction_residual"]["value"] <= 1e-10

    def test_written_file_loads(self, capsys, tmp_path):
        run_json(capsys, "decompose", "bell2", "--out", str(tmp_path))
        dec = wio.load_decomposition(tmp_path / "bell2_decomposition.json")
        assert len(dec.settings) == 3


class TestVerifyCommand:
    def test_bell2_passes(self, capsys):
        code, doc = run_json(
            capsys,
            "verify", "bell2", "--seed", "2", "--restarts", "16",
        )
        assert code == 0
        assert doc["failed"] == []
        assert doc["checks"]["positive_on_products"]["passed"]

    def test_requires_seed(self, capsys):
        code, _ = run(capsys, "verify", "bell2")
        assert code == 2

    def test_threeq_reports_positivity_defect(self, capsys):
        # the constructed three-qubit plane cuts into the product states,
        # so the honest verification outcome is a failure exit
        code, doc = run_json(
            capsys,
            "verify", "threeq", "0", "0.125",
            "--seed", "2", "--restarts", "16",
        )
        assert code == 1
        assert doc["failed"] == ["positive_on_products"]
        assert doc["checks"]["ppt_all_cuts"]["passed"]
        assert doc["checks"]["induced_inner_product_identity"]["passed"]

    def test_upb_passes(self, capsys):
        code, doc = run_json(
            capsys,
            "verify", "upb", "tiles",
            "--seed", "2", "--restarts", "24",
        )
        assert code == 0
        assert doc["failed"] == []

    def test_upb_positivity_not_checked_on_the_eps_stream(self, capsys):
        # one restart on seed 2 sets eps = 0.06699, far above the true 0.028416;
        # a see-saw on the stream that set eps would find its own minimum again
        # and pass a witness that is negative on a product state
        code, doc = run_json(
            capsys,
            "verify", "upb", "tiles",
            "--seed", "2", "--restarts", "1",
        )
        assert code == 1
        assert doc["failed"] == ["positive_on_products"]
        assert doc["checks"]["positive_on_products"]["value"] < -1e-4

    def test_negative_seed_is_bad_input(self, capsys):
        code, _ = run(capsys, "verify", "bell2", "--seed", "-1")
        assert code == 2

    def test_identity_fault_fails(self, capsys, monkeypatch):
        # an entrywise 5e-11 offset passes the 1e-10 reconstruction residual,
        # but shifts Tr(W rho) by up to 64 * 5e-11
        g = ghz_witness(6)
        w = g.witness
        faulty = Witness(w.matrix + 5e-11 * np.ones((64, 64)), w.c0, w.rho0, w.tau0)
        target = cli.Target("ghz6", faulty, lambda: ghz_settings(g), {})
        monkeypatch.setattr(cli, "_build_target", lambda args: target)
        code, doc = run_json(capsys, "verify", "ghz", "6", "--seed", "1", "--restarts", "8")
        assert code == 1
        assert doc["failed"] == ["induced_inner_product_identity"]
        value = doc["checks"]["induced_inner_product_identity"]["value"]
        assert value == pytest.approx(3.2e-9, rel=1e-9)


class TestEstimateCommand:
    def test_bell2_z_score(self, capsys):
        code, doc = run_json(
            capsys,
            "estimate", "bell2", "--shots", "100000", "--seed", "3",
        )
        assert code == 0
        est = doc["outputs"]["estimate"]["value"]
        assert est == pytest.approx(-1 / 3, abs=1e-12)
        assert abs(doc["outputs"]["z_score"]["value"]) <= 5

    def test_boundary_state(self, capsys):
        code, doc = run_json(
            capsys,
            "estimate", "qudit", "3",
            "--state", "tau0", "--shots", "20000", "--seed", "3",
        )
        assert code == 0
        assert doc["outputs"]["exact"]["value"] == pytest.approx(0.0, abs=1e-12)
        assert abs(doc["outputs"]["z_score"]["value"]) <= 5

    def test_reproducible(self, capsys):
        args = (
            "estimate", "bell2", "--state", "d0",
            "--shots", "5000", "--seed", "9",
        )
        code1, doc1 = run_json(capsys, *args)
        code2, doc2 = run_json(capsys, *args)
        doc1.pop("wall_time_s")
        doc2.pop("wall_time_s")
        assert doc1 == doc2

    def test_requires_seed(self, capsys):
        code, _ = run(capsys, "estimate", "bell2")
        assert code == 2

    @pytest.mark.parametrize(
        "shots,expected", [(2**63 - 1, 0), (2**63, 2), (10**30, 2)], ids=["max", "2^63", "1e30"]
    )
    def test_shot_count_range(self, capsys, shots, expected):
        # numpy draws int64 counts; a larger count is bad input, not an internal error
        argv = ["estimate", "bell2", "--shots", str(shots), "--seed", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == expected
        if expected == 2:
            assert captured.out == ""
            assert captured.err.startswith("error: shots per setting must lie in [1, ")

    @pytest.mark.parametrize("d", ("3", "7"))
    def test_zero_variance_target(self, capsys, d):
        # every draw on rho0 carries the weight 1/d, so the estimate has no spread
        code, doc = run_json(
            capsys,
            "estimate", "qudit", d,
            "--state", "rho0", "--shots", "1000", "--seed", "4",
        )
        assert code == 0
        assert doc["outputs"]["estimate"]["stderr"] == 0.0
        assert doc["outputs"]["z_score"]["value"] == 0.0

    def test_consumes_stored_decomposition(self, capsys, tmp_path):
        run_json(capsys, "decompose", "bell2", "--out", str(tmp_path))
        code, doc = run_json(
            capsys,
            "estimate", "bell2",
            "--decomposition", str(tmp_path / "bell2_decomposition.json"),
            "--shots", "5000", "--seed", "9",
        )
        assert code == 0
        assert doc["outputs"]["estimate"]["value"] == pytest.approx(-1 / 3, abs=1e-12)

    def test_rejects_mismatched_decomposition(self, capsys, tmp_path):
        run_json(capsys, "decompose", "qudit", "3", "--out", str(tmp_path))
        code, _ = run(
            capsys,
            "estimate", "bell2",
            "--decomposition", str(tmp_path / "qudit3_decomposition.json"),
            "--shots", "100", "--seed", "9",
        )
        assert code == 2

    @staticmethod
    def assert_bad_input(capsys, tmp_path, mutate):
        run_json(capsys, "decompose", "bell2", "--out", str(tmp_path))
        path = tmp_path / "bell2_decomposition.json"
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        code = main(["estimate", "bell2", "--decomposition", str(path), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err

    @pytest.mark.parametrize(
        "entries",
        [
            [["1", 0.0]] * 4,
            [None] * 4,
            [[1.0, 0.0], [0.0], [0.0, 0.0], [1.0, 0.0]],
            [[1.0, 0.0, 0.0]] * 4,
            [[1.0, 0.0]] * 3,
        ],
        ids=["string", "null", "ragged", "three_element", "wrong_count"],
    )
    def test_malformed_decomposition_is_bad_input(self, capsys, tmp_path, entries):
        def mutate(doc):
            doc["settings"][0]["party_bases"][0]["entries"] = entries

        self.assert_bad_input(capsys, tmp_path, mutate)

    @pytest.mark.parametrize("settings", [[], {}], ids=["list", "object"])
    def test_decomposition_without_settings_is_bad_input(self, capsys, tmp_path, settings):
        self.assert_bad_input(capsys, tmp_path, lambda doc: doc.update(settings=settings))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(identity_coeff=float("nan")),
            lambda doc: doc["settings"][1].update(weight=float("inf")),
            lambda doc: doc["settings"][2]["outcome_weights"].update(values=[float("-inf")] * 4),
        ],
        ids=["nan_identity_coeff", "infinite_weight", "infinite_outcome_weight"],
    )
    def test_non_finite_decomposition_is_bad_input(self, capsys, tmp_path, mutate):
        self.assert_bad_input(capsys, tmp_path, mutate)


BUILDERS = (
    "two_qubit_decomposition",
    "qudit_decomposition",
    "three_qubit_decomposition",
    "ghz_settings",
    "far_face_decomposition",
)


@pytest.mark.parametrize(
    "argv,builds",
    [
        (["witness", "qudit", "5"], 0),
        (["witness", "ghz", "4"], 0),
        (["witness", "upb", "tiles", "--seed", "1", "--restarts", "4"], 0),
        (["decompose", "qudit", "5"], 1),
        (["decompose", "ghz", "4"], 1),
        (["decompose", "threeq", "0", "0.125"], 1),
        (["verify", "bell2", "--seed", "1", "--restarts", "4"], 1),
        (["estimate", "ghz", "3", "--seed", "1", "--shots", "10"], 1),
    ],
)
def test_settings_built_only_when_used(capsys, monkeypatch, tmp_path, argv, builds):
    calls = []
    for name in BUILDERS:
        builder = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, _b=builder, _n=name: calls.append(_n) or _b(*a)
        )
    monkeypatch.chdir(tmp_path)  # witness and decompose write to the working directory
    assert main(argv) in (0, 1)
    assert len(calls) == builds, calls


@pytest.mark.parametrize(
    "argv,spectra",
    [
        (["witness", "ghz", "6"], 0),
        (["decompose", "ghz", "6"], 0),
        (["estimate", "ghz", "6", "--state", "d0", "--seed", "1", "--shots", "10"], 0),
        (["witness", "qudit", "5"], 0),
        # the complement of the UPB file's projectors, in upb.bound_entangled
        (["witness", "upb", "tiles", "--seed", "1", "--restarts", "4"], 1),
    ],
)
def test_dense_spectra_per_command(capsys, monkeypatch, tmp_path, argv, spectra):
    # states built from closed forms are positive semidefinite by form
    # (tests/test_positivity.py); only a state built from input takes a spectrum
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    monkeypatch.chdir(tmp_path)  # witness and decompose write to the working directory
    assert main(argv) == 0
    assert len(calls) == spectra, calls


@pytest.mark.parametrize("command", ["witness", "decompose"])
def test_three_qubit_family_built_once(capsys, monkeypatch, tmp_path, command):
    # one build, so one comparison with the parity expansion; the product
    # expansion of the parity states is an identity test_states.py checks
    families, eighs = [], []
    family, eigh = states.three_qubit_family, np.linalg.eigh
    monkeypatch.setattr(states, "three_qubit_family", lambda *a: families.append(a) or family(*a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
    monkeypatch.chdir(tmp_path)
    assert main([command, "threeq", "0", "0.125"]) == 0
    assert len(families) == 1, families
    assert eighs == []


def test_stored_decomposition_skips_build(capsys, monkeypatch, tmp_path):
    run_json(capsys, "decompose", "qudit", "5", "--out", str(tmp_path))
    argv = ["estimate", "qudit", "5", "--seed", "2", "--shots", "100"]
    _, built = run_json(capsys, *argv)
    monkeypatch.setattr(cli, "qudit_decomposition", None)  # any call would fail
    code, stored = run_json(
        capsys, *argv, "--decomposition", str(tmp_path / "qudit5_decomposition.json")
    )
    assert code == 0
    del built["wall_time_s"], stored["wall_time_s"]
    assert stored == built


# The edges of the three-qubit region |m| + t <= 1/8, t > 0, its range tolerance,
# and the values that are no point at all
THREEQ_EDGES = [0.0, 1e-300, 1e-12, 0.0625, 0.125, 0.125 + 1e-12, 0.125 + 1e-9, 0.25, np.inf]
THREEQ_FLOATS = st.one_of(
    st.sampled_from([np.nan, *THREEQ_EDGES, *(-x for x in THREEQ_EDGES)]),
    st.floats(min_value=-0.25, max_value=0.25),
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.floats(),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(m=THREEQ_FLOATS, t=THREEQ_FLOATS)
def test_threeq_parameters_give_states_or_bad_input(m, t):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["witness", "threeq", repr(m), repr(t), "--out", tmp])
            except SystemExit as exc:  # argparse reads text such as -inf or -1e-05 as an option
                code = exc.code
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            name = json.loads(out.getvalue())["target"]
            for state in ("tau0", "rho0"):
                doc = json.loads(Path(tmp, f"{name}_{state}.json").read_text())
                mat, _ = wio.matrix_from_doc(doc)
                assert np.linalg.eigvalsh(mat).min() >= -1e-9, (state, m, t)


class TestThresholdCommand:
    def test_two_qubit_value(self, capsys):
        code, doc = run_json(capsys, "threshold", "twoqubit", "0.7071", "0.7071", "0")
        assert code == 0
        assert doc["outputs"]["threshold"]["value"] == pytest.approx(1 / 3, abs=1e-9)

    def test_qudit_agrees_with_two_qubit_rule(self, capsys):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = rng.uniform(0.2, 0.95)
            b = float(np.sqrt(1 - a * a))
            p = rng.uniform(0.05, 0.95)
            delta = rng.uniform(0, 0.3)
            _, thr = run_json(capsys, "threshold", "twoqubit", str(a), str(b), str(delta))
            _, pred = run_json(
                capsys, "threshold", "qudit", "2", f"{a},{b}", str(p), str(delta)
            )
            assert pred["outputs"]["detected"] == (p > thr["outputs"]["threshold"]["value"])

    def test_frustum_endpoint(self, capsys):
        code, doc = run_json(capsys, "threshold", "frustum", "1", "0", "9", "5", "5", "0.028")
        assert code == 0
        assert doc["outputs"]["detected"] is True

    def test_bad_input(self, capsys):
        code, _ = run(capsys, "threshold", "qudit", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "params",
        [
            ["twoqubit", "nan", "1", "0"],
            ["twoqubit", "1", "1", "inf"],
            ["twoqubit", "1", "1", "1e308"],  # finite, but 1 + 4*delta overflows
            ["qudit", "3", "1,1,1", "nan", "0"],
            ["qudit", "3", "1,nan,1", "0.5", "0"],
            ["frustum", "1", "0", "inf", "5", "5", "0.028"],
            ["frustum", "1", "0", "9.7", "5", "5", "0.028"],
            ["qudit", "3", {"a": 1}, "0.5", "0"],
            ["qudit", "3", [[1, 1, 1]], "0.5", "0"],
            ["qudit", "3", [True, 1, 1], "0.5", "0"],
            ["qudit", "3", ["1", 1, 1], "0.5", "0"],
            ["qudit", "3", [float("nan"), 1, 1], "0.5", "0"],
            ["qudit", "3", [10**400, 1, 1], "0.5", "0"],
            ["qudit", "3", "1,1,1", "0.2", "-5"],
            ["qudit", "3", "1,1,1", "1.5", "0"],
            ["qudit", "3", "1,1,1", "1", "1e308"],  # finite, but the noise term overflows
            ["frustum", "5", "-3", "9", "5", "5", "0.028"],
            ["frustum", "-1", "0", "9", "5", "5", "0.028"],
            ["frustum", "1.5", "0", "9", "5", "5", "0.028"],
        ],
        ids=[
            "twoqubit_nan_a", "twoqubit_inf_delta", "twoqubit_huge_delta", "qudit_nan_p",
            "qudit_nan_amplitude", "frustum_inf_n", "frustum_fractional_n", "file_object",
            "file_nested", "file_bool", "file_string", "file_nan", "file_huge_int",
            "qudit_negative_delta", "qudit_p_above_one", "qudit_huge_delta",
            "frustum_p_above_one_negative_delta", "frustum_negative_p", "frustum_p_above_one",
        ],
    )
    def test_rejects_bad_numbers(self, capsys, tmp_path, params):
        # a non-JSON list in the amplitudes file stands for that file
        path = tmp_path / "amps.json"
        argv = []
        for param in params:
            if not isinstance(param, str):
                path.write_text(json.dumps(param))
                param = str(path)
            argv.append(param)
        code = main(["threshold", *argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "params",
        [
            ["qudit", "3", "1,1,1", "0", "0"],
            ["frustum", "0", "0", "9", "5", "5", "0.028"],
            ["frustum", "0.5", "0", "1e308", "1e300", "5", "0.028"],  # m past int64
        ],
        ids=["qudit_zero_p", "frustum_zero_p", "frustum_huge_m"],
    )
    def test_valid_edges_detect_nothing(self, capsys, params):
        code, doc = run_json(capsys, "threshold", *params)
        assert code == 0
        assert doc["outputs"]["detected"] is False


class TestOutputModes:
    def test_quiet_prints_headline(self, capsys, tmp_path):
        code, out = run(capsys, "witness", "bell2", "--quiet", "--out", str(tmp_path))
        assert code == 0
        assert float(out.strip()) == pytest.approx(1 / 6, abs=1e-12)

    def test_csv_format(self, capsys, tmp_path):
        code, out = run(
            capsys, "witness", "bell2", "--format", "csv", "--out", str(tmp_path)
        )
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines())
        assert float(rows["outputs.c0.value"]) == pytest.approx(1 / 6, abs=1e-12)


def test_unexpected_error_exits_internal(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "witness", broken)
    code = main(["witness", "bell2"])
    assert code == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.strip() == "internal error: RuntimeError: boom"
