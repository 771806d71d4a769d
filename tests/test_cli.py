"""Command-line behavior: outputs, exit codes, reproducibility."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo import cli
from witgeo import io as wio
from witgeo import measurements
from witgeo import states
from witgeo import witness as witness_module
from witgeo.cli import main
from witgeo.linalg import DensityState
from witgeo.measurements import ghz_settings, ghz_witness
from witgeo.oracle import MAX_RESTARTS, SeeSawConfig
from witgeo.upb import UpbSet, estimate_epsilon, uniform_mixture
from witgeo.upb import tiles as upb_tiles
from witgeo.witness import Witness

from upb_document import pairs, upb_doc
from upb_ladder import pyramid, rotated_shifts, shifts


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

    def test_file_size_follows_nonzeros(self, capsys, tmp_path):
        # ghz 9 has N^2 = 262144 entries, about 9 MB of JSON each when written in full
        code, _ = run(capsys, "witness", "ghz", "9", "--out", str(tmp_path))
        assert code == 0
        sizes = {path.name: path.stat().st_size for path in tmp_path.glob("ghz9_*.json")}
        assert len(sizes) == 3
        assert max(sizes.values()) < 64 * 1024, sizes

    def test_invalid_dimension(self, capsys, tmp_path):
        code, _ = run(capsys, "witness", "qudit", "4", "--out", str(tmp_path))
        assert code == 2

    def test_separable_target(self, capsys, tmp_path):
        code, _ = run(capsys, "witness", "threeq", "0", "0", "--out", str(tmp_path))
        assert code == 2

    def test_threeq_region_names_m_and_t(self, capsys, tmp_path):
        # |m| + t/2 <= 1/8 holds here, |m| + |t| <= 1/8 does not
        code = main(["witness", "threeq", "0.1", "0.05", "--out", str(tmp_path)])
        err = "error: (m=0.1, t=0.05) leaves the family's region |m| + |t| <= 1/8\n"
        assert (code, *capsys.readouterr()) == (2, "", err)

    def test_threeq_sign_reported_before_region(self, capsys, tmp_path):
        # t = -0.1 also leaves the region, but the sign is what the user must change
        code = main(["witness", "threeq", "0.1", "-0.1", "--out", str(tmp_path)])
        err = "error: t must be positive; use the mirrored parameters for t < 0\n"
        assert (code, *capsys.readouterr()) == (2, "", err)

    @pytest.mark.parametrize("m,t", [("0", "0.125"), ("0.0625", "0.0625")])
    def test_threeq_region_boundary(self, capsys, tmp_path, m, t):
        code, _ = run(capsys, "witness", "threeq", m, t, "--out", str(tmp_path))
        assert code == 0

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


    def test_oversized_upb_file_builds_no_gram_matrix(self, capsys, monkeypatch, tmp_path):
        # the Gram matrix of m vectors takes m^2 memory: the size bound comes first
        def gram(self):
            raise AssertionError("Gram matrix built for an oversized UPB")

        monkeypatch.setattr(UpbSet, "gram", gram)
        path = tmp_path / "upb67.json"
        e = np.eye(67)
        vectors = [[pairs(e[k]), pairs(e[k])] for k in range(3)]
        path.write_text(json.dumps({"shape": [67, 67], "vectors": vectors}))
        code = main(["witness", "upb", str(path), "--seed", "1", "--out", str(tmp_path)])
        # well formed and only too large: no invalid document
        err = f"error: {path}: target too large for dense matrices: N = 67x67 > 4096\n"
        assert (code, *capsys.readouterr()) == (2, "", err)

    def test_empty_upb_file_is_named(self, capsys, tmp_path):
        # named before the Gram matrix, which has no factors to multiply
        path = tmp_path / "upb.json"
        path.write_text(json.dumps({"shape": [3, 3], "vectors": []}))
        code = main(["witness", "upb", str(path), "--seed", "1", "--out", str(tmp_path)])
        err = f"error: invalid document {path}: ValueError: the family has no vectors\n"
        assert (code, *capsys.readouterr()) == (2, "", err)


class TestUpbLadder:
    # closed-form UPBs beyond tiles, read from files; eps and consensus at --seed 3
    @pytest.mark.parametrize(
        "family,eps", [(shifts, 0.0814413464565), (pyramid, 0.0379118140850)]
    )
    def test_every_command(self, capsys, tmp_path, family, eps):
        path = tmp_path / "upb.json"
        path.write_text(json.dumps(upb_doc(family())))
        target = ("upb", str(path), "--seed", "3")
        code, doc = run_json(capsys, "witness", *target, "--out", str(tmp_path))
        assert code == 0
        assert doc["outputs"]["epsilon"]["value"] == pytest.approx(eps, abs=1e-12)
        assert doc["outputs"]["consensus"] == "32/32"
        code, _ = run(capsys, "decompose", *target, "--out", str(tmp_path))
        assert code == 0
        code, doc = run_json(capsys, "verify", *target)
        assert code == 0
        assert doc["failed"] == []
        assert abs(doc["checks"]["positive_on_products"]["value"]) <= 1e-12
        code, _ = run(capsys, "estimate", *target)
        assert code == 0

    def test_rotated_shifts_accepted_exactly_where_verify_detects(self, capsys, tmp_path):
        # eps, and with it the far-face detection value -eps^2 N/(m(N-m)), goes
        # to 0 with theta; every command must reject the same theta, those whose
        # target verify's detects_target check would not count as detected
        path = tmp_path / "upb.json"
        thetas = np.linspace(0.05, 0.3, 11)
        accepted = []
        for i, theta in enumerate(thetas):
            path.write_text(json.dumps(upb_doc(rotated_shifts(theta))))
            target = ("upb", str(path), "--seed", "1")
            out = ("--out", str(tmp_path))
            argvs = [("witness", *target, *out), ("decompose", *target, *out),
                     ("estimate", *target), ("verify", *target)]
            codes = []
            for argv in argvs:
                codes.append(main(list(argv)))
                stdout, err = capsys.readouterr()
                if codes[-1] == 2:
                    assert "witness does not detect its target" in err, (theta, argv[0], err)
                elif argv[0] == "witness":
                    value = json.loads(stdout)["outputs"]["detection_value"]["value"]
                    assert value < -witness_module.DETECTION_TOL, (theta, value)
                elif argv[0] == "verify":
                    assert json.loads(stdout)["checks"]["detects_target"]["passed"], theta
            assert codes in ([2] * 4, [0] * 4), (theta, codes)
            if codes[0] == 0:
                accepted.append(i)
        # theta from 0.05 to 0.15 lies below the edge near 0.157 at this seed
        assert accepted == list(range(5, len(thetas))), thetas[accepted]

    @pytest.mark.parametrize("family", [shifts, pyramid])
    def test_minus_one_vector_is_extendible(self, capsys, tmp_path, family):
        doc = upb_doc(family())
        doc["vectors"].pop()
        path = tmp_path / "upb.json"
        path.write_text(json.dumps(doc))
        code = main(["witness", "upb", str(path), "--seed", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "minimum product overlap is numerically zero" in capsys.readouterr().err


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
        # one restart on seed 3 sets eps = 0.06699, far above the true 0.028416;
        # a see-saw on the stream that set eps would find its own minimum again
        # and pass a witness that is negative on a product state
        upb = upb_tiles()
        cfg = SeeSawConfig(restarts=1, seed=3)
        assert estimate_epsilon(upb, uniform_mixture(upb), cfg)[0] > 0.05
        code, doc = run_json(
            capsys,
            "verify", "upb", "tiles",
            "--seed", "3", "--restarts", "1",
        )
        assert code == 1
        assert doc["failed"] == ["positive_on_products"]
        assert doc["checks"]["positive_on_products"]["value"] < -1e-4

    @pytest.mark.parametrize("restarts", [0, MAX_RESTARTS + 1, 10**9])
    @pytest.mark.parametrize(
        "target",
        [
            ["verify", "bell2"],
            ["witness", "upb", "tiles"],
            ["witness", "bell2"],  # runs no see-saw, but takes the option
            ["estimate", "bell2", "--shots", "10"],
        ],
    )
    def test_restart_count_out_of_range_is_bad_input(
        self, capsys, monkeypatch, tmp_path, target, restarts
    ):
        # rejected before any start is drawn: a draw here would be a missing bound
        def no_draw(*args):
            raise RuntimeError("see-saw started")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.chdir(tmp_path)
        code = main([*target, "--seed", "1", "--restarts", str(restarts)])
        out, err = capsys.readouterr()
        assert code == 2
        assert not out
        assert f"[1, {MAX_RESTARTS}]" in err
        assert "--restarts" in err

    @pytest.mark.parametrize(
        "target", [["verify", "bell2"], ["estimate", "bell2"], ["witness", "upb", "tiles"]]
    )
    def test_negative_seed_is_bad_input(self, capsys, monkeypatch, tmp_path, target):
        # checked where the option enters, not by numpy's generator
        monkeypatch.chdir(tmp_path)
        code = main([*target, "--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert not out
        assert err == "error: --seed must be >= 0, got -1\n"

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

    @pytest.mark.parametrize("shots", (10**17, 2**62), ids=["1e17", "2^62"])
    @pytest.mark.parametrize(
        "target", [("qudit", "3", "2"), ("qudit", "5", "2"), ("ghz", "3", "1")],
        ids=["qudit3", "qudit5", "ghz3"],
    )
    def test_z_score_at_huge_shot_counts(self, capsys, target, shots):
        # outcomes of probability ~1e-17 get drawn; the stderr they leave is far
        # below the estimate's rounding, which must not read as a deviation
        kind, param, seed = target
        code, doc = run_json(
            capsys,
            "estimate", kind, param, "--state", "rho0", "--shots", str(shots), "--seed", seed,
        )
        assert code == 0
        assert doc["outputs"]["estimate"]["stderr"] > 0
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

    def test_rejects_decomposition_of_another_witness(self, capsys, tmp_path):
        # same shape, other parameter: the stored settings measure W(t = 1/16)
        run_json(capsys, "decompose", "threeq", "0", "0.0625", "--out", str(tmp_path))
        path = tmp_path / "threeq_m0.0_t0.0625_decomposition.json"
        argv = ["estimate", "threeq", "0", "0.125", "--decomposition", str(path), "--seed", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(path) in captured.err

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

    @pytest.mark.parametrize(
        "scale,message",
        [
            (1.01, "party basis not orthonormal: deviation 2.010e-02"),
            (np.nan, "expected finite numbers, found NaN or infinity"),
        ],
        ids=["scaled_entry", "non_finite_entry"],
    )
    def test_stored_basis_is_checked_by_the_reader(self, capsys, tmp_path, scale, message):
        # the program's own bases are unitary by their closed forms
        # (tests/test_bases.py); a basis read from a file is checked where it enters
        run_json(capsys, "decompose", "qudit", "3", "--out", str(tmp_path))
        path = tmp_path / "qudit3_decomposition.json"
        doc = json.loads(path.read_text())
        doc["settings"][0]["party_bases"][0]["entries"][0][0] *= scale
        path.write_text(json.dumps(doc))
        code = main(["estimate", "qudit", "3", "--decomposition", str(path), "--seed", "1"])
        err = f"error: invalid document {path}: ValueError: {message}\n"
        assert (code, *capsys.readouterr()) == (2, "", err)


BUILDERS = (
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


@pytest.mark.parametrize(
    "argv,validations",
    [
        (["witness", "ghz", "6"], 2),
        (["decompose", "ghz", "6"], 2),
        (["estimate", "ghz", "6", "--state", "d0", "--seed", "1", "--shots", "10"], 3),
        (["witness", "qudit", "5"], 2),
        # mu0 once, shared by the see-saw, rho0 and the witness; then rho0 and tau0
        (["witness", "upb", "tiles", "--seed", "1", "--restarts", "4"], 3),
        # the family member and the published nearest state; no segment point
        (["witness", "threeq", "0", "0.125"], 2),
    ],
)
def test_density_states_per_command(capsys, monkeypatch, tmp_path, argv, validations):
    # a GHZ command validates rho0 and tau0 only (d0 for --state d0): tau0 and
    # the convex-form check are built from their X entries, not from the
    # dephased and corner states
    calls = []
    post_init = DensityState.__post_init__
    monkeypatch.setattr(
        DensityState, "__post_init__", lambda self: calls.append(self.dims) or post_init(self)
    )
    monkeypatch.chdir(tmp_path)  # witness and decompose write to the working directory
    assert main(argv) == 0
    assert len(calls) == validations, calls


@pytest.mark.parametrize("command,checks", [("decompose", 0), ("estimate", 42)])
def test_basis_checks_per_command(capsys, monkeypatch, tmp_path, command, checks):
    # a basis is checked where it is read, once: 7 settings of 6 parties from the
    # file; the bases the program builds are unitary by form (tests/test_bases.py)
    assert main(["decompose", "ghz", "6", "--out", str(tmp_path)]) == 0
    calls = []
    read = wio._basis_from_doc
    monkeypatch.setattr(wio, "_basis_from_doc", lambda doc: calls.append(1) or read(doc))
    argv = {
        "decompose": ["decompose", "ghz", "6", "--out", str(tmp_path)],
        "estimate": ["estimate", "ghz", "6", "--seed", "1", "--shots", "10",
                     "--decomposition", str(tmp_path / "ghz6_decomposition.json")],
    }[command]
    assert main(argv) == 0
    assert len(calls) == checks


@pytest.mark.parametrize(
    "argv,sums",
    [
        (["witness", "ghz", "5"], 0),
        (["estimate", "ghz", "5", "--seed", "1", "--shots", "10"], 0),
        (["decompose", "ghz", "5"], 6),
        (["verify", "ghz", "5", "--seed", "1", "--restarts", "4"], 6),
    ],
)
def test_weighted_sums_per_command(capsys, monkeypatch, tmp_path, argv, sums):
    # one dense weighted sum per setting, in the reconstruction residual; the
    # corner-state expansion of the equatorial settings is an identity that
    # tests/test_measurements.py checks
    calls = []
    weighted_sum = measurements.MeasurementSetting.weighted_sum
    monkeypatch.setattr(
        measurements.MeasurementSetting,
        "weighted_sum",
        lambda self: calls.append(self.dims) or weighted_sum(self),
    )
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(calls) == sums, calls


def test_ghz_setting_fault_fails(capsys, monkeypatch, tmp_path):
    # a 1% error in the equatorial angles leaves the witness intact, so only
    # the settings' own checks can see it: the reconstruction residual, and
    # the exact value of the settings on the estimated state
    axis_basis = measurements._xy_axis_basis
    monkeypatch.setattr(measurements, "_xy_axis_basis", lambda phi: axis_basis(1.01 * phi))
    code, doc = run_json(capsys, "decompose", "ghz", "4", "--out", str(tmp_path))
    assert code == 3
    assert doc["outputs"]["reconstruction_residual"]["value"] == pytest.approx(0.023, abs=1e-3)
    code, doc = run_json(capsys, "verify", "ghz", "4", "--seed", "1", "--restarts", "8")
    assert code == 1
    assert doc["failed"] == ["decomposition_reconstruction"]
    code = main(["estimate", "ghz", "4", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "does not measure the witness" in captured.err
    assert "(gap 8.480e-04)" in captured.err
    # on I/N every basis gives uniform outcomes: the settings still measure
    # Tr(W I/N) exactly, so the check passes and the estimate is right
    code, doc = run_json(capsys, "estimate", "ghz", "4", "--state", "d0", "--seed", "1")
    assert code == 0
    assert abs(doc["outputs"]["z_score"]["value"]) <= 5


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "bell2"],
        ["witness", "qudit", "5"],
        ["decompose", "qudit", "5"],
        ["verify", "qudit", "3", "--seed", "1", "--restarts", "4"],
        ["estimate", "qudit", "5", "--seed", "1", "--shots", "10"],
    ],
)
def test_max_entangled_built_once(capsys, monkeypatch, tmp_path, argv):
    # rho0 serves both the witness and its closest separable state
    built = []
    max_entangled = states.max_entangled
    for module in (states, measurements):
        monkeypatch.setattr(module, "max_entangled", lambda d: built.append(d) or max_entangled(d))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert len(built) == 1, built


@pytest.mark.parametrize("command", ["witness", "decompose"])
def test_three_qubit_family_built_once(capsys, monkeypatch, tmp_path, command):
    # one build, so one comparison with the parity expansion; the product
    # expansion of the parity states is an identity test_states.py checks
    families, eighs = [], []
    family, eigh = states.three_qubit_family, np.linalg.eigh
    for module in (states, measurements):
        monkeypatch.setattr(
            module, "three_qubit_family", lambda *a: families.append(a) or family(*a)
        )
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


# Half-decades of t from 1e-320 to 1e-4: the detection value -2 t^2 crosses
# -DETECTION_TOL at t = 7.07e-6, and witness must accept exactly the t above it
# that verify's detects_target check counts as detected
DETECTION_GRID = [repr(10 ** (k / 2)) for k in range(-640, -7)]


@pytest.mark.parametrize("m", ["0", "0.0625", "-0.0625", "0.001"])
def test_threeq_accepts_exactly_the_detected_t(m):
    accepted = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, t in enumerate(DETECTION_GRID):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["witness", "threeq", m, t, "--out", tmp])
            if code == 2:
                assert "witness does not detect its target: Tr(W rho0) = " in err.getvalue()
                continue
            assert code == 0, err.getvalue()
            value = json.loads(out.getvalue())["outputs"]["detection_value"]["value"]
            assert value < -witness_module.DETECTION_TOL, (t, value)
            accepted.append(i)
    assert accepted, "no t detected"
    assert accepted == list(range(accepted[0], accepted[-1] + 1)), accepted


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


@pytest.mark.parametrize(
    "words,expected",
    [
        pytest.param(words, expected, id="-".join(words.split()[:2]))
        for words, expected in [
            ("witness bell2 extra", "bell2: parameter count 1, expected 0"),
            ("witness qudit 3 extra", "qudit: parameter count 2, expected 1"),
            ("witness ghz 3 extra", "ghz: parameter count 2, expected 1"),
            ("witness threeq 0 0.125 extra", "threeq: parameter count 3, expected 2"),
            ("witness upb tiles extra --seed 1", "upb: parameter count 2, expected 0 or 1"),
            ("threshold twoqubit 1 1 0.1 extra",
             "threshold twoqubit: parameter count 4, expected 3"),
            ("threshold qudit 3 1,1,1 0.3 0 extra",
             "threshold qudit: parameter count 5, expected 4"),
            ("threshold frustum 1 0 9 5 5 0.028 extra",
             "threshold frustum: parameter count 7, expected 6"),
        ]
    ],
)
def test_extra_parameter_is_bad_input(capsys, tmp_path, words, expected):
    # each target and threshold kind takes a fixed number of parameters
    argv = words.split()
    if argv[0] == "witness":
        argv += ["--out", str(tmp_path)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: {expected}\n"
    assert list(tmp_path.iterdir()) == []


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


# Input files that fail where they enter: bytes that are no UTF-8, and a JSON
# array nested past the interpreter's recursion limit
BAD_FILES = {"not_utf8": b"\xff\xfe", "deep": b"[" * 100000}
FILE_COMMANDS = {
    "upb": lambda path: ["witness", "upb", path, "--seed", "1"],
    "decomposition": lambda path: ["estimate", "bell2", "--decomposition", path, "--seed", "1"],
    "amplitudes": lambda path: ["threshold", "qudit", "3", path, "0.5", "0"],
}


@pytest.mark.parametrize("content", BAD_FILES.values(), ids=list(BAD_FILES))
@pytest.mark.parametrize("command", FILE_COMMANDS.values(), ids=list(FILE_COMMANDS))
def test_unreadable_document_is_bad_input(capsys, monkeypatch, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    monkeypatch.chdir(tmp_path)
    code = main(command(str(path)))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: invalid document {path}: ")


def test_builder_fault_is_internal(capsys, monkeypatch, tmp_path):
    # a transcription error in a builder: the closest separable state's trace
    # is 1 + 1e-6; witness bell2 reads no input, so this is no bad input
    closest = measurements.closest_separable

    def off_trace(rho0):
        return DensityState(closest(rho0).mat * (1 + 1e-6), rho0.dims)

    monkeypatch.setattr(measurements, "closest_separable", off_trace)
    code = main(["witness", "bell2", "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: ValueError: trace")


def test_key_error_in_builder_is_internal(capsys, monkeypatch, tmp_path):
    def missing_key(rho0, tau0):
        raise KeyError("a")

    monkeypatch.setattr(measurements, "nearest_witness", missing_key)
    code = main(["witness", "ghz", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: KeyError: 'a'\n"


def _words(*pools):
    """Positional words, one from each pool in turn; half the time cut short."""
    length = st.one_of(st.just(len(pools)), st.integers(0, len(pools) - 1))
    return st.tuples(*map(st.sampled_from, pools), length).map(
        lambda drawn: list(drawn[: drawn[-1]])
    )


# Sizes come only from small cases and from values the N <= 4096 bound
# rejects: a qudit of 17 or more, or ghz 9 to 12, would take seconds each.
# FILE stands for one of the bad files, a missing path or a directory, OUT
# for a fresh output directory.
NUMBERS = ["0", "0.5", "1", "-1", "1e-300", "1e308", "nan", "-inf", "x", ""]
FUZZ_TARGETS = {
    "bell2": st.just([]),
    "qudit": _words(["3", "5", "2", "4", "1", "0", "-1", "67", "1000000000", "x"]),
    "ghz": _words(["2", "3", "4", "1", "0", "-1", "13", "99", "x"]),
    "threeq": _words(*[["0", "0.0625", "0.05", "-0.05", "0.125", "0.2", *NUMBERS]] * 2),
    "upb": _words(["tiles", "FILE"]),
}
FUZZ_THRESHOLDS = {
    "twoqubit": _words(*[["0.6", "0.8", *NUMBERS]] * 3),
    "qudit": _words(
        ["3", "2", "4", "0", "x"], ["1,1,1", "0.6,0.8", "0,0,0", "1,nan", "FILE"], NUMBERS, NUMBERS
    ),
    "frustum": _words(
        NUMBERS, NUMBERS, ["9", "9.5", *NUMBERS], ["5", "10", *NUMBERS],
        ["5", "0", *NUMBERS], ["0.028", *NUMBERS],
    ),
}


@st.composite
def fuzz_argv(draw):
    """An argv over all five subcommands; each option is drawn or left out."""
    command = draw(st.sampled_from(["witness", "decompose", "verify", "estimate", "threshold"]))
    if command == "threshold":
        kind = draw(st.sampled_from(sorted(FUZZ_THRESHOLDS)))
        return [command, kind, *draw(FUZZ_THRESHOLDS[kind])]
    target = draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    # None leaves the option out
    options = {
        "--seed": ["1", "7", "0", "1", "7", "-1", None],
        "--restarts": ["2", "1", "2", "1", "0", "257", None],
        "--out": ["OUT", "OUT", "FILE"],
        "--shots": ["10", "1", "0", str(2**63), None],
        "--state": ["rho0", "tau0", "d0", None],
        "--decomposition": ["FILE", None, None],
    }
    taken = ["--seed", "--restarts"]
    taken += {"estimate": ["--shots", "--state", "--decomposition"], "verify": []}.get(
        command, ["--out"]
    )
    argv = [command, target, *draw(FUZZ_TARGETS[target])]
    for name in taken:
        value = draw(st.sampled_from(options[name]))
        argv += [] if value is None else [name, value]
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(argv=fuzz_argv(), data=st.data())
def test_argv_fuzz_never_exits_internal(argv, data):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in BAD_FILES.items():
            Path(tmp, name).write_bytes(content)
        paths = st.sampled_from([*BAD_FILES, "missing", "."]).map(lambda name: str(Path(tmp, name)))
        names = {"OUT": st.just(str(Path(tmp, "out"))), "FILE": paths}
        argv = [data.draw(names[word]) if word in names else word for word in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv before main's handlers
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "", argv


@pytest.mark.parametrize(
    "target",
    [("ghz", "8"), ("qudit", "13"), ("upb", "tiles", "--seed", "3", "--restarts", "8")],
    ids=["ghz8", "qudit13", "upb-tiles"],
)
def test_reports_independent_of_blas_thread_count(tmp_path, target):
    # a threaded BLAS reduction such as np.vdot sums in an order that depends
    # on the thread count; reports and files must not.  upb runs the see-saw,
    # whose epsilon reaches the report and the witness and tau0 files
    src = str(Path(cli.__file__).resolve().parent.parent)
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "witgeo.cli", "witness", *target, "--out", str(out)],
            capture_output=True, text=True, env=env, check=True,
        )
        report = json.loads(proc.stdout.replace(str(out), "OUT"))
        del report["wall_time_s"]
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((report, files))
    assert len(runs[0][1]) == 3
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
