"""Verification oracles: partial-transpose reports, see-saw, product bound."""

import numpy as np
import pytest

from witgeo import oracle
from witgeo.linalg import tensor
from witgeo.measurements import ghz_decomposition, standard_witness, three_qubit_witness
from witgeo.oracle import SeeSawConfig, min_over_products, ppt_report
from witgeo.states import (
    completely_random,
    ghz,
    max_entangled,
    three_qubit_family,
)

from product_bound import (
    bell_bound_three_qubit,
    bell_correlation,
    product_bound_objective,
    product_from_angles,
)
from product_projection import product_matrix
import seesaw_reference


class TestPptReport:
    def test_bell_cut(self):
        report = ppt_report(max_entangled(2))
        assert set(report.min_eigenvalues) == {(1,)}
        assert report.min_eigenvalues[(1,)] == pytest.approx(-0.5, abs=1e-12)
        assert report.minimum < -1e-10

    def test_random_state(self):
        report = ppt_report(completely_random((2, 2)))
        assert report.minimum >= 0.25 - 1e-12

    def test_three_party_cut_cover(self):
        report = ppt_report(three_qubit_family(0.0, 0.125))
        assert set(report.min_eigenvalues) == {(1,), (2,), (1, 2)}
        assert report.minimum >= -1e-10

    def test_family_grid(self):
        for c in np.linspace(-0.125, 0.125, 5):
            for d in np.linspace(-0.125, 0.125, 5):
                assert ppt_report(three_qubit_family((c + d) / 2, (c - d) / 2)).minimum >= -1e-10

    @pytest.mark.parametrize("n", range(2, 8))
    def test_ghz_every_cut_is_minus_half(self, n):
        # the partial transpose of GHZ on any proper cut moves the two corner
        # coherences into a 2 x 2 block [[0, 1/2], [1/2, 0]]: lowest eigenvalue -1/2
        report = ppt_report(ghz(n))
        assert len(report.min_eigenvalues) == 2 ** (n - 1) - 1
        for cut, value in report.min_eigenvalues.items():
            assert value == pytest.approx(-0.5, abs=1e-12), cut


def _reference_targets():
    from witgeo.upb import tiles, uniform_mixture

    rng = np.random.default_rng(16)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    yield pytest.param(standard_witness(2).matrix, (2, 2), 32, id="bell2")
    for d in (3, 5, 7, 13):
        yield pytest.param(standard_witness(d).matrix, (d, d), 32, id=f"qudit{d}")
    for n in (3, 4, 5, 6):
        yield pytest.param(ghz_decomposition(n).witness.matrix, (2,) * n, 32, id=f"ghz{n}")
    yield pytest.param(-ghz(9).mat, (2,) * 9, 2, id="-ghz9")
    for m, t in ((0.0, 1 / 8), (0.02, 0.05)):
        yield pytest.param(three_qubit_witness(m, t).matrix, (2, 2, 2), 32, id=f"threeq{m},{t}")
    yield pytest.param(uniform_mixture(tiles()).mat, (3, 3), 32, id="tiles-mu0")
    yield pytest.param(g + g.conj().T, (4,), 32, id="single-party")
    g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    # unequal dims: a party-order or transpose slip in the local contraction shows
    yield pytest.param(g + g.conj().T, (2, 3, 2), 32, id="random-2x3x2")


def _independence_targets():
    from witgeo.upb import tiles, uniform_mixture

    yield pytest.param(three_qubit_witness(0.02, 0.05).matrix, (2, 2, 2), id="threeq0.02,0.05")
    yield pytest.param(ghz_decomposition(5).witness.matrix, (2,) * 5, id="ghz5")
    yield pytest.param(standard_witness(7).matrix, (7, 7), id="qudit7")
    yield pytest.param(uniform_mixture(tiles()).mat, (3, 3), id="tiles-mu0")


class TestMinOverProducts:
    def test_constant_objective(self):
        res = min_over_products(np.eye(4), (2, 2), SeeSawConfig(restarts=4, seed=1))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_witness_floor(self):
        w = standard_witness(2)
        res = min_over_products(w.matrix, (2, 2), SeeSawConfig(restarts=32, seed=2))
        assert res.value >= -1e-8
        assert abs(res.value) <= 1e-8  # the nearest face touches the plane
        assert res.consensus >= 8

    def test_max_product_overlap_with_bell(self):
        res = min_over_products(
            -max_entangled(2).mat, (2, 2), SeeSawConfig(restarts=16, seed=3)
        )
        assert res.value == pytest.approx(-0.5, abs=1e-8)

    def test_qutrit_witness_floor(self):
        w = standard_witness(3)
        res = min_over_products(w.matrix, (3, 3), SeeSawConfig(restarts=24, seed=4))
        assert res.value >= -1e-8
        assert abs(res.value) <= 1e-7

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        w = standard_witness(2)
        base = min_over_products(w.matrix, (2, 2), SeeSawConfig(restarts=16, seed=6))
        for _ in range(3):
            us = []
            for _ in range(2):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, _r = np.linalg.qr(g)
                us.append(q)
            u = tensor(*us)
            rotated = u @ w.matrix @ u.conj().T
            res = min_over_products(rotated, (2, 2), SeeSawConfig(restarts=16, seed=6))
            assert abs(res.value - base.value) <= 1e-8

    @pytest.mark.parametrize("h, dims, restarts", list(_reference_targets()))
    def test_argmin_attains_value(self, h, dims, restarts):
        # Tr(H pi) through the Kronecker product of the argmin's factors, a
        # route independent of the see-saw's local contraction
        res = min_over_products(h, dims, SeeSawConfig(restarts=restarts, seed=7))
        direct = np.trace(h @ product_matrix(res.argmin)).real
        assert abs(direct - res.value) <= 1e-12
        assert len(res.argmin) == len(dims)
        for f in res.argmin:
            assert abs(np.linalg.norm(f) - 1) <= 1e-12

    def test_nine_parties(self):
        # the largest overlap of a product state with GHZ is 1/2 at any n
        res = min_over_products(-ghz(9).mat, (2,) * 9, SeeSawConfig(restarts=2, seed=1))
        assert res.value == pytest.approx(-0.5, abs=1e-9)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            min_over_products(tensor(bad, np.eye(2)), (2, 2), SeeSawConfig(restarts=1, seed=0))

    def test_three_qubit_witness_true_floor(self):
        # The constructed three-qubit witness plane cuts into the product
        # states: the analytic minimum is (t/4)(1 - sqrt(2)) < 0, attained
        # at theta = pi/4 and phases like (pi/4, -pi/4, -pi/4).  The
        # see-saw must find it; this documents the construction's defect.
        t = 1 / 8
        w = three_qubit_witness(0.0, t)
        res = min_over_products(w.matrix, (2, 2, 2), SeeSawConfig(restarts=32, seed=8))
        assert res.value == pytest.approx((t / 4) * (1 - np.sqrt(2)), abs=1e-9)
        assert res.consensus >= 8


class TestBatchedSeeSaw:
    @pytest.mark.parametrize("h, dims, restarts", list(_reference_targets()))
    def test_bit_identical_to_restart_loop(self, h, dims, restarts):
        # The batch runs the same gemm and eigh calls per restart as the
        # one-restart-at-a-time loop, so every value must match exactly.
        cfg = SeeSawConfig(restarts=restarts, seed=3)
        got = min_over_products(h, dims, cfg)
        want = seesaw_reference.min_over_products(h, dims, cfg)
        assert got.value == want.value
        assert got.consensus == want.consensus
        assert got.values == want.values
        for a, b in zip(got.argmin, want.argmin, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("h, dims", list(_independence_targets()))
    def test_restart_start_depends_only_on_seed_and_index(self, h, dims, seed):
        many = min_over_products(h, dims, SeeSawConfig(restarts=32, seed=seed))
        few = min_over_products(h, dims, SeeSawConfig(restarts=8, seed=seed))
        assert many.values[:8] == few.values

    def test_one_generator_per_call(self, monkeypatch):
        made = []
        make = np.random.default_rng

        def record(*args):
            made.append(args)
            return make(*args)

        monkeypatch.setattr(np.random, "default_rng", record)
        min_over_products(standard_witness(3).matrix, (3, 3), SeeSawConfig(restarts=32, seed=2))
        assert made == [(2,)]

    def test_one_batched_eigh_per_party_step(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def record(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(oracle.np.linalg, "eigh", record)
        dims = (2, 2)
        min_over_products(standard_witness(2).matrix, dims, SeeSawConfig(restarts=32, seed=2))
        assert calls
        assert all(len(shape) == 3 for shape in calls)
        assert len(calls) <= len(dims) * oracle._MAX_SWEEPS


class TestProductBound:
    def test_correlation_values(self):
        assert bell_correlation(0.0, 0.0, 0.0) == pytest.approx(2.0)
        phis = (0.0, 0.0, np.pi / 2)
        direct = (
            np.cos(sum(phis))
            + np.cos(phis[0] + phis[1] - phis[2])
            + np.cos(phis[0] - phis[1] + phis[2])
            - np.cos(phis[0] - phis[1] - phis[2])
        )
        assert bell_correlation(*phis) == pytest.approx(direct)

    def test_identity_with_witness_expectation(self):
        # 2 Tr(Wn pi) = 2 - sin sin sin * C for the integer-form witness
        t = 1 / 8
        wn = three_qubit_witness(0.0, t).matrix / (t / 4)
        rng = np.random.default_rng(9)
        for _ in range(100):
            thetas = rng.uniform(0, np.pi / 2, size=3)
            phis = rng.uniform(-np.pi, np.pi, size=3)
            pi = product_from_angles(thetas, phis)
            lhs = 2 * np.trace(wn @ product_matrix(pi)).real
            rhs = 2 - product_bound_objective(thetas, phis)
            assert abs(lhs - rhs) <= 1e-10

    def test_attaining_point_reaches_two(self):
        assert product_bound_objective([np.pi / 4] * 3, [0.0, 0.0, 0.0]) == pytest.approx(2.0)

    def test_global_maximum_value(self):
        # The analytic maximum over all angles is 2*sqrt(2) (at phase
        # triples like (pi/4, -pi/4, -pi/4)), strictly above the value 2
        # reached at zero phases; see the README section "Three-qubit
        # family: the published bound is 2*sqrt(2)" for the proof.
        val = bell_bound_three_qubit(restarts=60, seed=10)
        assert val == pytest.approx(2 * np.sqrt(2), abs=1e-6)

    def test_consistency_with_seesaw(self):
        # max of the trig objective <-> min of the witness over products
        t = 1 / 8
        w = three_qubit_witness(0.0, t)
        res = min_over_products(w.matrix, (2, 2, 2), SeeSawConfig(restarts=24, seed=11))
        val = bell_bound_three_qubit(restarts=60, seed=12)
        assert res.value == pytest.approx((t / 4) * (2 - val) / 2, abs=1e-8)


def test_witness_floor_for_ghz_targets():
    for n in (3, 4):
        g = ghz_decomposition(n)
        res = min_over_products(
            g.witness.matrix, (2,) * n, SeeSawConfig(restarts=24, seed=13)
        )
        assert res.value >= -1e-8


def test_witness_floor_for_far_face():
    from witgeo.upb import estimate_epsilon, far_face_witness, tiles, uniform_mixture

    upb = tiles()
    mu0 = uniform_mixture(upb)
    eps, _ = estimate_epsilon(upb, mu0, SeeSawConfig(restarts=32, seed=14))
    w = far_face_witness(upb, mu0, eps)
    res = min_over_products(w.matrix, (3, 3), SeeSawConfig(restarts=32, seed=15))
    assert res.value >= -1e-8
