"""Unextendible product basis pipeline: tiles family, far-face witness."""

import numpy as np
import pytest

from witgeo.linalg import BadInput, hs_inner, partial_transpose
from witgeo.oracle import SeeSawConfig
from witgeo.states import completely_random
from witgeo.upb import (
    UpbSet,
    bound_entangled,
    estimate_epsilon,
    far_face_witness,
    tiles,
    uniform_mixture,
)
from witgeo.witness import DETECTION_TOL, evaluate

import upb_reference
from paper_states import reweighted_bound_entangled
from product_projection import product_matrix
from upb_ladder import pyramid, shifts


@pytest.fixture(scope="module")
def tiles_upb():
    return tiles()


@pytest.fixture(scope="module")
def tiles_mu0(tiles_upb):
    return uniform_mixture(tiles_upb)


@pytest.fixture(scope="module")
def eps_estimate(tiles_upb, tiles_mu0):
    # (eps, the see-saw's MinProductsResult)
    return estimate_epsilon(tiles_upb, tiles_mu0, SeeSawConfig(restarts=64, seed=0))


class TestTilesFamily:
    def test_counts(self, tiles_upb):
        assert tiles_upb.m == 5
        assert tiles_upb.n == 9

    def test_gram_is_identity(self, tiles_upb):
        assert np.abs(tiles_upb.gram() - np.eye(5)).max() <= 1e-12

    def test_rejects_non_orthonormal(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            UpbSet((3, 3), ((e[0], e[0]), (e[0], e[0] + e[1])))

    def test_rejects_local_dimension_below_two(self):
        e = np.eye(2)
        with pytest.raises(ValueError, match=">= 2"):
            UpbSet((2, 1), ((e[0], e[0][:1]),))

    def test_rejects_complete_family(self):
        e = np.eye(2)
        vecs = tuple((e[i], e[j]) for i in range(2) for j in range(2))
        with pytest.raises(ValueError):
            UpbSet((2, 2), vecs)


class TestUniformMixture:
    def test_rank_and_purity(self, tiles_mu0):
        mu = tiles_mu0.mat
        w = np.linalg.eigvalsh(mu)
        assert np.sum(w > 1e-10) == 5
        assert np.trace(mu @ mu).real == pytest.approx(1 / 5, abs=1e-12)
        assert np.trace(mu).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("family", [tiles, shifts, pyramid])
    def test_bit_identical_to_member_sum(self, family):
        # one stacked tensor call against np.kron member by member
        upb = family()
        got, want = uniform_mixture(upb).mat, upb_reference.uniform_mixture(upb)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBoundEntangled:
    def test_spectrum(self, tiles_upb, tiles_mu0):
        rho = bound_entangled(tiles_upb, tiles_mu0)
        w = np.linalg.eigvalsh(rho.mat)
        assert w.min() == pytest.approx(0.0, abs=1e-12)
        assert np.sum(w > 1e-10) == 4
        assert np.allclose(w[-4:], 0.25, atol=1e-12)

    def test_orthogonal_to_mixture(self, tiles_upb, tiles_mu0):
        rho = bound_entangled(tiles_upb, tiles_mu0)
        assert abs(hs_inner(tiles_mu0.mat, rho.mat)) <= 1e-10

    def test_ppt_both_cuts(self, tiles_upb, tiles_mu0):
        rho = bound_entangled(tiles_upb, tiles_mu0)
        for cut in ([0], [1]):
            w = np.linalg.eigvalsh(partial_transpose(rho.mat, cut, rho.dims))
            assert w.min() >= -1e-10

    def test_rejects_indefinite_complement(self):
        # |1'> = |1> + 0.99e-10 |0> passes the Gram check (deviation 9.9e-11), and
        # the complement of the three projectors dips to about -1.4e-10
        e0, e1 = np.eye(2)
        tilted = e1 + 0.99e-10 * e0
        upb = UpbSet((2, 2), ((e0, e0), (e0, tilted), (tilted, e0)))
        with pytest.raises(ValueError, match="complement state not PSD"):
            bound_entangled(upb, uniform_mixture(upb))

    def test_random_state_on_segment(self, tiles_upb, tiles_mu0):
        # (N-m)/N * rho0 + m/N * mu0 recovers the maximally mixed state
        rho = bound_entangled(tiles_upb, tiles_mu0)
        mix = (4 / 9) * rho.mat + (5 / 9) * tiles_mu0.mat
        assert np.abs(mix - completely_random((3, 3)).mat).max() <= 1e-12


class TestEpsilonEstimate:
    def test_bracket(self, eps_estimate, tiles_upb):
        eps, _ = eps_estimate
        assert 0 < eps < 5 / 9
        s0 = 1 - eps * 9 / 5
        assert 0 < s0 < 1

    def test_consensus(self, eps_estimate):
        assert eps_estimate[1].consensus >= 8

    def test_seed_stability(self, tiles_upb, tiles_mu0, eps_estimate):
        for seed in (1, 2):
            cfg = SeeSawConfig(restarts=64, seed=seed)
            other, _ = estimate_epsilon(tiles_upb, tiles_mu0, cfg)
            assert abs(other - eps_estimate[0]) <= 1e-8

    def test_more_restarts_no_improvement(self, tiles_upb, tiles_mu0, eps_estimate):
        bigger, _ = estimate_epsilon(tiles_upb, tiles_mu0, SeeSawConfig(restarts=128, seed=0))
        assert eps_estimate[0] - bigger <= 1e-9

    def test_argmin_attains(self, tiles_mu0, eps_estimate):
        eps, res = eps_estimate
        val = np.trace(tiles_mu0.mat @ product_matrix(res.argmin)).real
        assert val == pytest.approx(eps / 5, abs=1e-12)

    def test_extendible_family_rejected(self):
        # computational-basis products are extendible: the overlap floor is 0
        e = np.eye(3)
        vecs = tuple((e[i], e[j]) for i, j in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
        extendible = UpbSet((3, 3), vecs)
        cfg = SeeSawConfig(restarts=16, seed=3)
        with pytest.raises(ValueError, match="extendible"):
            estimate_epsilon(extendible, uniform_mixture(extendible), cfg)


class TestFarFaceWitness:
    def test_detection_value(self, tiles_upb, tiles_mu0, eps_estimate):
        eps, _ = eps_estimate
        w = far_face_witness(tiles_upb, tiles_mu0, eps)
        want = -eps * eps * 9 / (5 * 4)
        assert evaluate(w, w.rho0) == pytest.approx(want, abs=1e-12)

    def test_detects_at_small_eps(self, tiles_upb, tiles_mu0):
        # Tr(W rho0) = -eps^2 N/(m(N-m)) crosses -DETECTION_TOL at the edge
        # eps = sqrt(1e-10 * 20/9) ~ 1.49e-5: below it there is no witness
        edge = np.sqrt(DETECTION_TOL * 20 / 9)
        for eps in np.logspace(-11, -3, 17):
            if eps < edge:
                with pytest.raises(BadInput, match="does not detect its target"):
                    far_face_witness(tiles_upb, tiles_mu0, eps)
            else:
                w = far_face_witness(tiles_upb, tiles_mu0, eps)
                assert evaluate(w, w.rho0) == pytest.approx(-eps * eps * 9 / 20, rel=1e-6)
        with pytest.raises(BadInput):
            far_face_witness(tiles_upb, tiles_mu0, edge * (1 - 1e-3))
        w = far_face_witness(tiles_upb, tiles_mu0, edge * (1 + 1e-3))
        assert evaluate(w, w.rho0) < -DETECTION_TOL

    def test_vanishes_on_argmin(self, tiles_upb, tiles_mu0, eps_estimate):
        eps, res = eps_estimate
        w = far_face_witness(tiles_upb, tiles_mu0, eps)
        val = np.trace(w.matrix @ product_matrix(res.argmin)).real
        assert abs(val) <= 1e-8

    def test_positive_on_sampled_products(self, tiles_upb, tiles_mu0, eps_estimate):
        w = far_face_witness(tiles_upb, tiles_mu0, eps_estimate[0])
        rng = np.random.default_rng(4)
        worst = np.inf
        for _ in range(2000):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            f = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            worst = min(worst, (f.conj() @ w.matrix @ f).real)
        assert worst >= -1e-8

    def test_eps_bracket_enforced(self, tiles_upb, tiles_mu0):
        with pytest.raises(ValueError):
            far_face_witness(tiles_upb, tiles_mu0, 0.0)
        with pytest.raises(ValueError):
            far_face_witness(tiles_upb, tiles_mu0, 5 / 9)

    def test_segment_construction_coincides(self, tiles_upb, tiles_mu0, eps_estimate):
        # hyperplane route through tau0 = (1-s0) I/N + s0 rho0
        eps, _ = eps_estimate
        w = far_face_witness(tiles_upb, tiles_mu0, eps)
        n, m = 9, 5
        s0 = 1 - eps * n / m
        rho = bound_entangled(tiles_upb, tiles_mu0)
        tau_mat = (1 - s0) * np.eye(n) / n + s0 * rho.mat
        c0 = hs_inner(tau_mat, rho.mat - tau_mat).real
        other = tau_mat + c0 * np.eye(n) - rho.mat
        assert np.abs(w.matrix - other).max() <= 1e-10
        assert w.s0 == pytest.approx(s0)


class TestReweighted:
    def test_uniform_recovers_base_state(self, tiles_upb, tiles_mu0):
        rho_b = reweighted_bound_entangled(tiles_upb, [0.2] * 5)
        assert np.abs(rho_b.mat - bound_entangled(tiles_upb, tiles_mu0).mat).max() <= 1e-12

    def test_tilted_weights(self, tiles_upb, eps_estimate):
        rho_b = reweighted_bound_entangled(tiles_upb, [0.24, 0.19, 0.19, 0.19, 0.19])
        for cut in ([0], [1]):
            w = np.linalg.eigvalsh(partial_transpose(rho_b.mat, cut, rho_b.dims))
            assert w.min() >= -1e-10

    def test_detection_region(self, tiles_upb, tiles_mu0, eps_estimate):
        # Tr(W rho_b) < 0 iff Tr(mu0 rho_b) = (1 - b/m)/(N - b) < eps/m, so
        # only tilts with max weight within ~2% of uniform stay detected;
        # the frustum test (sufficient, a factor m stricter at p=1) implies
        # detection whenever it fires.
        from witgeo.witness import frustum_predicate

        eps, _ = eps_estimate
        wit = far_face_witness(tiles_upb, tiles_mu0, eps)
        inside = [0.2009] + [(1 - 0.2009) / 4] * 4
        rho_in = reweighted_bound_entangled(tiles_upb, inside)
        assert frustum_predicate(1.0, 0.0, 9, 5, 1 / max(inside), eps)
        assert evaluate(wit, rho_in) < 0
        outside = [0.24, 0.19, 0.19, 0.19, 0.19]
        rho_out = reweighted_bound_entangled(tiles_upb, outside)
        assert not frustum_predicate(1.0, 0.0, 9, 5, 1 / max(outside), eps)
        assert evaluate(wit, rho_out) > 0  # too far from the uniform mixture

    def test_concentrated_weights_stay_psd(self, tiles_upb):
        # With the tilt defined through the largest weight, the smallest
        # eigenvalue is exactly zero, so no admissible weight vector can
        # break positivity; the guard in the constructor is defensive.
        for weights in ([0.96, 0.01, 0.01, 0.01, 0.01], [1.0, 0.0, 0.0, 0.0, 0.0]):
            rho_b = reweighted_bound_entangled(tiles_upb, weights)
            assert np.linalg.eigvalsh(rho_b.mat).min() >= -1e-12

    def test_validation(self, tiles_upb):
        with pytest.raises(ValueError):
            reweighted_bound_entangled(tiles_upb, [0.5, 0.5, 0.0, 0.0, -0.0004])
        with pytest.raises(ValueError):
            reweighted_bound_entangled(tiles_upb, [0.3, 0.3, 0.3, 0.05, 0.1])
