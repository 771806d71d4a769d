"""Unextendible product basis pipeline: tiles family, far-face witness."""

import numpy as np
import pytest

from witgeo.linalg import SystemShape, hs_inner, partial_transpose
from witgeo.states import completely_random
from witgeo.upb import (
    UpbSet,
    bound_entangled,
    estimate_epsilon,
    far_face_witness,
    tiles,
    uniform_mixture,
)
from witgeo.witness import evaluate

from paper_states import reweighted_bound_entangled
from product_projection import product_matrix


@pytest.fixture(scope="module")
def tiles_upb():
    return tiles()


@pytest.fixture(scope="module")
def eps_estimate(tiles_upb):
    return estimate_epsilon(tiles_upb, restarts=64, seed=0)


class TestTilesFamily:
    def test_counts(self, tiles_upb):
        assert tiles_upb.m == 5
        assert tiles_upb.shape.size == 9

    def test_gram_is_identity(self, tiles_upb):
        assert np.abs(tiles_upb.gram() - np.eye(5)).max() <= 1e-12

    def test_rejects_non_orthonormal(self):
        e = np.eye(3)
        with pytest.raises(ValueError):
            UpbSet(SystemShape((3, 3)), ((e[0], e[0]), (e[0], e[0] + e[1])))

    def test_rejects_complete_family(self):
        e = np.eye(2)
        vecs = tuple((e[i], e[j]) for i in range(2) for j in range(2))
        with pytest.raises(ValueError):
            UpbSet(SystemShape((2, 2)), vecs)


class TestUniformMixture:
    def test_rank_and_purity(self, tiles_upb):
        mu = uniform_mixture(tiles_upb)
        w = np.linalg.eigvalsh(mu.mat)
        assert np.sum(w > 1e-10) == 5
        assert np.trace(mu.mat @ mu.mat).real == pytest.approx(1 / 5, abs=1e-12)
        assert np.trace(mu.mat).real == pytest.approx(1.0, abs=1e-12)


class TestBoundEntangled:
    def test_spectrum(self, tiles_upb):
        rho = bound_entangled(tiles_upb)
        w = np.linalg.eigvalsh(rho.mat)
        assert w.min() == pytest.approx(0.0, abs=1e-12)
        assert np.sum(w > 1e-10) == 4
        assert np.allclose(w[-4:], 0.25, atol=1e-12)

    def test_orthogonal_to_mixture(self, tiles_upb):
        mu = uniform_mixture(tiles_upb)
        rho = bound_entangled(tiles_upb)
        assert abs(hs_inner(mu.mat, rho.mat)) <= 1e-10

    def test_ppt_both_cuts(self, tiles_upb):
        rho = bound_entangled(tiles_upb)
        for cut in ([0], [1]):
            w = np.linalg.eigvalsh(partial_transpose(rho.mat, cut, rho.dims))
            assert w.min() >= -1e-10

    def test_rejects_indefinite_complement(self):
        # |1'> = |1> + 0.99e-10 |0> passes the Gram check (deviation 9.9e-11), and
        # the complement of the three projectors dips to about -1.4e-10
        e0, e1 = np.eye(2)
        tilted = e1 + 0.99e-10 * e0
        upb = UpbSet(SystemShape((2, 2)), ((e0, e0), (e0, tilted), (tilted, e0)))
        with pytest.raises(ValueError, match="complement state not PSD"):
            bound_entangled(upb)

    def test_random_state_on_segment(self, tiles_upb):
        # (N-m)/N * rho0 + m/N * mu0 recovers the maximally mixed state
        mu = uniform_mixture(tiles_upb)
        rho = bound_entangled(tiles_upb)
        mix = (4 / 9) * rho.mat + (5 / 9) * mu.mat
        assert np.abs(mix - completely_random((3, 3)).mat).max() <= 1e-12


class TestEpsilonEstimate:
    def test_bracket(self, eps_estimate, tiles_upb):
        eps = eps_estimate.epsilon
        assert 0 < eps < 5 / 9
        s0 = 1 - eps * 9 / 5
        assert 0 < s0 < 1

    def test_consensus(self, eps_estimate):
        assert eps_estimate.consensus >= 8

    def test_seed_stability(self, tiles_upb, eps_estimate):
        for seed in (1, 2):
            other = estimate_epsilon(tiles_upb, restarts=64, seed=seed)
            assert abs(other.epsilon - eps_estimate.epsilon) <= 1e-8

    def test_more_restarts_no_improvement(self, tiles_upb, eps_estimate):
        bigger = estimate_epsilon(tiles_upb, restarts=128, seed=0)
        assert eps_estimate.epsilon - bigger.epsilon <= 1e-9

    def test_argmin_attains(self, tiles_upb, eps_estimate):
        mu = uniform_mixture(tiles_upb)
        val = np.trace(mu.mat @ product_matrix(eps_estimate.argmin)).real
        assert val == pytest.approx(eps_estimate.epsilon / 5, abs=1e-12)

    def test_extendible_family_rejected(self):
        # computational-basis products are extendible: the overlap floor is 0
        e = np.eye(3)
        vecs = tuple((e[i], e[j]) for i, j in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
        extendible = UpbSet(SystemShape((3, 3)), vecs)
        with pytest.raises(ValueError, match="extendible"):
            estimate_epsilon(extendible, restarts=16, seed=3)


class TestFarFaceWitness:
    def test_detection_value(self, tiles_upb, eps_estimate):
        eps = eps_estimate.epsilon
        w = far_face_witness(tiles_upb, eps)
        want = -eps * eps * 9 / (5 * 4)
        assert evaluate(w, w.rho0) == pytest.approx(want, abs=1e-12)

    def test_detects_at_small_eps(self, tiles_upb):
        # Tr(W rho0) = -eps^2 N/(m(N-m)) sinks below the rounding of the hyperplane
        # form tau0 + c0 I - rho0 near eps = 1e-9; the closed form still resolves it
        for eps in np.logspace(-11, -8, 13):
            w = far_face_witness(tiles_upb, eps)
            assert evaluate(w, w.rho0) == pytest.approx(-eps * eps * 9 / 20, rel=1e-6)

    def test_vanishes_on_argmin(self, tiles_upb, eps_estimate):
        w = far_face_witness(tiles_upb, eps_estimate.epsilon)
        val = np.trace(w.matrix @ product_matrix(eps_estimate.argmin)).real
        assert abs(val) <= 1e-8

    def test_positive_on_sampled_products(self, tiles_upb, eps_estimate):
        w = far_face_witness(tiles_upb, eps_estimate.epsilon)
        rng = np.random.default_rng(4)
        worst = np.inf
        for _ in range(2000):
            a = rng.normal(size=3) + 1j * rng.normal(size=3)
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            f = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            worst = min(worst, (f.conj() @ w.matrix @ f).real)
        assert worst >= -1e-8

    def test_eps_bracket_enforced(self, tiles_upb):
        with pytest.raises(ValueError):
            far_face_witness(tiles_upb, 0.0)
        with pytest.raises(ValueError):
            far_face_witness(tiles_upb, 5 / 9)

    def test_segment_construction_coincides(self, tiles_upb, eps_estimate):
        # hyperplane route through tau0 = (1-s0) I/N + s0 rho0
        eps = eps_estimate.epsilon
        w = far_face_witness(tiles_upb, eps)
        n, m = 9, 5
        s0 = 1 - eps * n / m
        rho = bound_entangled(tiles_upb)
        tau_mat = (1 - s0) * np.eye(n) / n + s0 * rho.mat
        c0 = hs_inner(tau_mat, rho.mat - tau_mat).real
        other = tau_mat + c0 * np.eye(n) - rho.mat
        assert np.abs(w.matrix - other).max() <= 1e-10
        assert w.s0 == pytest.approx(s0)


class TestReweighted:
    def test_uniform_recovers_base_state(self, tiles_upb):
        rho_b = reweighted_bound_entangled(tiles_upb, [0.2] * 5)
        assert np.abs(rho_b.mat - bound_entangled(tiles_upb).mat).max() <= 1e-12

    def test_tilted_weights(self, tiles_upb, eps_estimate):
        rho_b = reweighted_bound_entangled(tiles_upb, [0.24, 0.19, 0.19, 0.19, 0.19])
        for cut in ([0], [1]):
            w = np.linalg.eigvalsh(partial_transpose(rho_b.mat, cut, rho_b.dims))
            assert w.min() >= -1e-10

    def test_detection_region(self, tiles_upb, eps_estimate):
        # Tr(W rho_b) < 0 iff Tr(mu0 rho_b) = (1 - b/m)/(N - b) < eps/m, so
        # only tilts with max weight within ~2% of uniform stay detected;
        # the frustum test (sufficient, a factor m stricter at p=1) implies
        # detection whenever it fires.
        from witgeo.witness import frustum_predicate

        eps = eps_estimate.epsilon
        wit = far_face_witness(tiles_upb, eps)
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
