"""Witness construction, the induced-inner-product identity, detection bounds."""

import numpy as np
import pytest

from witgeo.linalg import BadInput, DensityState, hs_inner
from witgeo.measurements import ghz_witness, standard_witness, three_qubit_witness
from witgeo.spin import is_prime
from witgeo.states import (
    closest_separable,
    completely_random,
    max_entangled,
    three_qubit_family,
    three_qubit_nearest,
)
from witgeo.upb import bound_entangled, far_face_witness, tiles, uniform_mixture
from witgeo.witness import (
    DETECTION_TOL,
    Witness,
    evaluate,
    frustum_predicate,
    identity_deviation,
    nearest_witness,
    qudit_detection_predicate,
    two_qubit_noise_threshold,
)

from paper_states import noise_ball, schmidt_state
from random_states import random_density, sampled_identity_deviation
from segment_reference import segment_state, segment_witness

# the two-qubit witness matrix: entries 0 and +-1/3
W2Q = np.zeros((4, 4))
W2Q[1, 1] = W2Q[2, 2] = 1 / 3
W2Q[0, 3] = W2Q[3, 0] = -1 / 3


def bell_witness():
    return nearest_witness(max_entangled(2), closest_separable(max_entangled(2)))


class TestNearestWitness:
    def test_two_qubit_closed_form(self):
        w = bell_witness()
        assert w.c0 == pytest.approx(1 / 6, abs=1e-12)
        assert np.abs(w.matrix - W2Q).max() <= 1e-12

    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_qudit_closed_form(self, d):
        w = nearest_witness(max_entangled(d), closest_separable(max_entangled(d)))
        assert w.c0 == pytest.approx((d - 1) / (d * (d + 1)), abs=1e-12)
        want = 2 / (1 + d) * np.eye(d * d) - d * closest_separable(max_entangled(d)).mat
        assert np.abs(w.matrix - want).max() <= 1e-12

    @pytest.mark.parametrize("t", (1 / 32, 1 / 16, 1 / 8))
    def test_three_qubit_constant(self, t):
        rho = three_qubit_family(0.0, t)
        tau = three_qubit_nearest(0.0, t)
        w = nearest_witness(rho, tau)
        assert w.c0 == pytest.approx(t / 4, abs=1e-12)

    def test_degenerate_rejected(self):
        tau = closest_separable(max_entangled(2))
        with pytest.raises(ValueError):
            nearest_witness(tau, tau)

    def test_detection_equals_negative_squared_distance(self):
        w = bell_witness()
        assert evaluate(w, w.rho0) == pytest.approx(-1 / 3, abs=1e-12)


class TestSegmentWitness:
    def test_two_qubit_substitution(self):
        w = segment_witness(max_entangled(2), closest_separable(max_entangled(2)), 1 / 3)
        assert np.abs(w.matrix - W2Q).max() <= 1e-12
        assert w.s0 == pytest.approx(1 / 3)
        # at s0 = 1/3 the segment point is the closest separable state itself
        tau_tilde = segment_state(max_entangled(2), 1 / 3)
        assert np.abs(tau_tilde.mat - closest_separable(max_entangled(2)).mat).max() <= 1e-15

    def test_qutrit_substitution(self):
        w1 = segment_witness(max_entangled(3), closest_separable(max_entangled(3)), 1 / 4)
        w2 = nearest_witness(max_entangled(3), closest_separable(max_entangled(3)))
        assert np.abs(w1.matrix - w2.matrix).max() <= 1e-12

    def test_random_pairs_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = DensityState(random_density(4, rng), (2, 2))
            tau = DensityState(random_density(4, rng), (2, 2))
            s0 = rng.uniform(0.05, 0.95)
            w1 = segment_witness(rho, tau, s0)
            w2 = nearest_witness(rho, tau)
            assert np.abs(w1.matrix - w2.matrix).max() <= 1e-12

    def test_s0_range(self):
        with pytest.raises(ValueError):
            segment_witness(max_entangled(2), closest_separable(max_entangled(2)), 1.0)


class TestEvaluate:
    def test_on_random_state(self):
        w = bell_witness()
        d0 = completely_random((2, 2))
        assert evaluate(w, d0) == pytest.approx(1 / 6, abs=1e-12)

    def test_on_reference_is_zero(self):
        w = bell_witness()
        assert evaluate(w, w.tau0) == pytest.approx(0.0, abs=1e-12)

    def test_induced_inner_product_identity(self):
        rng = np.random.default_rng(31)
        w = bell_witness()
        diff = w.rho0.mat - w.tau0.mat
        for _ in range(100):
            rho = DensityState(random_density(4, rng), (2, 2))
            lhs = evaluate(w, rho)
            rhs = -hs_inner(diff, rho.mat - w.tau0.mat).real
            assert abs(lhs - rhs) <= 1e-10

    def test_shape_mismatch(self):
        w = bell_witness()
        with pytest.raises(ValueError):
            evaluate(w, completely_random((3, 3)))

    def test_detects(self):
        w = bell_witness()
        assert evaluate(w, w.rho0) < -DETECTION_TOL
        assert not evaluate(w, completely_random((2, 2))) < -DETECTION_TOL


WITNESSES = {
    "bell2": lambda: standard_witness(2),
    "qudit5": lambda: standard_witness(5),
    "ghz4": lambda: ghz_witness(4).witness,
    "threeq": lambda: three_qubit_witness(0.02, 0.05),
}


class TestIdentityDeviation:
    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_constructed_witness_holds_exactly(self, name):
        assert identity_deviation(WITNESSES[name]()) <= 1e-15

    @pytest.mark.parametrize("name", sorted(WITNESSES))
    def test_perturbation_gives_its_spectral_radius(self, name):
        # W + E leaves the identity's residual at Tr(E rho), whose worst case
        # over states is the spectral radius of E; sampled states stay below it
        w = WITNESSES[name]()
        rng = np.random.default_rng(41)
        g = rng.normal(size=(w.n, w.n)) + 1j * rng.normal(size=(w.n, w.n))
        e = 1e-12 * (g + g.conj().T)
        perturbed = Witness(w.matrix + e, w.c0, w.rho0, w.tau0)
        exact = identity_deviation(perturbed)
        assert abs(exact - np.abs(np.linalg.eigvalsh(e)).max()) <= 1e-15
        assert sampled_identity_deviation(perturbed, rng) <= exact + 1e-14


class TestTwoQubitNoiseThreshold:
    def test_noiseless_symmetric(self):
        s = 1 / np.sqrt(2)
        assert two_qubit_noise_threshold(s, s, 0.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_with_noise(self):
        s = 1 / np.sqrt(2)
        assert two_qubit_noise_threshold(s, s, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_returns_no_guarantee(self):
        assert two_qubit_noise_threshold(1.0, 0.0, 0.0) >= 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            two_qubit_noise_threshold(0.9, 0.9, 0.0)

    def test_guarantee_monte_carlo(self):
        # above threshold, every noise draw in the ball must be detected
        w = bell_witness()
        for a in (0.4, 1 / np.sqrt(2), 0.9):
            b = np.sqrt(1 - a * a)
            for delta in (0.0, 0.08):
                pstar = two_qubit_noise_threshold(a, b, delta)
                p = pstar + 0.02
                assert p < 1.0
                target = schmidt_state([a, b])
                for seed in range(10):
                    sigma = (
                        completely_random((2, 2))
                        if delta == 0.0
                        else noise_ball((2, 2), delta, seed)
                    )
                    rho = DensityState(p * target.mat + (1 - p) * sigma.mat, target.dims)
                    assert evaluate(w, rho) < -DETECTION_TOL


class TestQuditDetectionPredicate:
    def test_reduces_to_two_qubit_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            amps = np.array([a, np.sqrt(1 - a * a)])
            p = rng.uniform(0.01, 0.99)
            delta = rng.uniform(0.0, 0.5)
            direct = qudit_detection_predicate(2, amps, p, delta)
            via_threshold = p > two_qubit_noise_threshold(amps[0], amps[1], delta)
            assert direct == via_threshold

    def test_qutrit_uniform_threshold(self):
        amps = np.full(3, 1 / np.sqrt(3))
        assert qudit_detection_predicate(3, amps, 0.26, 0.0)
        assert not qudit_detection_predicate(3, amps, 0.24, 0.0)

    def test_product_target_never_detected(self):
        amps = np.zeros(3)
        amps[0] = 1.0
        for p in (0.1, 0.5, 0.99):
            assert not qudit_detection_predicate(3, amps, p, 0.0)


class TestFrustumPredicate:
    def test_pure_endpoint(self):
        assert frustum_predicate(1.0, 0.0, 9, 5, 5, 0.028)

    def test_random_state_alone_fails(self):
        # p = 0 leaves 1/N < eps/m, impossible when s0 = 1 - eps*N/m > 0
        eps = 0.028
        assert not frustum_predicate(0.0, 0.0, 9, 5, 5, eps)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            p = rng.uniform(0, 1)
            b = rng.uniform(1, 5)
            eps = rng.uniform(1e-3, 0.5)
            deltas = np.sort(rng.uniform(0, 0.5, size=2))
            lo = frustum_predicate(p, deltas[0], 9, 5, b, eps)
            hi = frustum_predicate(p, deltas[1], 9, 5, b, eps)
            if hi:
                assert lo  # increasing noise can only lose detection

    def test_validation(self):
        with pytest.raises(ValueError):
            frustum_predicate(0.5, 0.0, 9, 5, 0.0, 0.028)
        with pytest.raises(ValueError):
            frustum_predicate(0.5, 0.0, 9, 5, 2.0, -1.0)


class TestWitnessInvariants:
    def test_stored_matrices_are_their_formulas(self):
        # each constructor stores the matrix of its own formula, bit for bit
        rho, tau = max_entangled(3), closest_separable(max_entangled(3))
        w = nearest_witness(rho, tau)
        assert np.array_equal(w.matrix, tau.mat + w.c0 * np.eye(9) - rho.mat)
        upb, eps = tiles(), 0.028416
        mu0 = uniform_mixture(upb)
        far = far_face_witness(upb, mu0, eps)
        closed = eps * 9 / 4 * (mu0.mat - eps / 5 * np.eye(9))
        assert np.array_equal(far.matrix, closed)
        assert np.array_equal(far.rho0.mat, bound_entangled(upb, mu0).mat)

    def test_closed_form_targets_detect_with_margin(self):
        # Tr(W rho0) = -||rho0 - tau0||^2 sits at least 1/3 below zero for every
        # closed-form target, so the detection check in Witness never binds on them
        witnesses = [standard_witness(2)]
        witnesses += [standard_witness(d) for d in range(3, 32) if is_prime(d)]
        witnesses += [ghz_witness(n).witness for n in range(2, 11)]
        for w in witnesses:
            assert evaluate(w, w.rho0) <= -0.33, w.dims

    def test_detection_rule_is_verify_rule(self):
        # a Witness exists only if Tr(W rho0) < -DETECTION_TOL, the rule of
        # verify's detects_target check; the message names value and tolerance
        w = bell_witness()  # Tr(W rho0) = -1/3; adding c*I moves it to c - 1/3
        mat = w.matrix + (1 / 3 - 0.5 * DETECTION_TOL) * np.eye(4)
        with pytest.raises(BadInput, match=r"Tr\(W rho0\) = -5.000e-11 is not below -1e-10"):
            Witness(mat, w.c0, w.rho0, w.tau0)
        mat = w.matrix + (1 / 3 - 2 * DETECTION_TOL) * np.eye(4)
        assert evaluate(Witness(mat, w.c0, w.rho0, w.tau0), w.rho0) < -DETECTION_TOL

    def test_three_qubit_detection_is_mean_independent(self):
        t = 0.08
        tau = three_qubit_nearest(0.0, t)
        w = nearest_witness(three_qubit_family(0.0, t), tau)
        for m in (-0.04, 0.0, 0.04):
            val = evaluate(w, three_qubit_family(m, t))
            assert val == pytest.approx(-2 * t * t, abs=1e-12)
