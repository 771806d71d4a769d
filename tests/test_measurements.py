"""Measurement settings, witness decompositions, finite-shot simulation."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from witgeo.linalg import DensityState, SystemShape, tensor
from witgeo.measurements import (
    _PAULI_BASES,
    MeasurementSetting,
    WitnessDecomposition,
    complete_basis,
    far_face_decomposition,
    ghz_decomposition,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
    two_qubit_decomposition,
)
from witgeo.spin import projection_family
from witgeo.states import (
    PAULI_X,
    PAULI_Y,
    closest_separable,
    completely_random,
    ghz,
    ghz_corner_mix,
    ghz_dephased,
    max_entangled,
    pauli_parity_state,
)
from witgeo.upb import estimate_epsilon, far_face_witness, tiles
from witgeo.witness import evaluate

from spin_reference import spin_matrix

W2Q = np.zeros((4, 4))
W2Q[1, 1] = W2Q[2, 2] = 1 / 3
W2Q[0, 3] = W2Q[3, 0] = -1 / 3


def all_settings(dec):
    return [s for _, s in dec.settings]


def setting_residuals(setting):
    comp = 0.0
    orth = 0.0
    for party in range(len(setting.party_bases)):
        d = setting.dims[party]
        u = setting.party_bases[party]
        projs = [np.outer(u[:, r], u[:, r].conj()) for r in range(d)]
        comp = max(comp, np.abs(sum(projs) - np.eye(d)).max())
        for r in range(d):
            for s in range(d):
                want = projs[r] if r == s else 0.0
                orth = max(orth, np.abs(projs[r] @ projs[s] - want).max())
    return comp, orth


def test_pauli_bases_match_eigh_columns():
    # the literal bases carry the phases and zero signs eigh gives for (I +- sigma)/2
    for axis, sigma in (("x", PAULI_X), ("y", PAULI_Y)):
        cols = [np.linalg.eigh((np.eye(2) + s * sigma) / 2)[1][:, -1] for s in (1, -1)]
        assert _PAULI_BASES[axis].tobytes() == np.column_stack(cols).tobytes()


class TestTwoQubit:
    def test_three_settings(self):
        assert len(two_qubit_decomposition().settings) == 3

    def test_setting_invariants(self):
        for setting in all_settings(two_qubit_decomposition()):
            comp, orth = setting_residuals(setting)
            assert comp <= 1e-10
            assert orth <= 1e-10

    def test_reassembled_separable_state(self):
        dec = two_qubit_decomposition()
        tau = sum(setting.weighted_sum() for setting in all_settings(dec)) / 3
        assert np.abs(tau - closest_separable(2).mat).max() <= 1e-12

    def test_reconstruction_matches_witness_matrix(self):
        dec = two_qubit_decomposition()
        assert np.abs(dec.matrix() - W2Q).max() <= 1e-12

    def test_expectation_through_settings(self):
        dec = two_qubit_decomposition()
        rho = max_entangled(2)
        # 2/3 - 2 * Tr(tau0 rho0) with the overlap equal to 1/2
        value = dec.identity_coeff + sum(
            sw * np.sum(s.weights * s.joint_probabilities(rho)) for sw, s in dec.settings
        )
        assert value == pytest.approx(-1 / 3, abs=1e-12)

    def test_correlation_pattern(self):
        dec = two_qubit_decomposition()
        weights = [s.weights for s in all_settings(dec)]
        for w in weights[:2]:  # z and x weight equal outcomes
            assert w[0, 0] == w[1, 1] == 0.5
            assert w[0, 1] == w[1, 0] == 0.0
        assert weights[2][0, 1] == weights[2][1, 0] == 0.5  # y weights opposite


class TestQudit:
    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_setting_count_and_reconstruction(self, d):
        dec = qudit_decomposition(d)
        assert len(dec.settings) == d + 1
        w = standard_witness(d)
        assert dec.residual(w) <= 1e-10

    def test_qutrit_reassembles_closed_form(self):
        dec = qudit_decomposition(3)
        tau = sum(s.weighted_sum() for s in all_settings(dec)) / 4
        assert np.abs(tau - closest_separable(3).mat).max() <= 1e-10

    @pytest.mark.parametrize("d", (3, 5))
    def test_per_setting_sum_matches_spin_route(self, d):
        # each setting's weighted sum equals its spin-basis double sum
        dec = qudit_decomposition(d)
        for j, (_, setting) in enumerate(dec.settings[1:]):
            want = sum(
                tensor(
                    spin_matrix(d, (k * j) % d, k),
                    spin_matrix(d, (k * d - k * j) % d, k),
                )
                for k in range(d)
            ) / (d * d)
            assert np.abs(setting.weighted_sum() - want).max() <= 1e-10
        first = dec.settings[0][1].weighted_sum()
        want = sum(
            tensor(spin_matrix(d, k, 0), spin_matrix(d, (d - k) % d, 0)) for k in range(d)
        ) / (d * d)
        assert np.abs(first - want).max() <= 1e-10

    def test_correlated_outcome_weights(self):
        dec = qudit_decomposition(3)
        for setting in all_settings(dec):
            w = setting.weights
            for r in range(3):
                for s in range(3):
                    want = 1 / 3 if s == (3 - r) % 3 else 0.0
                    assert w[r, s] == pytest.approx(want)

    def test_mutually_unbiased_bases(self):
        for d in (3, 5, 7, 11, 13):
            bases = [s.party_bases[0] for s in all_settings(qudit_decomposition(d))]
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    overlaps = np.abs(bases[i].conj().T @ bases[j]) ** 2
                    assert np.abs(overlaps - 1 / d).max() <= 1e-8

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            qudit_decomposition(9)
        with pytest.raises(ValueError):
            qudit_decomposition(4)

    def test_two_routes_to_qubit(self):
        assert np.abs(
            qudit_decomposition(2).matrix() - two_qubit_decomposition().matrix()
        ).max() == 0.0

    def test_eigenbases_diagonalize_generators(self):
        d = 3
        dec = qudit_decomposition(d)
        pairs = [((1, 0), (d - 1, 0))] + [((j, 1), ((d - j) % d, 1)) for j in range(d)]
        for (u, v), (_, setting) in zip(pairs, dec.settings):
            for party, idx in ((0, u), (1, v)):
                fam = projection_family(d, *idx)
                u = setting.party_bases[party]
                rebuilt = [np.outer(u[:, r], u[:, r].conj()) for r in range(d)]
                for p, q in zip(fam, rebuilt):
                    assert np.abs(p - q).max() <= 1e-10


class TestThreeQubit:
    def test_identity_coefficient_and_count(self):
        t = 1 / 8
        dec = three_qubit_decomposition(t)
        assert dec.identity_coeff == pytest.approx(1.25 * t, abs=1e-15)
        assert len(dec.settings) == 4

    def test_reconstruction_vs_hyperplane_route(self):
        t = 1 / 8
        dec = three_qubit_decomposition(t)
        w = three_qubit_witness(0.0, t)
        assert dec.residual(w) <= 1e-12

    def test_weighted_sums_are_parity_states(self):
        dec = three_qubit_decomposition(0.1)
        patterns = [(1, 1, 1, +1), (2, 2, 1, -1), (2, 1, 2, -1), (1, 2, 2, +1)]
        for (sw, setting), pattern in zip(dec.settings, patterns):
            want = pauli_parity_state(*pattern)
            assert np.abs(setting.weighted_sum() - want).max() <= 1e-12
            assert sw == pytest.approx(-0.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            three_qubit_decomposition(0.0)


class TestGhz:
    def test_two_party_coefficients(self):
        g = ghz_decomposition(2)
        assert g.a == pytest.approx(2 / 3, abs=1e-10)
        assert g.b == pytest.approx(2 / 3, abs=1e-10)
        assert g.c == pytest.approx(4 / 3, abs=1e-10)
        assert np.abs(g.witness.matrix - W2Q).max() <= 1e-10
        assert g.decomposition.residual(g.witness) <= 1e-10

    @pytest.mark.parametrize("n", (3, 4))
    def test_multiparty_witness(self, n):
        g = ghz_decomposition(n)
        assert min(g.a, g.b, g.c) > 0
        assert evaluate(g.witness, ghz(n)) < -1e-6
        assert evaluate(g.witness, completely_random((2,) * n)) >= 0
        assert g.decomposition.residual(g.witness) <= 1e-10
        assert len(g.decomposition.settings) == n + 1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_mixing_minimizes_distance(self, n):
        # closed-form vertex against a bounded scalar search on the same quadratic
        rho0, delta, corner = ghz(n).mat, ghz_dephased(n).mat, ghz_corner_mix(n).mat

        def dist2(x):
            gap = rho0 - (x * delta + (1 - x) * corner)
            return float(np.vdot(gap, gap).real)

        found = minimize_scalar(dist2, bounds=(0, 1), method="bounded", options={"xatol": 1e-12})
        assert ghz_decomposition(n).mixing == pytest.approx(found.x, abs=1e-7)

    def test_setting_invariants(self):
        for n in (2, 3):
            for setting in all_settings(ghz_decomposition(n).decomposition):
                comp, orth = setting_residuals(setting)
                assert comp <= 1e-10
                assert orth <= 1e-10


class TestFarFace:
    def test_reconstruction_and_count(self):
        upb = tiles()
        est = estimate_epsilon(upb, restarts=24, seed=3)
        w = far_face_witness(upb, est.epsilon)
        dec = far_face_decomposition(upb, est.epsilon)
        assert len(dec.settings) == upb.m
        assert dec.residual(w) <= 1e-12

    def test_complete_basis(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        q = complete_basis(v)
        assert np.abs(q.conj().T @ q - np.eye(3)).max() <= 1e-12
        assert np.abs(q[:, 0] - v).max() == 0.0
        assert np.array_equal(q, complete_basis(v))


class TestShotEstimate:
    def test_bell_state_is_deterministic(self):
        # every setting value is constant on the target state's support
        dec = two_qubit_decomposition()
        est = shot_estimate(dec, max_entangled(2), 1000, seed=5)
        assert est.estimate == pytest.approx(-1 / 3, abs=1e-15)
        assert est.stderr == 0.0

    def test_unbiased_on_noisy_state(self):
        dec = two_qubit_decomposition()
        d0 = completely_random((2, 2))
        est = shot_estimate(dec, d0, 100000, seed=6)
        assert est.stderr > 0
        assert abs(est.estimate - 1 / 6) <= 5 * est.stderr

    def test_bit_exact_reproducibility(self):
        dec = qudit_decomposition(3)
        mix = 0.6 * max_entangled(3).mat + 0.4 * completely_random((3, 3)).mat
        rho = DensityState(mix, SystemShape((3, 3)))
        a = shot_estimate(dec, rho, 5000, seed=17)
        b = shot_estimate(dec, rho, 5000, seed=17)
        assert a == b
        c = shot_estimate(dec, rho, 5000, seed=18)
        assert a != c

    def test_stderr_scaling(self):
        dec = two_qubit_decomposition()
        d0 = completely_random((2, 2))
        ladder = [1000, 10000, 100000]
        errs = [shot_estimate(dec, d0, s, seed=8).stderr for s in ladder]
        slope = np.polyfit(np.log10(ladder), np.log10(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            shot_estimate(two_qubit_decomposition(), max_entangled(2), 0, seed=1)

    def test_broken_setting_guard(self):
        # bypass validation to plant a non-normalized outcome distribution
        dec = two_qubit_decomposition()
        bad = MeasurementSetting.__new__(MeasurementSetting)
        u = np.eye(2, dtype=complex) * np.sqrt(0.9)  # not a basis: probs sum to 0.81
        object.__setattr__(bad, "party_bases", (u, u))
        object.__setattr__(bad, "weights", dec.settings[0][1].weights)
        broken = WitnessDecomposition(0.0, ((1.0, bad),))
        with pytest.raises(ValueError, match="sum"):
            shot_estimate(broken, max_entangled(2), 10, seed=1)

    def test_nan_setting_guard(self):
        # a NaN basis entry makes the probability sum NaN, which no tolerance test passes
        dec = two_qubit_decomposition()
        bad = MeasurementSetting.__new__(MeasurementSetting)
        u = np.eye(2, dtype=complex)
        u[0, 1] = np.nan
        object.__setattr__(bad, "party_bases", (u, u))
        object.__setattr__(bad, "weights", dec.settings[0][1].weights)
        broken = WitnessDecomposition(0.0, (dec.settings[0], (1.0, bad)))
        with pytest.raises(ValueError, match="setting 1 .* sum to nan"):
            shot_estimate(broken, max_entangled(2), 10, seed=1)


class TestMeasurementSettingValidation:
    def test_rejects_non_orthonormal_basis(self):
        u = np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            MeasurementSetting((u,), np.array([0.5, 0.5]))

    def test_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            MeasurementSetting(
                (np.eye(2, dtype=complex),), np.array([[0.5, 0.5], [0.0, 0.0]])
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_rejects_non_finite_basis(self, bad, entry):
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting((np.eye(2), u), np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        w = np.zeros((2, 2))
        w[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            MeasurementSetting((np.eye(2), np.eye(2)), w)

    def test_joint_probabilities_normalized(self):
        dec = qudit_decomposition(3)
        rho = max_entangled(3)
        for setting in all_settings(dec):
            p = setting.joint_probabilities(rho)
            assert p.shape == (3, 3)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p.min() >= -1e-12
