"""Measurement settings, witness decompositions, finite-shot simulation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from witgeo import measurements
from witgeo.linalg import MAX_SIZE, DensityState, tensor
from witgeo.measurements import (
    _xy_axis_basis,
    MeasurementSetting,
    WitnessDecomposition,
    complete_basis,
    far_face_decomposition,
    ghz_decomposition,
    ghz_settings,
    ghz_witness,
    qudit_decomposition,
    shot_estimate,
    standard_witness,
    three_qubit_decomposition,
    three_qubit_witness,
)
from witgeo.states import (
    PAULI_X,
    PAULI_Y,
    closest_separable,
    completely_random,
    ghz,
    max_entangled,
    pauli_parity_state,
)
from witgeo.oracle import SeeSawConfig
from witgeo.upb import estimate_epsilon, far_face_witness, tiles, uniform_mixture
from witgeo.witness import evaluate

import setting_reference
from ghz_reference import corner_mix, dephased
from random_states import random_density
from spin_reference import column_projectors, projection_family, spin_matrix

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


def test_axis_bases_project_onto_pauli_eigenvectors():
    # phases are free; each column's projector is (I +- sigma)/2, the +1 eigenvector first
    for phi, sigma in ((0.0, PAULI_X), (np.pi / 2, PAULI_Y)):
        u = _xy_axis_basis(phi)
        for col, sign in enumerate((1, -1)):
            proj = np.outer(u[:, col], u[:, col].conj())
            assert np.abs(proj - (np.eye(2) + sign * sigma) / 2).max() <= 1e-15


class TestTwoQubit:
    def test_three_settings(self):
        assert len(qudit_decomposition(2).settings) == 3

    def test_setting_invariants(self):
        for setting in all_settings(qudit_decomposition(2)):
            comp, orth = setting_residuals(setting)
            assert comp <= 1e-10
            assert orth <= 1e-10

    def test_reassembled_separable_state(self):
        dec = qudit_decomposition(2)
        tau = sum(setting.weighted_sum() for setting in all_settings(dec)) / 3
        assert np.abs(tau - closest_separable(max_entangled(2)).mat).max() <= 1e-12

    def test_reconstruction_matches_witness_matrix(self):
        dec = qudit_decomposition(2)
        assert np.abs(dec.matrix() - W2Q).max() <= 1e-12

    def test_expectation_through_settings(self):
        dec = qudit_decomposition(2)
        rho = max_entangled(2)
        # 2/3 - 2 * Tr(tau0 rho0) with the overlap equal to 1/2
        value = dec.identity_coeff + sum(
            sw * np.sum(s.weights * s.joint_probabilities(rho)) for sw, s in dec.settings
        )
        assert value == pytest.approx(-1 / 3, abs=1e-12)

    def test_correlation_pattern(self):
        dec = qudit_decomposition(2)
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
        assert np.abs(tau - closest_separable(max_entangled(3)).mat).max() <= 1e-10

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
        # the GHZ settings of n = 2 against the qudit tau0 and the GHZ route's own check
        got = qudit_decomposition(2).matrix()
        assert np.abs(got - standard_witness(2).matrix).max() <= 1e-15
        assert np.abs(got - ghz_decomposition(2).decomposition.matrix()).max() <= 1e-15

    @pytest.mark.parametrize("d", (3, 5, 7, 11, 13, 31))
    def test_eigenbases_diagonalize_generators(self, d):
        # outcome r of each party is the paper's projection P_u(r)
        dec = qudit_decomposition(d)
        pairs = [((1, 0), (d - 1, 0))] + [((j, 1), ((d - j) % d, 1)) for j in range(d)]
        for (u, v), (_, setting) in zip(pairs, dec.settings, strict=True):
            for basis, idx in zip(setting.party_bases, (u, v), strict=True):
                rebuilt = column_projectors(basis)
                assert np.abs(rebuilt - projection_family(d, *idx)).max() <= 1e-14


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
        g = ghz_witness(2)
        assert g.a == pytest.approx(2 / 3, abs=1e-10)
        assert g.b == pytest.approx(2 / 3, abs=1e-10)
        assert g.c == pytest.approx(4 / 3, abs=1e-10)
        assert np.abs(g.witness.matrix - W2Q).max() <= 1e-10
        assert ghz_settings(g).residual(g.witness) <= 1e-10

    @pytest.mark.parametrize("n", (3, 4))
    def test_multiparty_witness(self, n):
        g = ghz_witness(n)
        dec = ghz_settings(g)
        assert min(g.a, g.b, g.c) > 0
        assert evaluate(g.witness, ghz(n)) < -1e-6
        assert evaluate(g.witness, completely_random((2,) * n)) >= 0
        assert dec.residual(g.witness) <= 1e-10
        assert len(dec.settings) == n + 1

    @pytest.mark.parametrize("n", range(2, MAX_SIZE.bit_length()))
    def test_coefficients_positive(self, n):
        # every n the CLI admits; x in (0, 1) makes b and c positive, a comes through c0
        g = ghz_witness(n)
        assert min(g.a, g.b, g.c) > 0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_mixing_minimizes_distance(self, n):
        # closed-form vertex against the dense vertex formula and a bounded
        # scalar search on the same quadratic
        size = 2**n
        mixing = ghz_witness(n).mixing
        assert mixing == (size - 2) ** 2 / (size * size - 2 * size + 4)
        rho0, delta, corner = ghz(n).mat, dephased(n), corner_mix(n)
        diff = delta - corner
        vertex = np.vdot(diff, rho0 - corner).real / np.vdot(diff, diff).real
        assert mixing == pytest.approx(vertex, abs=1e-15)

        def dist2(x):
            gap = rho0 - (x * delta + (1 - x) * corner)
            return float(np.vdot(gap, gap).real)

        found = minimize_scalar(dist2, bounds=(0, 1), method="bounded", options={"xatol": 1e-12})
        assert mixing == pytest.approx(found.x, abs=1e-7)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_equatorial_settings_reproduce_corner(self, n):
        # the identity behind the n equatorial settings; the commands check
        # the settings only through the reconstruction residual
        equatorial = ghz_settings(ghz_witness(n)).settings[1:]
        mean = sum(setting.weighted_sum() for _, setting in equatorial) / n
        assert np.abs(mean - corner_mix(n)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_x_forms_match_dense_forms(self, n):
        # tau0 and W are built from their X entries; the dense convex forms
        # are the reference, and must agree bit for bit
        g = ghz_witness(n)
        tau0 = g.mixing * dephased(n) + (1 - g.mixing) * corner_mix(n)
        assert np.array_equal(g.witness.tau0.mat, tau0)
        dense = tau0 + g.witness.c0 * np.eye(2**n) - ghz(n).mat
        assert np.array_equal(g.witness.matrix, dense)

    def test_witness_peak_memory(self):
        # rho0, tau0 and W, each formed once and adopted by its object rather
        # than copied, plus the temporaries of one inner product
        full = 16 * 4**10
        tracemalloc.start()
        try:
            ghz_witness(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * full, f"{peak / full:.2f} full-size matrices"

    def test_setting_fault_fails(self, monkeypatch):
        axis_basis = measurements._xy_axis_basis
        monkeypatch.setattr(measurements, "_xy_axis_basis", lambda phi: axis_basis(1.01 * phi))
        with pytest.raises(AssertionError, match="reconstruct"):
            ghz_decomposition(4)

    def test_setting_invariants(self):
        for n in (2, 3):
            for setting in all_settings(ghz_decomposition(n).decomposition):
                comp, orth = setting_residuals(setting)
                assert comp <= 1e-10
                assert orth <= 1e-10


class TestFarFace:
    def test_reconstruction_and_count(self):
        upb = tiles()
        mu0 = uniform_mixture(upb)
        eps, _ = estimate_epsilon(upb, mu0, SeeSawConfig(restarts=24, seed=3))
        w = far_face_witness(upb, mu0, eps)
        dec = far_face_decomposition(upb, eps)
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
        dec = qudit_decomposition(2)
        est = shot_estimate(dec, max_entangled(2), 1000, seed=5)
        assert est.estimate == pytest.approx(-1 / 3, abs=1e-15)
        assert est.stderr == 0.0

    def test_unbiased_on_noisy_state(self):
        dec = qudit_decomposition(2)
        d0 = completely_random((2, 2))
        est = shot_estimate(dec, d0, 100000, seed=6)
        assert est.stderr > 0
        assert abs(est.estimate - 1 / 6) <= 5 * est.stderr

    def test_bit_exact_reproducibility(self):
        dec = qudit_decomposition(3)
        mix = 0.6 * max_entangled(3).mat + 0.4 * completely_random((3, 3)).mat
        rho = DensityState(mix, (3, 3))
        a = shot_estimate(dec, rho, 5000, seed=17)
        b = shot_estimate(dec, rho, 5000, seed=17)
        assert a == b
        c = shot_estimate(dec, rho, 5000, seed=18)
        assert a != c

    def test_stderr_scaling(self):
        dec = qudit_decomposition(2)
        d0 = completely_random((2, 2))
        ladder = [1000, 10000, 100000]
        errs = [shot_estimate(dec, d0, s, seed=8).stderr for s in ladder]
        slope = np.polyfit(np.log10(ladder), np.log10(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            shot_estimate(qudit_decomposition(2), max_entangled(2), 0, seed=1)

    def test_broken_setting_guard(self):
        # a setting does not check its bases: plant a non-normalized outcome distribution
        dec = qudit_decomposition(2)
        u = np.eye(2, dtype=complex) * np.sqrt(0.9)  # not a basis: probs sum to 0.81
        bad = MeasurementSetting((u, u), dec.settings[0][1].weights)
        broken = WitnessDecomposition(0.0, ((1.0, bad),))
        with pytest.raises(ValueError, match="sum"):
            shot_estimate(broken, max_entangled(2), 10, seed=1)

    def test_nan_setting_guard(self):
        # a NaN basis entry makes the probability sum NaN, which no tolerance test passes
        dec = qudit_decomposition(2)
        u = np.eye(2, dtype=complex)
        u[0, 1] = np.nan
        bad = MeasurementSetting((u, u), dec.settings[0][1].weights)
        broken = WitnessDecomposition(0.0, (dec.settings[0], (1.0, bad)))
        with pytest.raises(ValueError, match="setting 1 .* sum to nan"):
            shot_estimate(broken, max_entangled(2), 10, seed=1)


class TestMeasurementSettingValidation:
    # a setting checks only its table shape: the program's bases are unitary by
    # their closed forms (tests/test_bases.py) and stored ones are checked by
    # the reader (tests/test_cli.py, test_stored_basis_is_checked_by_the_reader)
    def test_rejects_wrong_weight_shape(self):
        with pytest.raises(ValueError):
            MeasurementSetting(
                (np.eye(2, dtype=complex),), np.array([[0.5, 0.5], [0.0, 0.0]])
            )

    def test_joint_probabilities_normalized(self):
        dec = qudit_decomposition(3)
        rho = max_entangled(3)
        for setting in all_settings(dec):
            p = setting.joint_probabilities(rho)
            assert p.shape == (3, 3)
            assert p.base is None  # owns its data: no view that keeps the N^2 scratch alive
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert p.min() >= -1e-12

    def test_joint_probabilities_reject_permuted_dims(self):
        # same N = 6, other local shape: a reshape alone would read rows as the wrong parties
        setting = MeasurementSetting((np.eye(2), np.eye(3)), np.zeros((2, 3)))
        rho = DensityState(np.eye(6) / 6, (3, 2))
        with pytest.raises(ValueError, match="state shape"):
            setting.joint_probabilities(rho)


def _random_basis(d, rng):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 2, 2), (2, 5, 3), (5, 5), (2,) * 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_joint_isometry_reference(dims, seed):
    rng = np.random.default_rng(seed)
    setting = MeasurementSetting(
        tuple(_random_basis(d, rng) for d in dims), rng.normal(size=dims)
    )
    n = int(np.prod(dims))
    rho = DensityState(random_density(n, rng), dims)

    m = setting.weighted_sum()
    assert np.abs(m - setting_reference.weighted_sum(setting)).max() <= 1e-12
    assert np.abs(m - m.conj().T).max() <= 1e-12

    p = setting.joint_probabilities(rho)
    assert p.shape == dims
    assert np.abs(p - setting_reference.joint_probabilities(setting, rho.mat)).max() <= 1e-12
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
