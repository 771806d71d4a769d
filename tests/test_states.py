"""State constructors and their closed-form cross-checks."""

import numpy as np
import pytest

from witgeo.linalg import hs_inner, partial_transpose, tensor
from witgeo.states import (
    PAULI_X,
    PAULI_Y,
    closest_separable,
    completely_random,
    ghz,
    ghz_corner_mix,
    ghz_dephased,
    ghz_segment_state,
    ghz_segment_weight,
    max_entangled,
    pauli_parity_state,
    schmidt_state,
    three_qubit_family,
    three_qubit_family_mt,
    three_qubit_separable_candidates,
)

from paper_states import noise_ball


class TestMaxEntangled:
    def test_qubit_matrix(self):
        m = max_entangled(2).mat
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
        assert np.abs(m - want).max() <= 1e-15

    def test_purity(self):
        m = max_entangled(3).mat
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_overlap_with_random_state(self):
        rho = max_entangled(3)
        d0 = completely_random((3, 3))
        assert hs_inner(rho.mat, d0.mat).real == pytest.approx(1 / 9, abs=1e-14)

    def test_partial_transpose_signature(self):
        # all cuts of the maximally entangled state dip to -1/d
        for d in (2, 3, 5):
            rho = max_entangled(d)
            pt = partial_transpose(rho.mat, [1], rho.dims)
            assert np.linalg.eigvalsh(pt).min() == pytest.approx(-1 / d, abs=1e-10)


class TestSchmidtState:
    def test_product_case_is_separable(self):
        st = schmidt_state([1.0, 0.0])
        pt = partial_transpose(st.mat, [1], st.dims)
        assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_two_qubit_amplitudes(self):
        a, b = 0.6, 0.8
        st = schmidt_state([a, b]).mat
        psi = np.array([a, 0, 0, b])
        assert np.abs(st - np.outer(psi, psi)).max() <= 1e-15

    def test_uniform_matches_max_entangled(self):
        st = schmidt_state([1 / np.sqrt(2)] * 2)
        assert np.abs(st.mat - max_entangled(2).mat).max() <= 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            schmidt_state([0.5, 0.5])


class TestNoiseBall:
    def test_stays_in_ball_and_valid(self):
        d0 = completely_random((2, 2))
        for seed in range(5):
            sigma = noise_ball((2, 2), 0.05, seed)
            assert np.linalg.norm(sigma.mat - d0.mat) < 0.05
            assert np.linalg.eigvalsh(sigma.mat).min() >= -1e-12

    def test_tiny_ball_approaches_center(self):
        sigma = noise_ball((2, 2), 1e-9, 0)
        assert np.linalg.norm(sigma.mat - completely_random((2, 2)).mat) < 1e-9

    def test_deterministic_and_seed_sensitive(self):
        a = noise_ball((2, 2), 0.1, 7)
        b = noise_ball((2, 2), 0.1, 7)
        c = noise_ball((2, 2), 0.1, 8)
        assert np.array_equal(a.mat, b.mat)
        assert np.abs(a.mat - c.mat).max() > 0


class TestClosestSeparable:
    def test_two_qubit_entries(self):
        tau = closest_separable(2).mat
        assert np.allclose(np.diag(tau).real, [1 / 3, 1 / 6, 1 / 6, 1 / 3], atol=1e-15)
        assert tau[0, 3] == pytest.approx(1 / 6)

    def test_overlap_value(self):
        # (d/(d+1)) * 1/d^2 + 1/(d+1) = 1/d
        for d in (2, 3, 5):
            tau = closest_separable(d)
            assert hs_inner(tau.mat, max_entangled(d).mat).real == pytest.approx(
                1 / d, abs=1e-12
            )

    def test_on_noise_segment(self):
        for d in (2, 3):
            s0 = 1 / (d + 1)
            seg = (1 - s0) * completely_random((d, d)).mat + s0 * max_entangled(d).mat
            assert np.abs(closest_separable(d).mat - seg).max() <= 1e-15


class TestGhzFamily:
    def test_two_party_coincidence(self):
        assert np.abs(ghz(2).mat - max_entangled(2).mat).max() == 0.0

    def test_three_party_entries(self):
        m = ghz(3).mat
        for i, j in ((0, 0), (0, 7), (7, 0), (7, 7)):
            assert m[i, j] == pytest.approx(0.5)
        assert np.abs(m).sum() == pytest.approx(2.0)

    def test_purity(self):
        m = ghz(4).mat
        assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_corner_mix_entries(self):
        q = ghz_corner_mix(2).mat
        assert np.allclose(np.diag(q).real, 0.25)
        assert q[0, 3] == pytest.approx(0.25)
        assert q[1, 2] == pytest.approx(0.0)
        d = ghz_dephased(2).mat
        assert np.allclose(np.diag(d).real, [0.5, 0, 0, 0.5])

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_corner_mix_is_psd_with_zero_floor(self, n):
        w = np.linalg.eigvalsh(ghz_corner_mix(n).mat)
        assert w.min() == pytest.approx(0.0, abs=1e-12)
        assert np.trace(ghz_corner_mix(n).mat).real == pytest.approx(1.0)

    @pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
    def test_segment_state_consistency(self, n):
        # constructor itself cross-checks the two forms
        st = ghz_segment_state(n)
        s0 = ghz_segment_weight(n)
        want = (1 - s0) * completely_random((2,) * n).mat + s0 * ghz(n).mat
        assert np.abs(st.mat - want).max() <= 1e-12

    def test_segment_weights(self):
        assert ghz_segment_weight(2) == pytest.approx(1 / 3)
        assert ghz_segment_weight(3) == pytest.approx(1 / 5)

    def test_two_party_segment_matches_closest_separable(self):
        assert np.abs(ghz_segment_state(2).mat - closest_separable(2).mat).max() <= 1e-15


def _pauli_eigvec(pauli, sign):
    """The eigenvector of a Pauli matrix with eigenvalue sign, from eigh."""
    w, v = np.linalg.eigh(pauli)
    return v[:, int(np.argmax(w)) if sign > 0 else int(np.argmin(w))]


class TestPauliParityState:
    # the four patterns of the three-qubit family and its decomposition
    @pytest.mark.parametrize("j,k,l,sign", [(1, 1, 1, +1), (2, 2, 1, -1), (2, 1, 2, -1), (1, 2, 2, +1)])
    def test_average_reproduces_matrix(self, j, k, l, sign):
        # the product expansion: an equal mixture of the products of sigma
        # eigenvectors with eigenvalues s1, s2 and sign*s1*s2
        paulis = {1: PAULI_X, 2: PAULI_Y}
        mat = pauli_parity_state(j, k, l, sign)
        want = (np.eye(8) + sign * tensor(paulis[j], paulis[k], paulis[l])) / 8
        assert np.abs(mat - want).max() <= 1e-14
        avg = np.zeros((8, 8), dtype=complex)
        for s1 in (1, -1):
            for s2 in (1, -1):
                v = tensor(
                    _pauli_eigvec(paulis[j], s1),
                    _pauli_eigvec(paulis[k], s2),
                    _pauli_eigvec(paulis[l], sign * s1 * s2),
                )
                avg += np.outer(v, v.conj()) / 4
        assert np.abs(avg - mat).max() <= 1e-12

    def test_trace_one(self):
        for sign in (1, -1):
            mat = pauli_parity_state(2, 1, 2, sign)
            assert np.trace(mat).real == pytest.approx(1.0)

    def test_pair_averages_to_random_state(self):
        plus = pauli_parity_state(1, 1, 1, +1)
        minus = pauli_parity_state(1, 1, 1, -1)
        assert np.abs((plus + minus) / 2 - np.eye(8) / 8).max() <= 1e-15

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            pauli_parity_state(3, 1, 1, +1)


class TestThreeQubitFamily:
    def test_four_vector_entries(self):
        st = three_qubit_family(1 / 8, -1 / 8)
        # anti-diagonal read center-outward: entries (3, 4), (2, 5), (1, 6), (0, 7)
        anti = [st.mat[3 - i, 4 + i].real for i in range(4)]
        assert anti == pytest.approx((-1 / 8, 1 / 8, 1 / 8, 1 / 8))
        assert np.allclose(np.diag(st.mat).real, 1 / 8)

    def test_zero_parameters_match_parity_mixture(self):
        # at c = d = 0 the family is the midpoint of two parity states
        st = three_qubit_family(0.0, 0.0)
        plus = pauli_parity_state(1, 1, 1, +1)
        minus = pauli_parity_state(2, 2, 1, -1)
        assert np.abs(st.mat - (plus + minus) / 2).max() <= 1e-14

    def test_equal_parameters_separable(self):
        # t = 0 members are explicit convex combinations of parity states
        for c in (0.125, 0.05, -0.1):
            st = three_qubit_family_mt(c, 0.0)
            plus = pauli_parity_state(1, 1, 1, +1)
            minus = pauli_parity_state(2, 2, 1, -1)
            mix = (0.5 + 4 * c) * plus + (0.5 - 4 * c) * minus
            assert np.abs(st.mat - mix).max() <= 1e-14

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            three_qubit_family(0.2, 0.0)

    def test_ppt_sample(self):
        for c, d in ((0.125, -0.125), (0.1, -0.05), (0.0, 0.125)):
            st = three_qubit_family(c, d)
            for cut in ([0], [1], [2]):
                w = np.linalg.eigvalsh(partial_transpose(st.mat, cut, st.dims))
                assert w.min() >= -1e-10


class TestThreeQubitSeparableCandidates:
    def test_gap_four_vector(self):
        t = 0.1
        rho = three_qubit_family_mt(0.0, t)
        cands = three_qubit_separable_candidates(0.0, t)
        gap = rho.mat - cands.nearest.mat
        assert np.allclose(np.diag(gap), 0.0, atol=1e-15)
        anti = [gap[3 - i, 4 + i].real for i in range(4)]
        assert anti == pytest.approx((-t / 2, t / 2, t / 2, t / 2))

    def test_segment_matches_parity_expansion(self):
        # independent route: normalized mixture of the four parity states
        t = 0.125
        cands = three_qubit_separable_candidates(0.0, t)
        p111 = pauli_parity_state(1, 1, 1, +1)
        m221 = pauli_parity_state(2, 2, 1, -1)
        m212 = pauli_parity_state(2, 1, 2, -1)
        p122 = pauli_parity_state(1, 2, 2, +1)
        want = (0.5 * (p111 + m221) + 4 * t * (m212 + p122)) / (1 + 8 * t)
        assert np.abs(cands.segment.mat - want).max() <= 1e-14

    def test_gap_independent_of_mean_parameter(self):
        t = 0.06
        base = three_qubit_family_mt(0.0, t).mat - three_qubit_separable_candidates(0.0, t).nearest.mat
        for m in (-0.05, 0.02, 0.06):
            gap = (
                three_qubit_family_mt(m, t).mat
                - three_qubit_separable_candidates(m, t).nearest.mat
            )
            assert np.abs(gap - base).max() <= 1e-14

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            three_qubit_separable_candidates(0.0, 0.0)
        with pytest.raises(ValueError):
            three_qubit_separable_candidates(0.0, -0.1)
