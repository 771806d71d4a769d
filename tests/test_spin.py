"""Spin operator family: definitions, algebraic relations, eigenbases.

The operators themselves, their projection families and their algebra
live in ``spin_reference``; the library keeps only the closed-form
eigenbases, checked here against them.
"""

import numpy as np
import pytest

from witgeo.linalg import hs_inner
from witgeo.spin import eigenbasis, eta_power, is_prime

from hermitian import hermitian_eigen
from spin_reference import (
    column_projectors,
    projection_family,
    spin_expand,
    spin_matrix,
    spin_reconstruct,
    spin_relations,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

DIMS = (2, 3, 5, 7)


def scalar_projection(d, j, k, r):
    """Reference route: P_u(r) summed term by term from spin_matrix products."""
    j %= d
    k %= d
    p = np.zeros((d, d), dtype=complex)
    for m in range(d):
        exponent = m * r + j * k * (m * (m - 1) // 2)
        p += eta_power(d, exponent) * spin_matrix(d, (m * j) % d, (m * k) % d)
    return p / d


class TestSpinMatrix:
    def test_identity_index(self):
        for d in DIMS:
            assert np.array_equal(spin_matrix(d, 0, 0), np.eye(d))

    def test_qubit_reduction(self):
        # expanding the defining sum with eta = -1
        assert np.abs(spin_matrix(2, 0, 1) - SX).max() <= 1e-15
        assert np.abs(spin_matrix(2, 1, 0) - SZ).max() <= 1e-15

    def test_traceless_off_identity(self):
        for d in DIMS:
            for j in range(d):
                for k in range(d):
                    tr = np.trace(spin_matrix(d, j, k))
                    if (j, k) == (0, 0):
                        assert tr == pytest.approx(d)
                    else:
                        assert abs(tr) <= 1e-12

    def test_unitarity(self):
        for d in DIMS:
            for j in range(d):
                for k in range(d):
                    s = spin_matrix(d, j, k)
                    assert np.abs(s.conj().T @ s - np.eye(d)).max() <= 1e-12

    def test_orthogonality(self):
        for d in DIMS:
            idx = [(j, k) for j in range(d) for k in range(d)]
            mats = {u: spin_matrix(d, *u) for u in idx}
            for u in idx:
                for v in idx:
                    want = d if u == v else 0.0
                    assert hs_inner(mats[u], mats[v]) == pytest.approx(want, abs=1e-10)

    def test_qutrit_normalization(self):
        s12 = spin_matrix(3, 1, 2)
        s21 = spin_matrix(3, 2, 1)
        assert hs_inner(s12, s12) == pytest.approx(3.0, abs=1e-12)
        assert hs_inner(s12, s21) == pytest.approx(0.0, abs=1e-12)


class TestSpinExpand:
    def test_identity_state(self):
        for d in (2, 3, 5):
            coeffs = spin_expand(np.eye(d) / d, d)
            assert coeffs[(0, 0)] == pytest.approx(1.0)
            rest = max(abs(c) for u, c in coeffs.items() if u != (0, 0))
            assert rest <= 1e-12

    def test_basis_element(self):
        coeffs = spin_expand(spin_matrix(3, 1, 1), 3)
        assert coeffs[(1, 1)] == pytest.approx(3.0)
        rest = max(abs(c) for u, c in coeffs.items() if u != (1, 1))
        assert rest <= 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        alpha = (g + g.conj().T) / 2
        coeffs = spin_expand(alpha, 5)
        assert np.abs(spin_reconstruct(coeffs, 5) - alpha).max() <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spin_expand(np.eye(3), 4)


class TestProjectionFamily:
    def test_qubit_x_projection(self):
        # two-term sum with eta = -1
        assert np.abs(projection_family(2, 0, 1)[0] - (np.eye(2) + SX) / 2).max() <= 1e-15

    def test_identity_index_rejected(self):
        with pytest.raises(ValueError, match="identity index"):
            projection_family(3, 0, 0)

    def test_odd_odd_qubit_rejected(self):
        with pytest.raises(ValueError, match="unsupported index"):
            projection_family(2, 1, 1)

    def test_composite_dimension_rejected(self):
        with pytest.raises(ValueError, match="prime dimension"):
            projection_family(9, 0, 3)

    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_complete_orthogonal_family(self, d):
        for j in range(d):
            for k in range(d):
                if (j, k) == (0, 0):
                    continue
                fam = projection_family(d, j, k)
                total = np.zeros((d, d), dtype=complex)
                for r, p in enumerate(fam):
                    assert np.abs(p - p.conj().T).max() <= 1e-10
                    assert np.abs(p @ p - p).max() <= 1e-10
                    assert abs(np.trace(p) - 1) <= 1e-12
                    for s in range(r):
                        assert np.abs(p @ fam[s]).max() <= 1e-10
                    total += p
                assert np.abs(total - np.eye(d)).max() <= 1e-10

    @pytest.mark.parametrize("d", (3, 5, 7, 11, 13))
    def test_family_matches_scalar_route_bitwise(self, d):
        # the indices qudit_decomposition measures: (1,0), (d-1,0), (j,1)
        for idx in [(1, 0), (d - 1, 0)] + [(j, 1) for j in range(d)]:
            fam = projection_family(d, *idx)
            want = np.stack([scalar_projection(d, *idx, r) for r in range(d)])
            assert fam.shape == (d, d, d)
            assert fam.tobytes() == want.tobytes()

    def test_family_rejects_like_projection(self):
        for args in ((3, 0, 0), (2, 1, 1), (9, 0, 3)):
            with pytest.raises(ValueError):
                projection_family(*args)

    def test_rank_one_spectrum(self):
        w, _ = hermitian_eigen(projection_family(3, 1, 1)[2])
        assert np.allclose(w, [0, 0, 1], atol=1e-10)

    @pytest.mark.parametrize("d", (3, 5))
    def test_commutes_with_generator(self, d):
        for (j, k) in ((1, 1), (2, 1), (1, 0)):
            s = spin_matrix(d, j, k)
            for p in projection_family(d, j, k):
                assert np.abs(s @ p - p @ s).max() <= 1e-10


PRIMES = [d for d in range(2, 62) if is_prime(d)]


def _measured_indices(d):
    """The d+1 indices whose eigenbases qudit_decomposition measures."""
    return [(1, 0), (d - 1, 0)] + [(j, 1) for j in range(d)]


def _all_indices(d):
    """Every index with an eigenbasis: not the identity, not odd-odd at d = 2."""
    return [
        (j, k)
        for j in range(d)
        for k in range(d)
        if (j, k) != (0, 0) and not (d == 2 and j * k % 2)
    ]


class TestEigenbasis:
    @pytest.mark.parametrize("d", [d for d in PRIMES if d >= 3])
    def test_measured_projectors_match_reference(self, d):
        for idx in _measured_indices(d):
            got = column_projectors(eigenbasis(d, *idx))
            assert np.abs(got - projection_family(d, *idx)).max() <= 1e-14

    @pytest.mark.parametrize("d", [d for d in PRIMES if d <= 13])
    def test_every_index_matches_reference(self, d):
        for idx in _all_indices(d):
            basis = eigenbasis(d, *idx)
            assert basis.shape == (d, d)
            assert np.abs(basis.conj().T @ basis - np.eye(d)).max() <= 1e-14
            assert np.abs(column_projectors(basis) - projection_family(d, *idx)).max() <= 1e-14

    @pytest.mark.parametrize("d", [d for d in PRIMES if d <= 13])
    def test_column_r_has_eigenvalue_eta_minus_r(self, d):
        for idx in _all_indices(d):
            s, basis = spin_matrix(d, *idx), eigenbasis(d, *idx)
            for r in range(d):
                col = basis[:, r]
                assert np.abs(s @ col - eta_power(d, -r) * col).max() <= 1e-14

    def test_qubit_bases(self):
        # sigma_z: e_0 for +1, e_1 for -1; sigma_x: (1, +-1)/sqrt 2
        assert np.array_equal(eigenbasis(2, 1, 0), np.eye(2))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(eigenbasis(2, 0, 1) - h).max() <= 1e-16

    def test_index_reduced_modulo_d(self):
        assert np.array_equal(eigenbasis(5, 7, -4), eigenbasis(5, 2, 1))

    @pytest.mark.parametrize(
        "args, match",
        [
            ((3, 0, 0), "identity index"),
            ((5, 5, -5), "identity index"),
            ((2, 1, 1), "unsupported index"),
            ((9, 0, 3), "prime dimension"),
            ((4, 1, 0), "prime dimension"),
            ((1, 0, 1), "prime dimension"),
            ((0, 1, 1), "prime dimension"),
        ],
    )
    def test_rejected(self, args, match):
        with pytest.raises(ValueError, match=match):
            eigenbasis(*args)


class TestRelations:
    def test_small_dimensions_tight(self):
        assert max(spin_relations(2).values()) <= 1e-12
        assert max(spin_relations(3).values()) <= 1e-12

    @pytest.mark.parametrize("d", (5, 7))
    def test_larger_dimensions(self, d):
        report = spin_relations(d)
        assert set(report) == {"commutation", "factorization", "power", "adjoint"}
        assert max(report.values()) <= 1e-10


def test_is_prime():
    assert [n for n in range(2, 12) if is_prime(n)] == [2, 3, 5, 7, 11]
