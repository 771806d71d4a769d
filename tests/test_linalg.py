"""Core matrix algebra: tensor products, inner products, partial transposes."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from witgeo.linalg import (
    DensityState,
    _hermitian_deviation,
    hs_inner,
    is_hermitian,
    partial_transpose,
    tensor,
)

from hermitian import hermitian_eigen
from product_projection import product_matrix
from random_states import random_density

SZ = np.diag([1.0, -1.0]).astype(complex)

# Explicit two-qubit fixtures, written out so they are independent of the
# library's own constructors.
BELL = np.zeros((4, 4), dtype=complex)
BELL[0, 0] = BELL[0, 3] = BELL[3, 0] = BELL[3, 3] = 0.5

TAU0_2Q = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
TAU0_2Q[0, 3] = TAU0_2Q[3, 0] = 1 / 6


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        assert np.array_equal(tensor(SZ, SZ), np.diag([1, -1, -1, 1]))

    def test_big_endian_index_convention(self):
        # |0><0| (x) |1><1| puts its single 1 at row 0*2+1 = 1
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        out = tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_associative_and_bilinear(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert np.abs(left - right).max() <= 1e-12
            s, t = rng.normal(size=2)
            lin = tensor(s * a + t * b, c)
            assert np.abs(lin - (s * tensor(a, c) + t * tensor(b, c))).max() <= 1e-12

    def test_vectors_are_one_column_matrices(self):
        with pytest.raises(ValueError, match="v\\[:, None\\]"):
            tensor(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            tensor()

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        # per factor: rows, columns (1 is a one-column vector) and whether it is stacked
        factors=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3), st.booleans()), min_size=1, max_size=3
        ),
        length=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacks_match_kron_bit_for_bit(self, factors, length, seed):
        rng = np.random.default_rng(seed)
        mats = [
            rng.normal(size=(length, p, q) if stacked else (p, q))
            + 1j * rng.normal(size=(length, p, q) if stacked else (p, q))
            for p, q, stacked in factors
        ]
        out = tensor(*mats)
        if not any(stacked for _, _, stacked in factors):
            assert np.array_equal(out.view(np.uint64), reduce(np.kron, mats).view(np.uint64))
            return
        assert out.shape[0] == length
        for i in range(length):
            want = reduce(np.kron, [m[i] if m.ndim == 3 else m for m in mats])
            assert np.array_equal(np.ascontiguousarray(out[i]).view(np.uint64), want.view(np.uint64))


class TestHsInner:
    def test_identity(self):
        for n in (2, 3, 7):
            assert hs_inner(np.eye(n), np.eye(n)) == pytest.approx(n)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_bell_to_closest_separable_gap(self):
        # direct trace of the explicit 4x4 matrices
        diff = BELL - TAU0_2Q
        assert hs_inner(diff, diff).real == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = partial_transpose(tensor(a, b), [1], dims=(2, 3))
        assert np.abs(out - tensor(a, b.T)).max() <= 1e-14

    def test_bell_negative_eigenvalue(self):
        # independent oracle: transpose the second factor by hand
        manual = BELL.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        w = np.linalg.eigvalsh(manual)
        assert w[0] == pytest.approx(-0.5, abs=1e-12)
        out = partial_transpose(BELL, [1], dims=(2, 2))
        assert np.abs(out - manual).max() == 0.0

    def test_involution_and_trace(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = g + g.conj().T
        for parties in ([0], [2], [0, 2]):
            twice = partial_transpose(
                partial_transpose(h, parties, dims=(2, 2, 2)), parties, dims=(2, 2, 2)
            )
            assert np.abs(twice - h).max() <= 1e-14
            once = partial_transpose(h, parties, dims=(2, 2, 2))
            assert np.trace(once) == pytest.approx(np.trace(h))

    def test_invalid_party(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), [2], dims=(2, 2))
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), [], dims=(2, 2))

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = g + g.conj().T
        out = partial_transpose(h, [0], dims=(2, 3))
        assert np.abs(out - out.conj().T).max() <= 1e-14


class TestHermitianEigen:
    def test_diagonal(self):
        w, v = hermitian_eigen(SZ)
        assert np.allclose(w, [-1.0, 1.0])
        assert np.abs(v.conj().T @ v - np.eye(2)).max() <= 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        for n in (8, 33, 64):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (g + g.conj().T) / 2
            w, v = hermitian_eigen(h)
            assert np.all(np.diff(w) >= -1e-12)
            rebuilt = (v * w) @ v.conj().T
            assert np.abs(rebuilt - h).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestDensityState:
    def test_valid(self):
        st = DensityState(BELL, (2, 2))
        assert st.n == 4
        assert st.dims == (2, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityState(np.eye(4), (2, 2))

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match=r"^not Hermitian: deviation 1\.000e-01$"):
            DensityState(m, (2, 2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityState(BELL, (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("entries", [[(2, 2)], [(0, 1), (1, 0)]])
    def test_rejects_non_finite(self, bad, entries):
        m = np.eye(4, dtype=complex) / 4
        for entry in entries:
            m[entry] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityState(m, (2, 2))

    def test_matrix_is_readonly(self):
        st = DensityState(BELL, (2, 2))
        with pytest.raises(ValueError):
            st.mat[0, 0] = 17.0


class TestHermitianDeviation:
    # the check runs over row blocks of the upper triangle; sizes straddle the
    # block edges (one block up to N = 128, several from 129 on)
    @pytest.mark.parametrize("n", (1, 2, 127, 128, 129, 255, 256, 257, 300, 700))
    def test_equals_the_dense_maximum(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert _hermitian_deviation(a) == np.abs(a - a.conj().T).max()

    def test_nan_in_the_last_block_is_not_hermitian(self):
        # Python's max would skip it: max([1.0, nan]) is 1.0
        a = np.eye(700, dtype=complex)
        a[-1, -1] = np.nan
        assert np.isnan(_hermitian_deviation(a))
        assert not is_hermitian(a)
        assert is_hermitian(np.eye(700))


def test_product_matrix():
    m = product_matrix((np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    assert m[1, 1] == pytest.approx(1.0)
    assert np.trace(m) == pytest.approx(1.0)


def test_random_density_is_valid():
    rng = np.random.default_rng(5)
    st = DensityState(random_density(6, rng), (2, 3))
    assert abs(np.trace(st.mat) - 1) <= 1e-12
    assert np.linalg.eigvalsh(st.mat).min() > 0  # the constructor takes no spectrum
