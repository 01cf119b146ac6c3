"""Multiplexing operator: orthogonality, inverses, determinism."""

import numpy as np
import pytest
from scipy.fft import dct, idct

from rmoamp import (
    InvalidDimensionError,
    build_rm_operator,
    dct_transform,
    rm_forward,
    rm_inverse,
)


def dense_forward_matrix(op):
    # column j of F is rm_forward applied to e_j
    cols = [rm_forward(op, row) for row in np.eye(op.shape[1])]
    return np.array(cols).T


class TestConstruction:
    def test_fields_are_valid(self):
        op = build_rm_operator(32, 12, seed=3)
        assert op.shape == (12, 32) and op.T.shape == (32, 12)
        assert np.all(np.abs(op.signs) == 1)
        assert op.perm.size == 12 and np.unique(op.perm).size == 12
        assert np.all((op.perm >= 0) & (op.perm < 32))

    def test_deterministic_in_seed(self):
        a = build_rm_operator(64, 48, seed=9)
        b = build_rm_operator(64, 48, seed=9)
        c = build_rm_operator(64, 48, seed=10)
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.perm, b.perm)
        assert not (np.array_equal(a.signs, c.signs)
                    and np.array_equal(a.perm, c.perm))

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidDimensionError):
            build_rm_operator(8, 9, seed=0)
        with pytest.raises(InvalidDimensionError):
            build_rm_operator(8, 0, seed=0)
        with pytest.raises(InvalidDimensionError):
            build_rm_operator(0, 0, seed=0)


class TestAlgebra:
    def test_forward_matches_dense_matrix(self):
        op = build_rm_operator(24, 10, seed=1)
        f = dense_forward_matrix(op)
        rng = np.random.Generator(np.random.Philox(5))
        for _ in range(5):
            s = rng.standard_normal(24)
            assert np.allclose(rm_forward(op, s), f @ s, atol=1e-12)

    def test_rows_orthonormal(self):
        # F F^T = I_M: the selected rows of an orthogonal matrix
        for n, m in [(16, 16), (16, 7), (40, 13)]:
            op = build_rm_operator(n, m, seed=2)
            f = dense_forward_matrix(op)
            assert np.max(np.abs(f @ f.T - np.eye(m))) < 1e-12

    def test_inverse_is_transpose_action(self):
        op = build_rm_operator(30, 11, seed=4)
        f = dense_forward_matrix(op)
        rng = np.random.Generator(np.random.Philox(6))
        u = rng.standard_normal(11)
        assert np.allclose(rm_inverse(op, u), f.T @ u, atol=1e-12)

    def test_round_trip_is_projection(self):
        # P = F^T F is idempotent; at m = n it is the identity
        op = build_rm_operator(32, 12, seed=7)
        rng = np.random.Generator(np.random.Philox(8))
        s = rng.standard_normal(32)
        p1 = rm_inverse(op, rm_forward(op, s))
        p2 = rm_inverse(op, rm_forward(op, p1))
        assert np.max(np.abs(p2 - p1)) < 1e-12

        full = build_rm_operator(32, 32, seed=7)
        assert np.max(np.abs(rm_inverse(full, rm_forward(full, s)) - s)) < 1e-12

    def test_forward_of_inverse_is_identity(self):
        op = build_rm_operator(32, 12, seed=7)
        rng = np.random.Generator(np.random.Philox(9))
        u = rng.standard_normal(12)
        assert np.max(np.abs(rm_forward(op, rm_inverse(op, u)) - u)) < 1e-12

    def test_energy_preserved_at_full_rate(self):
        op = build_rm_operator(64, 64, seed=3)
        rng = np.random.Generator(np.random.Philox(10))
        s = rng.standard_normal(64)
        assert np.isclose(np.sum(rm_forward(op, s) ** 2), np.sum(s ** 2))

    def test_shape_checks(self):
        op = build_rm_operator(16, 8, seed=0)
        with pytest.raises(InvalidDimensionError):
            rm_forward(op, np.zeros(15))
        with pytest.raises(InvalidDimensionError):
            rm_inverse(op, np.zeros(16))


class TestDct:
    def test_orthonormal_against_scipy(self):
        rng = np.random.Generator(np.random.Philox(11))
        s = rng.standard_normal(33)
        assert np.allclose(dct_transform(s), dct(s, norm="ortho"), atol=1e-13)
        assert np.allclose(dct_transform(dct_transform(s), inverse=True), s,
                           atol=1e-12)
        assert np.allclose(idct(dct_transform(s), norm="ortho"), s, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 205, 1024, 1434, 4096])
    def test_matches_scipy_on_vectors_and_columns(self, n):
        rng = np.random.Generator(np.random.Philox(13))
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            fwd = dct_transform(v)
            inv = dct_transform(v, inverse=True)
            assert fwd.shape == inv.shape == v.shape
            assert np.max(np.abs(fwd - dct(v, norm="ortho", axis=0))) < 1e-13
            assert np.max(np.abs(inv - idct(v, norm="ortho", axis=0))) < 1e-13
            assert np.max(np.abs(dct_transform(fwd, inverse=True) - v)) < 1e-13

    def test_rejects_empty_or_3d_input(self):
        with pytest.raises(InvalidDimensionError):
            dct_transform(np.zeros(0))
        with pytest.raises(InvalidDimensionError):
            dct_transform(np.zeros((2, 2, 2)))

    def test_energy_preserving(self):
        rng = np.random.Generator(np.random.Philox(12))
        s = rng.standard_normal(128)
        assert np.isclose(np.sum(dct_transform(s) ** 2), np.sum(s ** 2))
