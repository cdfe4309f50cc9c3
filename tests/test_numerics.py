import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randfnn.errors import ParameterError, ShapeError
from randfnn.numerics import (
    as_matrix,
    fit_hyperplane,
    hyperplane_factors,
    knn,
    neighborhood_slopes,
    pinv_apply,
    pinv_factor,
    pinv_solve,
    sigmoid,
)


def ridge_solve(H, Y, lam=1e-10):
    """Normal-equations oracle: (H'H + lam I)^-1 H'Y."""
    m = H.shape[1]
    return np.linalg.solve(H.T @ H + lam * np.eye(m), H.T @ Y)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation(self):
        assert abs(sigmoid(40.0) - 1.0) < 1e-15
        assert sigmoid(-40.0) < 1e-15

    def test_known_value(self):
        # 1/(1+exp(-1))
        assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    @given(st.floats(min_value=-700, max_value=700, allow_nan=False))
    def test_symmetry(self, z):
        assert abs(sigmoid(-z) - (1.0 - sigmoid(z))) <= 1e-15

    def test_monotone_and_bounded(self):
        z = np.linspace(-600, 600, 4001)
        s = sigmoid(z)
        assert np.all(np.diff(s) >= 0)
        assert np.all((s >= 0) & (s <= 1))

    def test_vectorized(self):
        z = np.array([[0.0, 1.0], [-1.0, 2.0]])
        out = sigmoid(z)
        assert out.shape == z.shape
        assert out[0, 0] == 0.5

    def test_bits_of_the_textbook_formula_and_input_kept(self):
        z = np.random.default_rng(0).normal(scale=200.0, size=(3, 40, 7))
        z[0, 0, :3] = (-1e4, 1e4, -0.0)
        kept = z.copy()
        expected = 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
        assert sigmoid(z).tobytes() == expected.tobytes()
        assert z.tobytes() == kept.tobytes()
        for v in (0.3, -2, np.float64(7.5)):
            assert type(sigmoid(v)) is np.float64
            assert sigmoid(v) == 1.0 / (1.0 + np.exp(-np.float64(v)))


class TestPinvSolve:
    def test_identity(self):
        y = np.arange(12, dtype=float).reshape(4, 3)
        np.testing.assert_allclose(pinv_solve(np.eye(4), y), y, atol=1e-12)

    def test_matches_ridge_oracle(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 2))
        beta = pinv_solve(h, y)
        np.testing.assert_allclose(beta, ridge_solve(h, y), atol=1e-6)

    def test_duplicated_column_rank_deficient(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(10, 4))
        h[:, 3] = h[:, 1]
        y = rng.normal(size=(10, 2))
        beta = pinv_solve(h, y)
        assert np.all(np.isfinite(beta))
        res = np.linalg.norm(h @ beta - y)
        res_oracle = np.linalg.norm(h @ ridge_solve(h, y) - y)
        assert abs(res - res_oracle) < 1e-6

    def test_residual_optimality(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(12, 5))
        y = rng.normal(size=(12, 3))
        beta = pinv_solve(h, y)
        base = np.linalg.norm(h @ beta - y)
        for _ in range(25):
            other = beta + rng.normal(size=beta.shape) * rng.choice([1e-3, 0.1, 1.0])
            assert base <= np.linalg.norm(h @ other - y) + 1e-8

    def test_interpolation_regime(self):
        # full row rank, more columns than rows
        rng = np.random.default_rng(5)
        h = rng.normal(size=(6, 15))
        y = rng.normal(size=(6, 4))
        beta = pinv_solve(h, y)
        np.testing.assert_allclose(h @ beta, y, atol=1e-6)

    def test_minimum_norm_among_solutions(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 10))
        y = rng.normal(size=(4, 2))
        beta = pinv_solve(h, y)
        null = np.eye(10) - np.linalg.pinv(h) @ h  # projector onto null space
        for _ in range(10):
            other = beta + null @ rng.normal(size=beta.shape)
            assert np.linalg.norm(beta) <= np.linalg.norm(other) + 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pinv_solve(np.ones((3, 2)), np.ones((4, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            pinv_solve(np.array([[np.nan, 1.0]]), np.ones((1, 1)))

    def test_zero_matrix(self):
        beta = pinv_solve(np.zeros((3, 2)), np.ones((3, 1)))
        np.testing.assert_array_equal(beta, np.zeros((2, 1)))


class TestPinvFactorApply:
    """pinv_solve runs as a factor step and an apply step; ddm reuses one
    factorization for several right-hand sides."""

    @staticmethod
    def graded(s, seed=0, rows=9):
        # H = U diag(s) V' with orthonormal U, V: its singular values are s
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(rows, len(s))))
        v, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
        return u @ np.diag(s) @ v.T, u, v

    def test_rank_cutoff_drops_tiny_singular_values(self):
        h, u, v = self.graded([1.0, 1e-3, 1e-17])  # 1e-17 < 9 * eps
        y = np.random.default_rng(1).normal(size=(9, 2))
        beta = pinv_solve(h, y)
        oracle = v[:, :2] @ np.diag([1.0, 1e3]) @ u[:, :2].T @ y
        np.testing.assert_allclose(beta, oracle, rtol=1e-9, atol=1e-9)
        assert np.abs(v[:, 2] @ beta).max() < 1e-9  # nothing in the null direction

    def test_stack_gives_each_matrix_its_own_cutoff_and_bits(self):
        # scaled by 1e-20, the second matrix keeps all three singular values
        # under its own cutoff; the first's s_max would cut every one of them
        stack = np.stack([self.graded([1.0, 1e-3, 1e-17], seed=2)[0],
                          1e-20 * self.graded([1.0, 1e-3, 1e-5], seed=3)[0],
                          self.graded([2.0, 1.0, 0.5], seed=4)[0]])
        y = np.random.default_rng(3).normal(size=(9, 4))
        factors = pinv_factor(stack)
        assert [np.count_nonzero(s_inv) for s_inv in factors[1]] == [2, 3, 3]
        solutions = pinv_apply(factors, y)
        for i, h in enumerate(stack):
            for stacked, alone in zip(factors, pinv_factor(h)):
                assert stacked[i].tobytes() == alone.tobytes()
            assert solutions[i].tobytes() == pinv_solve(h, y).tobytes()

    def test_steps_give_pinv_solve_bits(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(32, 25))
        h[:, 7] = h[:, 3]  # rank deficient
        factors = pinv_factor(h)
        for _ in range(3):
            y = rng.normal(size=(32, 1))
            assert pinv_apply(factors, y).tobytes() == pinv_solve(h, y).tobytes()

    def test_zero_matrix_gives_positive_zeros(self):
        beta = pinv_apply(pinv_factor(np.zeros((3, 2))), -np.ones((3, 1)))
        assert beta.shape == (2, 1)
        assert beta.tobytes() == np.zeros((2, 1)).tobytes()

    def test_apply_checks_its_input(self):
        factors = pinv_factor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            pinv_apply(factors, np.ones((4, 1)))
        with pytest.raises(ParameterError):
            pinv_apply(factors, np.array([[1.0], [np.inf], [0.0]]))

    def test_stacked_columns_give_per_column_bits(self):
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(5, 12, 7))
        stack[2, :, 4] = stack[2, :, 1]  # rank deficient
        y = rng.normal(size=(5, 3, 12, 1))  # three single-column right-hand sides per matrix
        factors = pinv_factor(stack)
        got = pinv_apply(tuple(f[:, None] for f in factors), y)
        assert got.shape == (5, 3, 7, 1)
        for i, h in enumerate(stack):
            alone = pinv_factor(h)
            for c in range(3):
                assert got[i, c].tobytes() == pinv_apply(alone, y[i, c]).tobytes()

    def test_apply_checks_a_stacked_input(self):
        factors = pinv_factor(np.ones((2, 3, 2)))
        with pytest.raises(ShapeError):
            pinv_apply(factors, np.ones((2, 4, 1)))
        with pytest.raises(ShapeError):
            pinv_apply(factors, np.ones(3))
        y = np.ones((2, 3, 1))
        y[1, 2, 0] = np.nan
        with pytest.raises(ParameterError):
            pinv_apply(factors, y)

    def test_stacked_hyperplane_factors_match_each_set(self):
        rng = np.random.default_rng(10)
        sets = rng.normal(size=(2, 4, 9, 5))
        sets[1, 3, 6] = sets[1, 3, 2]
        stacked = hyperplane_factors(sets)
        for idx in np.ndindex(2, 4):
            for a, b in zip(stacked, hyperplane_factors(sets[idx])):
                assert a[idx].tobytes() == b.tobytes()

    def test_hyperplane_factors_solve_fit_hyperplane(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 5))
        t = rng.normal(size=12)
        coeffs, intercept = fit_hyperplane(x, t)
        sol = pinv_apply(hyperplane_factors(x), t[:, None])[:, 0]
        assert sol[:-1].tobytes() == coeffs.tobytes() and sol[-1] == intercept


class TestKnn:
    def test_ordering(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        np.testing.assert_array_equal(knn(pts, [0.0], 2), [1, 2])

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(knn(pts, [0.0, 0.0], 2), [0, 1])

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(50, 24))
        q = rng.normal(size=24)
        got = knn(pts, q, 5)
        oracle = np.argsort([np.linalg.norm(p - q) for p in pts], kind="stable")[:5]
        np.testing.assert_array_equal(got, oracle)

    def test_self_excluded_when_member(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 4))
        got = knn(pts, pts[3], 9)
        assert 3 not in got
        assert sorted(got) == [0, 1, 2, 4, 5, 6, 7, 8, 9]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(20, 6))
        q = rng.normal(size=6)
        base = knn(pts, q, 4)
        perm = rng.permutation(20)
        permuted = knn(pts[perm], q, 4)
        np.testing.assert_array_equal(perm[permuted], base)

    def test_k_too_large(self):
        pts = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(ParameterError):
            knn(pts, [9.0, 9.0], 4)
        with pytest.raises(ParameterError):
            knn(pts, pts[0], 3)  # self excluded leaves only 2

    def test_stack_rows_match_single_queries(self):
        # lattice points: exact duplicates and distance ties everywhere
        rng = np.random.default_rng(11)
        pts = rng.integers(-2, 3, size=(40, 2)).astype(float)
        first_equal = [np.flatnonzero((pts == p).all(axis=1))[0] for p in pts]
        assert any(j != i for i, j in enumerate(first_equal))  # not the query's own row
        d = np.sort(np.linalg.norm(pts[None] - pts[:, None], axis=2), axis=1)
        assert (d[:, 1:] == d[:, :-1]).any()
        queries = np.vstack([pts, pts[:10] + 0.5])  # members, then non-members
        for k in range(1, len(pts)):  # up to N - 1
            got = knn(pts, queries, k)
            assert got.shape == (len(queries), k)
            for q, row in zip(queries, got):
                assert row.tolist() == knn(pts, q, k).tolist()

    def test_stack_k_bounds(self):
        pts = np.arange(10.0).reshape(5, 2)
        assert knn(pts, pts + 0.5, 5).shape == (5, 5)  # no query is a member
        assert knn(pts, pts[:0], 3).shape == (0, 3)
        with pytest.raises(ParameterError, match=r"k=5 not in \[1, 4\]"):
            knn(pts, np.vstack([pts[:1], pts + 0.5]), 5)
        with pytest.raises(ShapeError):
            knn(pts, np.ones((2, 3)), 1)


class TestFitHyperplane:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 2))
        t = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 3.0
        coeffs, intercept = fit_hyperplane(x, t)
        np.testing.assert_allclose(coeffs, [2.0, -1.0], atol=1e-8)
        assert intercept == pytest.approx(3.0, abs=1e-8)

    def test_constant_targets(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        coeffs, intercept = fit_hyperplane(x, np.full(8, 7.5))
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-8)
        assert intercept == pytest.approx(7.5, abs=1e-8)

    def test_noisy_matches_normal_equations(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5))
        t = x @ rng.normal(size=5) + 0.3 * rng.normal(size=40)
        coeffs, intercept = fit_hyperplane(x, t)
        design = np.hstack([x, np.ones((40, 1))])
        oracle = ridge_solve(design, t[:, None])[:, 0]
        np.testing.assert_allclose(np.append(coeffs, intercept), oracle, atol=1e-6)

    def test_underdetermined_minimum_norm(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(3, 6))
        t = rng.normal(size=3)
        coeffs, intercept = fit_hyperplane(x, t)
        np.testing.assert_allclose(x @ coeffs + intercept, t, atol=1e-8)

    def test_empty_and_mismatch(self):
        with pytest.raises(ParameterError):
            fit_hyperplane(np.empty((0, 3)), [])
        with pytest.raises(ParameterError):
            fit_hyperplane(np.ones((1, 3)), [1.0])
        with pytest.raises(ShapeError):
            fit_hyperplane(np.ones((3, 2)), [1.0, 2.0])


def test_neighborhood_slopes_match_per_point_fits():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 6))
    x[17] = x[5]
    y = rng.normal(size=(30, 3))
    for k in (1, 7, 29):
        slopes = neighborhood_slopes(x, y, k)
        assert slopes.shape == (30, 3, 6)
        for i in range(30):
            hood = np.concatenate(([i], knn(x, x[i], k)))
            for c in range(3):
                assert slopes[i, c].tobytes() == fit_hyperplane(x[hood], y[hood, c])[0].tobytes()
    with pytest.raises(ShapeError):
        neighborhood_slopes(x, y[:-1], 3)


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
    with pytest.raises(ParameterError):
        as_matrix([[1.0, np.inf]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == float and out.shape == (2, 2)
