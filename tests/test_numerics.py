import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from randfnn.errors import ParameterError, ShapeError
from randfnn.numerics import (
    as_matrix,
    fit_hyperplane,
    knn,
    neighborhood_slopes,
    pinv_solve,
    sigmoid,
)

import reference as ref

EPS = np.finfo(float).eps


def ridge_solve(H, Y, lam=1e-10):
    """Normal-equations oracle: (H'H + lam I)^-1 H'Y."""
    m = H.shape[1]
    return np.linalg.solve(H.T @ H + lam * np.eye(m), H.T @ Y)


def min_norm_oracle(H, Y):
    """pinv(H) @ Y from numpy's own SVD, with pinv_solve's rank cutoff."""
    u, s, vt = np.linalg.svd(H, full_matrices=False)
    keep = s > max(H.shape) * EPS * s[0]
    return vt[keep].T @ ((u[:, keep].T @ Y) / s[keep, None])


def centred(x):
    """Rows shifted to zero sum, as encoded patterns are."""
    return x - x.mean(axis=-1, keepdims=True)


def zero_sum_basis(n):
    """An orthonormal basis (n, n-1) of the vectors whose entries sum to zero."""
    return np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]


@pytest.fixture
def svd_matrices(monkeypatch):
    """The number of matrices of each call that reaches np.linalg.svd,
    which only pinv_solve's fallback route calls."""
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(1 if a.ndim == 2 else len(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


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

    def test_duplicated_column_rank_deficient(self, svd_matrices):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(10, 4))
        h[:, 3] = h[:, 1]
        y = rng.normal(size=(10, 2))
        beta = pinv_solve(h, y)
        assert svd_matrices == [1]  # a duplicated node takes the SVD
        assert np.all(np.isfinite(beta))
        np.testing.assert_allclose(beta, min_norm_oracle(h, y), atol=1e-12)
        np.testing.assert_allclose(beta[1], beta[3], atol=1e-12)  # its weight is split evenly
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
    """pinv_solve's two routes: QR where the guard proves full rank under
    the cutoff, the SVD with the cutoff otherwise."""

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
        kept = [np.linalg.matrix_rank(pinv_solve(h, np.eye(9))) for h in stack]
        assert kept == [2, 3, 3]
        solutions = pinv_solve(stack, y)
        for i, h in enumerate(stack):
            assert solutions[i].tobytes() == pinv_solve(h, y).tobytes()

    def test_steps_give_pinv_solve_bits(self):
        # each route is its numpy steps: QR, R^-1 and two products for a
        # full-rank H; the SVD, the cutoff and three products otherwise
        rng = np.random.default_rng(5)
        h = rng.normal(size=(32, 25))
        q, r = np.linalg.qr(h)
        y = rng.normal(size=(32, 1))
        assert pinv_solve(h, y).tobytes() == (np.linalg.inv(r) @ (q.T @ y)).tobytes()
        h[:, 7] = h[:, 3]  # rank deficient
        u, s, vt = np.linalg.svd(h, full_matrices=False)
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 32 * EPS * s[0])
        for _ in range(3):
            y = rng.normal(size=(32, 1))
            steps = vt.T @ (s_inv[:, None] * (u.T @ y))
            assert pinv_solve(h, y).tobytes() == steps.tobytes()

    def test_zero_matrix_gives_positive_zeros(self, svd_matrices):
        beta = pinv_solve(np.zeros((3, 2)), -np.ones((3, 1)))
        assert svd_matrices == [1]
        assert beta.shape == (2, 1)
        assert beta.tobytes() == np.zeros((2, 1)).tobytes()

    def test_apply_checks_its_input(self):
        with pytest.raises(ShapeError):
            pinv_solve(np.ones((3, 2)), np.ones((4, 1)))
        with pytest.raises(ParameterError):
            pinv_solve(np.ones((3, 2)), np.array([[1.0], [np.inf], [0.0]]))

    def test_stacked_columns_give_per_column_bits(self):
        # a (5, 3) stack: each matrix repeated for three single-column
        # right-hand sides, each solved as it is solved alone
        rng = np.random.default_rng(9)
        stack = rng.normal(size=(5, 12, 7))
        stack[2, :, 4] = stack[2, :, 1]  # rank deficient
        y = rng.normal(size=(5, 3, 12, 1))
        got = pinv_solve(np.broadcast_to(stack[:, None], (5, 3, 12, 7)), y)
        assert got.shape == (5, 3, 7, 1)
        for i, h in enumerate(stack):
            for c in range(3):
                assert got[i, c].tobytes() == pinv_solve(h, y[i, c]).tobytes()

    def test_apply_checks_a_stacked_input(self):
        h = np.ones((2, 3, 2))
        with pytest.raises(ShapeError):
            pinv_solve(h, np.ones((2, 4, 1)))
        with pytest.raises(ShapeError):
            pinv_solve(h, np.ones(3))
        with pytest.raises(ShapeError):  # per-matrix Y for three matrices
            pinv_solve(h, np.ones((3, 3, 1)))
        y = np.ones((2, 3, 1))
        y[1, 2, 0] = np.nan
        with pytest.raises(ParameterError):
            pinv_solve(h, y)

    def test_stacked_hyperplane_factors_match_each_set(self):
        # stacked hyperplane designs [X | 1], one with a duplicated point
        rng = np.random.default_rng(10)
        sets = rng.normal(size=(2, 4, 9, 5))
        sets[1, 3, 6] = sets[1, 3, 2]
        designs = np.concatenate([sets, np.ones((2, 4, 9, 1))], axis=-1)
        targets = rng.normal(size=(2, 4, 9, 3))
        stacked = pinv_solve(designs, targets)
        for idx in np.ndindex(2, 4):
            assert stacked[idx].tobytes() == pinv_solve(designs[idx], targets[idx]).tobytes()

    def test_hyperplane_factors_solve_fit_hyperplane(self):
        # fit_hyperplane solves [X | 1], or [X Q | 1] mapped back by Q when
        # every row of X sums to zero
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 5))
        t = rng.normal(size=12)
        coeffs, intercept = fit_hyperplane(x, t)
        sol = pinv_solve(np.hstack([x, np.ones((12, 1))]), t[:, None])[:, 0]
        assert sol[:-1].tobytes() == coeffs.tobytes() and sol[-1] == intercept
        q = zero_sum_basis(5)
        coeffs, intercept = fit_hyperplane(centred(x), t)
        sol = pinv_solve(np.hstack([centred(x) @ q, np.ones((12, 1))]), t[:, None])
        assert (q @ sol[:-1])[:, 0].tobytes() == coeffs.tobytes() and sol[-1, 0] == intercept


class TestRouting:
    """Which matrices the guard sends to the SVD, and that the minimum-norm
    answer holds on either route."""

    def test_full_rank_stack_takes_qr(self, svd_matrices):
        rng = np.random.default_rng(20)
        h = rng.normal(size=(4, 30, 8))
        y = rng.normal(size=(30, 2))
        got = pinv_solve(h, y)
        assert svd_matrices == []
        for i in range(4):
            np.testing.assert_allclose(got[i], min_norm_oracle(h[i], y), rtol=1e-10, atol=1e-12)

    def test_more_columns_than_rows(self, svd_matrices):
        rng = np.random.default_rng(21)
        h = rng.normal(size=(3, 6, 15))
        y = rng.normal(size=(3, 6, 2))
        got = pinv_solve(h, y)
        assert svd_matrices == [3]
        for i in range(3):
            np.testing.assert_allclose(got[i], min_norm_oracle(h[i], y[i]), atol=1e-12)
            np.testing.assert_allclose(h[i] @ got[i], y[i], atol=1e-10)

    @pytest.mark.parametrize("s3, kept", [(1e-8, True), (4 * 9 * EPS, True),
                                          (0.25 * 9 * EPS, False)])  # cutoff 9 * eps
    def test_graded_matrix_on_each_side_of_the_cutoff(self, s3, kept):
        h, u, v = TestPinvFactorApply.graded([1.0, 1e-3, s3], seed=7)
        y = u[:, 2:] + 0.5 * u[:, :1]
        beta = pinv_solve(h, y)
        along = (v[:, 2] @ beta)[0]  # the component of the smallest direction
        if kept:
            assert along == pytest.approx(1.0 / s3, rel=0.1)
        else:
            assert abs(along) < 1e-6
        if s3 > 1e-10 or not kept:  # at cond 1e14, 1/s3's rounding reaches every direction
            np.testing.assert_allclose(v[:, 0] @ beta, [0.5], rtol=1e-6)

    def test_mixed_stack_gives_each_matrix_its_lone_bits(self, svd_matrices):
        rng = np.random.default_rng(23)
        stack = rng.normal(size=(6, 20, 5))
        stack[1, :, 4] = stack[1, :, 0]  # duplicated node: SVD
        stack[3] = 0.0  # zero matrix: SVD
        stack[5] *= 1e-30  # full rank at any scale: QR
        for y in (rng.normal(size=(20, 3)), rng.normal(size=(6, 20, 3))):
            svd_matrices.clear()
            got = pinv_solve(stack, y)
            assert svd_matrices == [2]
            for i, h in enumerate(stack):
                alone = pinv_solve(h, y if y.ndim == 2 else y[i])
                assert got[i].tobytes() == alone.tobytes()

    def test_shapes_do_not_depend_on_the_numpy_version(self):
        # numpy 2.0 changed how np.linalg.solve broadcasts its right-hand
        # side; each shape pinv_solve takes keeps one meaning
        rng = np.random.default_rng(24)
        h = rng.normal(size=(30, 6))
        for p in (1, 4):
            y = rng.normal(size=(30, p))
            assert pinv_solve(h, y).shape == (6, p)
            np.testing.assert_allclose(pinv_solve(h, y), min_norm_oracle(h, y), rtol=1e-10)
        for stack, y in ((rng.normal(size=(5, 30, 6)), rng.normal(size=(30, 4))),
                         (rng.normal(size=(5, 30, 6)), rng.normal(size=(5, 30, 4))),
                         (rng.normal(size=(5, 30, 6)), rng.normal(size=(5, 30, 1))),
                         (rng.normal(size=(6, 6, 6)), rng.normal(size=(6, 6)))):
            got = pinv_solve(stack, y)
            assert got.shape == (len(stack), 6, y.shape[-1])
            for i, h in enumerate(stack):
                alone = pinv_solve(h, y if y.ndim == 2 else y[i])
                assert got[i].tobytes() == alone.tobytes()
                np.testing.assert_allclose(alone, min_norm_oracle(h, y if y.ndim == 2 else y[i]),
                                           rtol=1e-8, atol=1e-10)

    def test_neighborhood_with_a_duplicated_row(self, svd_matrices):
        # k + 1 = n centred points, two of them equal: the projected design
        # [X Q | 1] (n columns) has rank n - 1
        rng = np.random.default_rng(25)
        x = centred(rng.normal(size=(6, 6)))
        x[4] = x[1]
        t = rng.normal(size=(6, 2))
        coeffs, intercepts = fit_hyperplane(x, t)
        assert svd_matrices == [1]
        oracle = min_norm_oracle(np.hstack([x, np.ones((6, 1))]), t)
        np.testing.assert_allclose(coeffs, oracle[:-1].T, atol=1e-10)
        np.testing.assert_allclose(intercepts, oracle[-1], atol=1e-10)

    def test_fewer_neighbors_than_dimensions(self, svd_matrices):
        # k + 1 < n: the hyperplanes interpolate, with minimum norm
        rng = np.random.default_rng(26)
        x = centred(rng.normal(size=(5, 12)))
        t = rng.normal(size=(5, 3))
        coeffs, intercepts = fit_hyperplane(x, t)
        assert svd_matrices == [1]
        np.testing.assert_allclose(x @ coeffs.T + intercepts, t, atol=1e-10)
        oracle = min_norm_oracle(np.hstack([x, np.ones((5, 1))]), t)
        np.testing.assert_allclose(coeffs, oracle[:-1].T, atol=1e-10)

    @pytest.mark.parametrize("shift", [0.0, 1e-3])
    def test_projection_only_for_centred_points(self, svd_matrices, shift):
        # centred points: the projected design has full rank and takes QR;
        # rows shifted off zero sum keep [X | 1], which has full rank too
        rng = np.random.default_rng(27)
        x = centred(rng.normal(size=(20, 6))) + shift * rng.normal(size=(20, 1))
        t = rng.normal(size=20)
        coeffs, intercept = fit_hyperplane(x, t)
        assert svd_matrices == []
        design = np.hstack([x, np.ones((20, 1))])
        if shift:
            sol = pinv_solve(design, t[:, None])[:, 0]
            assert sol[:-1].tobytes() == coeffs.tobytes() and sol[-1] == intercept
        oracle = min_norm_oracle(design, t[:, None])[:, 0]
        np.testing.assert_allclose(np.append(coeffs, intercept), oracle, rtol=1e-9, atol=1e-12)
        if not shift:
            assert abs(coeffs.sum()) < 1e-12  # nothing along (1, ..., 1)


class TestKnn:
    def test_ordering(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        np.testing.assert_array_equal(knn(pts, [[0.0]], 2), [[1, 2]])

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(knn(pts, [[0.0, 0.0]], 2), [[0, 1]])

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(50, 24))
        q = rng.normal(size=24)
        got = knn(pts, q[None], 5)[0]
        oracle = np.argsort([np.linalg.norm(p - q) for p in pts], kind="stable")[:5]
        np.testing.assert_array_equal(got, oracle)

    def test_self_excluded_when_member(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(10, 4))
        got = knn(pts, pts[3:4], 9)[0]
        assert 3 not in got
        assert sorted(got) == [0, 1, 2, 4, 5, 6, 7, 8, 9]

    def test_permutation_consistency(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(20, 6))
        q = rng.normal(size=6)
        base = knn(pts, q[None], 4)[0]
        perm = rng.permutation(20)
        permuted = knn(pts[perm], q[None], 4)[0]
        np.testing.assert_array_equal(perm[permuted], base)

    def test_k_too_large(self):
        pts = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(ParameterError):
            knn(pts, [[9.0, 9.0]], 4)
        with pytest.raises(ParameterError):
            knn(pts, pts[:1], 3)  # self excluded leaves only 2

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
                assert row.tolist() == ref.knn(pts, q, k).tolist()

    def test_stack_k_bounds(self):
        pts = np.arange(10.0).reshape(5, 2)
        assert knn(pts, pts + 0.5, 5).shape == (5, 5)  # no query is a member
        assert knn(pts, pts[:0], 3).shape == (0, 3)
        with pytest.raises(ParameterError, match=r"k=5 not in \[1, 4\]"):
            knn(pts, np.vstack([pts[:1], pts + 0.5]), 5)
        with pytest.raises(ShapeError):
            knn(pts, np.ones((2, 3)), 1)
        with pytest.raises(ShapeError):  # one query is a stack of one
            knn(pts, pts[0], 1)


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
    raw = rng.normal(size=(30, 6))
    y = rng.normal(size=(30, 3))
    for x in (raw, centred(raw)):  # the full design, then the projected one
        x[17] = x[5]
        for k in (1, 7, 29):  # k + 1 < n, k + 1 > n, the whole set
            slopes = neighborhood_slopes(x, y, k)
            assert slopes.shape == (30, 3, 6)
            for i in range(30):
                hood = np.concatenate(([i], ref.knn(x, x[i], k)))
                assert slopes[i].tobytes() == fit_hyperplane(x[hood], y[hood])[0].tobytes()
    with pytest.raises(ShapeError):
        neighborhood_slopes(x, y[:-1], 3)


def test_as_matrix_validation():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
    with pytest.raises(ParameterError):
        as_matrix([[1.0, np.inf]])
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == float and out.shape == (2, 2)
