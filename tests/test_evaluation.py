import math

import numpy as np
import pytest
from scipy import stats

from randfnn.errors import MetricError, ParameterError, ShapeError
from randfnn.evaluation import (
    A_BETTER,
    B_BETTER,
    MetricsSummary,
    _midranks,
    percentage_errors,
    summarize,
    wilcoxon_signed_rank,
)


class TestWilcoxon:
    def test_exact_branch_matches_scipy(self):
        rng = np.random.default_rng(3)
        for n in (5, 8, 12):
            a = rng.uniform(1.0, 5.0, n)
            b = a + rng.permutation(np.arange(1, n + 1)) * rng.choice([-0.1, 0.1], n)
            ref = stats.wilcoxon(a, b, method="exact")
            r = wilcoxon_signed_rank(a, b)
            assert r.n_effective == n
            assert r.statistic == ref.statistic
            assert r.p_value == pytest.approx(ref.pvalue, rel=1e-12)

    def test_normal_branch_with_ties_matches_scipy(self):
        rng = np.random.default_rng(4)
        b = rng.uniform(1.0, 5.0, 60)
        # differences on a coarse grid: many tied |d| and a few zeros
        d = rng.integers(-6, 7, 60) * 0.25
        a = b + d
        ref = stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
        r = wilcoxon_signed_rank(a, b)
        assert r.n_effective == int(np.count_nonzero(a - b))
        assert len(np.unique(np.abs(a - b))) < r.n_effective  # ties present
        assert r.statistic == ref.statistic
        assert r.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_decision_names_the_smaller_errors(self):
        a = np.arange(1.0, 21.0)
        assert wilcoxon_signed_rank(a, a + 1.0).decision == A_BETTER
        assert wilcoxon_signed_rank(a + 1.0, a).decision == B_BETTER


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, math.nan])
def test_alpha_outside_the_unit_interval_is_rejected(alpha):
    a = np.arange(1.0, 21.0)
    for b in (a + 1.0, a):  # a decided pair, and one with no differences
        with pytest.raises(ParameterError, match=r"alpha must be in \(0, 1\)"):
            wilcoxon_signed_rank(a, b, alpha=alpha)


def test_midranks_share_tied_ranks():
    values = np.array([3.0, 1.0, 3.0, 2.0, 3.0, 1.0])
    ranks = _midranks(values)
    np.testing.assert_array_equal(ranks, [5.0, 1.5, 5.0, 3.0, 5.0, 1.5])
    np.testing.assert_array_equal(ranks, stats.rankdata(values))
    rng = np.random.default_rng(5)
    for size in (1, 2, 7, 60, 500):
        for levels in (1, 3, size):  # all tied, tie-heavy, few ties
            values = rng.integers(0, levels, size) * 0.25
            np.testing.assert_array_equal(_midranks(values), stats.rankdata(values))


class TestSummarize:
    def test_textbook_formulas(self):
        actual = [100.0, 200.0, 50.0, 80.0]
        forecast = [90.0, 210.0, 50.5, 84.0]
        pe = [100.0 * (a - f) / a for a, f in zip(actual, forecast)]
        ape = sorted(abs(p) for p in pe)
        mpe = sum(pe) / 4
        s = summarize(actual, forecast)
        assert s.n_records == 4 and not s.std_pe_degenerate
        assert s.mape == pytest.approx(sum(ape) / 4, rel=1e-14)
        assert s.median_ape == pytest.approx((ape[1] + ape[2]) / 2, rel=1e-14)
        assert s.rmse == pytest.approx(
            math.sqrt(sum((a - f) ** 2 for a, f in zip(actual, forecast)) / 4), rel=1e-14)
        assert s.mpe == pytest.approx(mpe, rel=1e-14)
        assert s.std_pe == pytest.approx(
            math.sqrt(sum((p - mpe) ** 2 for p in pe) / 3), rel=1e-14)

    def test_single_sample_is_degenerate(self):
        s = summarize([10.0], [9.0])
        assert s == MetricsSummary(10.0, 10.0, 1.0, 10.0, 0.0, 1, std_pe_degenerate=True)

    def test_no_samples(self):
        with pytest.raises(ParameterError):
            summarize([], [])

    def test_broadcast_block_equals_flat_per_trial_concatenation(self):
        rng = np.random.default_rng(5)
        days, trials, n = 4, 7, 24
        actual = rng.uniform(50.0, 150.0, (days, n))
        block = actual[:, None, :] * rng.normal(1.0, 0.05, (days, trials, n))
        flat_actual = np.concatenate([actual[d] for d in range(days) for _ in range(trials)])
        flat_forecast = np.concatenate([block[d, t] for d in range(days) for t in range(trials)])
        np.testing.assert_array_equal(percentage_errors(actual[:, None, :], block),
                                      percentage_errors(flat_actual, flat_forecast))
        assert summarize(actual[:, None, :], block) == summarize(flat_actual, flat_forecast)
        # bit for bit the summary of fresh temporaries, as it was computed
        # before it reused one buffer
        a = actual[:, None, :]
        pe = (100.0 * (a - block) / a).ravel()
        err = (a - block).ravel()
        ape = np.abs(pe)
        assert summarize(a, block) == MetricsSummary(
            float(ape.mean()), float(np.median(ape)), float(np.sqrt((err ** 2).mean())),
            float(pe.mean()), float(pe.std(ddof=1)), pe.size)

    def test_percentage_error_sign_and_shape(self):
        pe = percentage_errors([[100.0, 50.0]], [[[90.0, 55.0]], [[110.0, 50.0]]])
        assert pe.dtype == np.float64 and pe.shape == (4,)
        np.testing.assert_array_equal(pe, [10.0, -10.0, -10.0, 0.0])


class TestBadInput:
    def test_zero_actual(self):
        with pytest.raises(MetricError, match="index 1"):
            percentage_errors([1.0, 0.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(MetricError):
            summarize(np.array([[1.0, 0.0]])[:, None, :], np.ones((1, 3, 2)))

    @pytest.mark.parametrize("a_shape, f_shape", [
        ((3,), (4,)),
        ((2, 3), (3, 2)),
        ((2, 24), (24,)),  # actual must broadcast to forecast, not the reverse
        ((2, 1, 24), (3, 5, 24)),
    ])
    def test_shape_mismatch(self, a_shape, f_shape):
        with pytest.raises(ShapeError):
            percentage_errors(np.ones(a_shape), np.ones(f_shape))
        with pytest.raises(ShapeError):
            summarize(np.ones(a_shape), np.ones(f_shape))
