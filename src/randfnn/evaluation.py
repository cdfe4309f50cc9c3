"""Forecast error metrics and the Wilcoxon signed-rank comparison.

Percentage errors follow the underprediction-positive convention:
pe = 100 * (actual - forecast) / actual, so a positive mean percentage
error means the forecasts run low.

Scoring works on whole float arrays: a method's forecasts are one
`(days, trials, n)` block scored against `(days, 1, n)` actuals, and
every metric is taken over the samples in C order (day, trial, hour).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ParameterError, ShapeError

__all__ = [
    "MetricsSummary",
    "WilcoxonResult",
    "percentage_errors",
    "summarize",
    "wilcoxon_signed_rank",
    "write_metrics_csv",
]

A_BETTER = "A better"
B_BETTER = "B better"
INDISTINGUISHABLE = "indistinguishable"


@dataclass(frozen=True)
class MetricsSummary:
    mape: float
    median_ape: float
    rmse: float
    mpe: float
    std_pe: float
    n_records: int
    std_pe_degenerate: bool = False


def percentage_errors(actual, forecast) -> np.ndarray:
    """Signed percentage error of every forecast sample, flattened in C
    order. `actual` may broadcast against `forecast`, e.g. `(days, 1, n)`
    against `(days, trials, n)`."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(forecast, dtype=float)
    try:
        fits = np.broadcast_shapes(a.shape, f.shape) == f.shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"actual of shape {a.shape} does not match forecast of shape {f.shape}")
    zero = np.flatnonzero(a == 0.0)
    if zero.size:
        raise MetricError(f"actual value is zero at index {zero[0]}")
    return (100.0 * (a - f) / a).ravel()


def summarize(actual, forecast) -> MetricsSummary:
    """MAPE, median APE, RMSE, MPE and the sample std of PE over every
    forecast sample (`actual` broadcasts as in `percentage_errors`).

    RMSE is in series units. With a single sample the PE std is undefined
    and reported as 0 with `std_pe_degenerate` set.
    """
    return _summary(percentage_errors(actual, forecast), actual, forecast)


def _summary(pe, actual, forecast) -> MetricsSummary:
    """`summarize` from `pe`, the `percentage_errors` of `actual` against
    `forecast`, whose buffer it overwrites."""
    if not pe.size:
        raise ParameterError("no samples to summarize")
    degenerate = pe.size == 1
    mpe = float(pe.mean())
    std_pe = 0.0 if degenerate else float(pe.std(ddof=1))
    ape = np.abs(pe, out=pe)  # pe's buffer holds APE, then the squared errors
    mape = float(ape.mean())  # before the median reorders it
    median_ape = float(np.median(ape, overwrite_input=True))
    f = np.asarray(forecast, dtype=float)
    err = np.subtract(actual, f, out=pe.reshape(f.shape))
    np.square(err, out=err)
    return MetricsSummary(mape, median_ape, float(np.sqrt(pe.mean())), mpe, std_pe,
                          pe.size, degenerate)


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # min(W+, W-)
    p_value: float
    decision: str
    n_effective: int


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..N with ties sharing the average of their rank span."""
    # equal_nan=False: no NaN ties another, as under ==
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True,
                                   equal_nan=False)
    # a run of c ties ending at rank r shares r - (c - 1) / 2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _exact_p(ranks: np.ndarray, t_obs: float) -> float:
    # Subset-sum count of the null W+ distribution on doubled ranks
    # (midranks are half-integers, so 2r is always integral).
    weights = np.rint(2.0 * ranks).astype(int)
    total = int(weights.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for w in weights:
        shifted = np.zeros_like(counts)
        shifted[w:] = counts[: total + 1 - w]
        counts = counts + shifted
    le = counts[: int(math.floor(2.0 * t_obs + 1e-9)) + 1].sum()
    return min(1.0, 2.0 * le / 2.0 ** len(ranks))


def _normal_p(ranks: np.ndarray, t_obs: float) -> float:
    # W+ is a sum of independent r_i * Bernoulli(1/2): mean sum(r)/2,
    # variance sum(r^2)/4 (exact under midrank ties).
    mu = ranks.sum() / 2.0
    sigma = math.sqrt((ranks ** 2).sum() / 4.0)
    z = (t_obs - mu + 0.5) / sigma  # continuity correction
    p = 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0))
    return min(1.0, max(0.0, p))


def wilcoxon_signed_rank(ape_a, ape_b, alpha: float = 0.05) -> WilcoxonResult:
    """Two-sided paired signed-rank test on absolute percentage errors.

    Zero differences are dropped. The p-value is exact (full sign-pattern
    distribution) for up to 12 effective pairs, otherwise a normal
    approximation with continuity and tie corrections. When p < alpha the
    decision names the input with the smaller APE sum, otherwise the pair
    is indistinguishable.
    """
    a = np.asarray(ape_a, dtype=float).ravel()
    b = np.asarray(ape_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"APE vectors differ in length: {a.size} vs {b.size}")
    d = a - b
    d = d[d != 0.0]
    n_eff = d.size
    if n_eff == 0:
        return WilcoxonResult(0.0, 1.0, INDISTINGUISHABLE, 0)
    if n_eff < 5:
        raise ParameterError(f"need >= 5 nonzero differences, got {n_eff}")

    ranks = _midranks(np.abs(d))
    t_obs = min(float(ranks[d > 0].sum()), float(ranks[d < 0].sum()))
    p = _exact_p(ranks, t_obs) if n_eff <= 12 else _normal_p(ranks, t_obs)

    decision = INDISTINGUISHABLE
    if p < alpha:
        sum_a, sum_b = float(a.sum()), float(b.sum())
        if sum_a < sum_b:
            decision = A_BETTER
        elif sum_b < sum_a:
            decision = B_BETTER
    return WilcoxonResult(t_obs, p, decision, n_eff)


def write_metrics_csv(summaries: dict[str, MetricsSummary], fh) -> None:
    """Metric-by-method table (one row per metric, one column per method)."""
    rows = [
        ("MAPE", "mape"),
        ("Median(APE)", "median_ape"),
        ("RMSE", "rmse"),
        ("MPE", "mpe"),
        ("Std(PE)", "std_pe"),
    ]
    methods = list(summaries)
    writer = csv.writer(fh)
    writer.writerow(["metric"] + methods)
    for label, attr in rows:
        writer.writerow([label] + [repr(getattr(summaries[m], attr)) for m in methods])
