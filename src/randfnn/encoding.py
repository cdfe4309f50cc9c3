"""Pattern encoder/decoder and weekday-grouped training sets.

An input pattern is the seasonal sequence centered by its mean and scaled
by the Euclidean norm of the centered vector, so every x-pattern has zero
mean and unit length regardless of the level and scale of the original
day. Target patterns reuse the *input* day's coding variables (the target
day's are unknown at forecast time), which is also what decodes a
predicted pattern back into physical units.

`encode_x` encodes whole arrays of days at once; `timeseries.TimeSeries`
calls it once per series and keeps each day's pattern, mean, dispersion
and whether it can be encoded at all (a numerically constant day cannot).
One rule, `_pair_rows`, says which (target, input) rows of a series pair
up: the input day is present exactly `tau` days before the target and is
not constant. `build_training_set` gathers those rows, coding each target
with its input row's mean and dispersion; the pipeline's screening asks
the same rule whether a day's training set would be empty. The one-day
references of `encode_x` and of the target coding live in
`tests/reference.py`.
"""

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import EmptyTrainingSet, ParameterError, ShapeError

__all__ = [
    "CodingVars",
    "TrainingSet",
    "encode_x",
    "decode",
    "build_training_set",
]


@dataclass(frozen=True)
class CodingVars:
    """Mean and dispersion of an input day, in series units."""

    mean: float
    dispersion: float

    def __post_init__(self):
        if not self.dispersion > 0:
            raise ParameterError(f"dispersion must be positive, got {self.dispersion}")


def encode_x(values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode days (D, n) into zero-mean, unit-norm patterns.

    Returns the patterns x (D, n) and each day's coding variables, needed
    to encode targets and decode forecasts: its mean (D,) and dispersion
    (D,), the norm of its centered values. `valid` (D,) is False for a
    (numerically) constant day and for a day whose mean or dispersion
    overflows; its x row is zero.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean(axis=1)
        centered = values - mean[:, None]
        dispersion = np.sqrt((centered ** 2).sum(axis=1))
        # scale-aware degeneracy threshold
        valid = np.isfinite(dispersion) & (
            dispersion > 1e-12 * values.shape[1] * np.maximum(1.0, np.abs(mean)))
    x = np.divide(centered, dispersion[:, None], out=np.zeros_like(centered),
                  where=valid[:, None])
    return x, mean, dispersion, valid


def decode(y_hat, coding: CodingVars) -> np.ndarray:
    """Map a (predicted) pattern back to series units."""
    return np.asarray(y_hat, dtype=float) * coding.dispersion + coding.mean


def _pair_rows(ts, weekday: int, tau: int,
               cutoff: date) -> tuple[np.ndarray, np.ndarray, int]:
    """The admissibility rule: rows (targets, inputs) of the series `ts`
    whose target falls on `weekday` strictly before `cutoff`, in date
    order, and the number of pairs dropped for a constant input day.

    A target pairs with the day exactly `tau` calendar days earlier when
    that day is present; the pair is admissible when that day is valid.
    """
    dates = ts.dates
    # 1970-01-01, day 0 of datetime64[D], is a Thursday (weekday 3)
    on_weekday = (dates.view(np.int64) + 3) % 7 == weekday
    targets = np.flatnonzero((dates < np.datetime64(cutoff, "D")) & on_weekday)
    wanted = dates[targets] - np.timedelta64(tau, "D")
    # an input date is below its target's, so its sorted position is in range
    inputs = np.searchsorted(dates, wanted)
    present = dates[inputs] == wanted
    targets, inputs = targets[present], inputs[present]
    ok = ts.valid[inputs]
    return targets[ok], inputs[ok], int(np.count_nonzero(~ok))


@dataclass(frozen=True)
class TrainingSet:
    """Stacked x/y pattern matrices.

    `x` and `y` are read-only copies, so values derived from them stay
    valid for the set's lifetime: `memo` keeps such values and dies with
    the set. ddm keeps its (N, p, n) slope tables there, one per k (see
    the `randnn` module docstring).
    """

    x: np.ndarray  # (N, n)
    y: np.ndarray  # (N, p)
    n_skipped_degenerate: int = 0
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2:
            raise ShapeError("x and y must be 2-D")
        if x.shape[0] != y.shape[0]:
            raise ShapeError(f"{x.shape[0]} x-rows vs {y.shape[0]} y-rows")
        if x.shape[0] < 1:
            raise EmptyTrainingSet("training set has no pairs")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def build_training_set(ts, target_weekday: int, tau: int, cutoff: date) -> TrainingSet:
    """Pair each day of the series `ts` on `target_weekday` strictly
    before `cutoff` with the day `tau` days earlier, under the rule of
    `_pair_rows`.

    x rows are the input days' patterns; y rows are the targets coded
    with the input days' mean and dispersion. Pairs with a constant input
    day are skipped and counted. Raises `EmptyTrainingSet` when nothing
    is admissible.
    """
    if tau < 1:
        raise ParameterError(f"tau must be >= 1, got {tau}")
    targets, inputs, skipped = _pair_rows(ts, target_weekday, tau, cutoff)
    if not targets.size:
        raise EmptyTrainingSet(
            f"no pairs for weekday {target_weekday}, tau {tau}, cutoff {cutoff}"
        )
    y = (ts.values[targets] - ts.mean[inputs, None]) / ts.dispersion[inputs, None]
    return TrainingSet(ts.x[inputs], y, n_skipped_degenerate=skipped)
