"""Pattern encoder/decoder, the day matrix, and weekday-grouped training
sets.

An input pattern is the seasonal sequence centered by its mean and scaled
by the Euclidean norm of the centered vector, so every x-pattern has zero
mean and unit length regardless of the level and scale of the original
day. Target patterns reuse the *input* day's coding variables (the target
day's are unknown at forecast time), which is also what decodes a
predicted pattern back into physical units.

A run encodes its series once: `encode_days` turns the complete,
non-excluded days into a `DayMatrix`, one row per day holding its date
ordinal, values, x-pattern, mean, dispersion and whether it can be
encoded at all (a numerically constant day cannot). Each row is bitwise
what `encode_x` gives for that day alone. One rule, `_pair_rows`, says
which (target, input) rows pair up: the input day is present exactly
`tau` days before the target and is not constant. `build_training_set`
gathers those rows; the pipeline's screening asks the same rule whether a
day's training set would be empty.
"""

from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import DegenerateDispersion, EmptyTrainingSet, ParameterError, ShapeError
from .timeseries import TimeSeries

__all__ = [
    "CodingVars",
    "DayMatrix",
    "TrainingSet",
    "encode_x",
    "encode_y",
    "encode_days",
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


def _dispersion_floor(n: int, mean):
    # scale-aware degeneracy threshold; `mean` may be an array of day means
    return 1e-12 * n * np.maximum(1.0, np.abs(mean))


def encode_x(values) -> tuple[np.ndarray, CodingVars]:
    """Encode a seasonal sequence into a zero-mean, unit-norm pattern.

    Returns the pattern together with the coding variables (mean and
    centered-vector norm) needed to encode targets and decode forecasts.
    Raises `DegenerateDispersion` for (numerically) constant sequences.
    """
    e = np.asarray(values, dtype=float)
    mean = float(e.mean())
    dispersion = float(np.sqrt(((e - mean) ** 2).sum()))
    if dispersion <= _dispersion_floor(e.size, mean):
        raise DegenerateDispersion(f"sequence is constant (dispersion {dispersion:g})")
    return (e - mean) / dispersion, CodingVars(mean, dispersion)


def encode_y(values, coding: CodingVars) -> np.ndarray:
    """Encode a target sequence with the *input* day's coding variables.

    Unlike x-patterns, the result is generally neither zero-mean nor
    unit-norm; the residual level differences carry the weekly cycle.
    """
    return (np.asarray(values, dtype=float) - coding.mean) / coding.dispersion


def decode(y_hat, coding: CodingVars) -> np.ndarray:
    """Map a (predicted) pattern back to series units."""
    return np.asarray(y_hat, dtype=float) * coding.dispersion + coding.mean


@dataclass(frozen=True)
class DayMatrix:
    """A series' complete, non-excluded days, encoded once, in date order.

    Row i is one day: `ordinals[i]` is its `date.toordinal()`, `values[i]`
    its observations, and `x[i]`, `mean[i]`, `dispersion[i]` what
    `encode_x` returns for it. `valid[i]` is False for a constant day,
    whose x row is zero and which never serves as an input.
    """

    ordinals: np.ndarray  # (D,) int
    values: np.ndarray  # (D, n)
    x: np.ndarray  # (D, n)
    mean: np.ndarray  # (D,)
    dispersion: np.ndarray  # (D,)
    valid: np.ndarray  # (D,) bool

    def row(self, day: date) -> int | None:
        """Row of `day`, or None when the day is absent or excluded."""
        o = day.toordinal()
        i = int(np.searchsorted(self.ordinals, o))
        return i if i < self.ordinals.size and self.ordinals[i] == o else None


def encode_days(ts: TimeSeries) -> DayMatrix:
    """Encode every complete, non-excluded day of `ts` at once."""
    keep = ~ts.excluded
    ordinals = np.array([d.toordinal() for d in ts.dates], dtype=np.int64)[keep]
    values = ts.values[keep]
    mean = values.mean(axis=1)
    centered = values - mean[:, None]
    dispersion = np.sqrt((centered ** 2).sum(axis=1))
    valid = dispersion > _dispersion_floor(ts.n, mean)
    x = np.divide(centered, dispersion[:, None], out=np.zeros_like(centered),
                  where=valid[:, None])
    for a in (ordinals, values, x, mean, dispersion, valid):
        a.flags.writeable = False
    return DayMatrix(ordinals, values, x, mean, dispersion, valid)


def _pair_rows(days: DayMatrix, weekday: int, tau: int,
               cutoff: date) -> tuple[np.ndarray, np.ndarray, int]:
    """The admissibility rule: rows (targets, inputs) of the pairs whose
    target falls on `weekday` strictly before `cutoff`, in date order,
    and the number of pairs dropped for a constant input day.

    A target pairs with the day exactly `tau` calendar days earlier when
    that day is present; the pair is admissible when that day is valid.
    """
    ords = days.ordinals
    targets = np.flatnonzero((ords < cutoff.toordinal()) & ((ords - 1) % 7 == weekday))
    # an input ordinal is below its target's, so its sorted position is in range
    inputs = np.searchsorted(ords, ords[targets] - tau)
    present = ords[inputs] == ords[targets] - tau
    targets, inputs = targets[present], inputs[present]
    ok = days.valid[inputs]
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


def build_training_set(days: DayMatrix, target_weekday: int, tau: int,
                       cutoff: date) -> TrainingSet:
    """Pair each day of `target_weekday` strictly before `cutoff` with the
    day `tau` days earlier, under the rule of `_pair_rows`.

    x rows are the input days' patterns; y rows are the targets coded
    with the input days' mean and dispersion. Pairs with a constant input
    day are skipped and counted. Raises `EmptyTrainingSet` when nothing
    is admissible.
    """
    if tau < 1:
        raise ParameterError(f"tau must be >= 1, got {tau}")
    targets, inputs, skipped = _pair_rows(days, target_weekday, tau, cutoff)
    if not targets.size:
        raise EmptyTrainingSet(
            f"no pairs for weekday {target_weekday}, tau {tau}, cutoff {cutoff}"
        )
    y = (days.values[targets] - days.mean[inputs, None]) / days.dispersion[inputs, None]
    return TrainingSet(days.x[inputs], y, n_skipped_degenerate=skipped)
