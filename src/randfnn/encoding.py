"""Pattern encoder/decoder and weekday-grouped training sets.

An input pattern is the seasonal sequence centered by its mean and scaled
by the Euclidean norm of the centered vector, so every x-pattern has zero
mean and unit length regardless of the level and scale of the original
day. Target patterns reuse the *input* day's coding variables (the target
day's are unknown at forecast time), which is also what decodes a
predicted pattern back into physical units.
"""

import csv
from dataclasses import dataclass, field
from datetime import date
from typing import Sequence

import numpy as np

from .errors import DegenerateDispersion, EmptyTrainingSet, ParameterError, ShapeError
from .timeseries import SeasonalSequence

__all__ = [
    "CodingVars",
    "PatternPair",
    "TrainingSet",
    "encode_x",
    "encode_y",
    "decode",
    "build_training_set",
    "first_targets",
    "write_pairs_csv",
]


@dataclass(frozen=True)
class CodingVars:
    """Mean and dispersion of an input day, in series units."""

    mean: float
    dispersion: float

    def __post_init__(self):
        if not self.dispersion > 0:
            raise ParameterError(f"dispersion must be positive, got {self.dispersion}")


@dataclass(frozen=True)
class PatternPair:
    x: np.ndarray
    y: np.ndarray
    coding: CodingVars
    input_date: date
    target_date: date
    target_weekday: int

    def __post_init__(self):
        for name in ("x", "y"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def _dispersion_floor(n: int, mean: float) -> float:
    # scale-aware degeneracy threshold
    return 1e-12 * n * max(1.0, abs(mean))


def encode_x(values) -> tuple[np.ndarray, CodingVars]:
    """Encode a seasonal sequence into a zero-mean, unit-norm pattern.

    Returns the pattern together with the coding variables (mean and
    centered-vector norm) needed to encode targets and decode forecasts.
    Raises `DegenerateDispersion` for (numerically) constant sequences.

    Accepts a `SeasonalSequence` or a plain vector.
    """
    e = np.asarray(getattr(values, "values", values), dtype=float)
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
    e = np.asarray(getattr(values, "values", values), dtype=float)
    return (e - coding.mean) / coding.dispersion


def decode(y_hat, coding: CodingVars) -> np.ndarray:
    """Map a (predicted) pattern back to series units."""
    return np.asarray(y_hat, dtype=float) * coding.dispersion + coding.mean


@dataclass(frozen=True)
class TrainingSet:
    """Stacked x/y pattern matrices, optionally with per-pair provenance.

    All pairs share one target weekday when built from the calendar;
    `from_arrays` admits bare matrices for direct model-level use. `x`
    and `y` are read-only copies, so values derived from them stay valid
    for the set's lifetime: `memo` keeps such values (ddm's neighborhood
    fits, see `randnn.gen_ddm`) and dies with the set.
    """

    x: np.ndarray  # (N, n)
    y: np.ndarray  # (N, p)
    pairs: tuple[PatternPair, ...] | None = None
    target_weekday: int | None = None
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
        if self.pairs is not None:
            weekdays = {p.target_weekday for p in self.pairs}
            if len(weekdays) > 1:
                raise ParameterError(f"mixed target weekdays {sorted(weekdays)}")

    @classmethod
    def from_pairs(cls, pairs: Sequence[PatternPair],
                   n_skipped_degenerate: int = 0) -> "TrainingSet":
        if not pairs:
            raise EmptyTrainingSet("no admissible pattern pairs")
        return cls(
            np.array([p.x for p in pairs]),
            np.array([p.y for p in pairs]),
            pairs=tuple(pairs),
            target_weekday=pairs[0].target_weekday,
            n_skipped_degenerate=n_skipped_degenerate,
        )

    @classmethod
    def from_arrays(cls, x, y) -> "TrainingSet":
        return cls(np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def build_training_set(sequences: Sequence[SeasonalSequence], target_weekday: int,
                       tau: int, cutoff: date) -> TrainingSet:
    """Pair each historical day of `target_weekday` with the day `tau`
    days earlier, strictly before `cutoff`.

    Pairs are only formed when both days are present and exactly `tau`
    calendar days apart; pairs with a constant input day are skipped and
    counted. Raises `EmptyTrainingSet` when nothing is admissible.
    """
    if tau < 1:
        raise ParameterError(f"tau must be >= 1, got {tau}")
    by_index = {s.index: s for s in sequences}
    pairs = []
    skipped = 0
    for s in sequences:
        if s.weekday != target_weekday or s.date >= cutoff:
            continue
        inp = by_index.get(s.index - tau)
        if inp is None:
            continue
        try:
            x, coding = encode_x(inp)
        except DegenerateDispersion:
            skipped += 1
            continue
        pairs.append(PatternPair(
            x=x,
            y=encode_y(s, coding),
            coding=coding,
            input_date=inp.date,
            target_date=s.date,
            target_weekday=s.weekday,
        ))
    if not pairs:
        raise EmptyTrainingSet(
            f"no pairs for weekday {target_weekday}, tau {tau}, cutoff {cutoff}"
        )
    return TrainingSet.from_pairs(pairs, n_skipped_degenerate=skipped)


def first_targets(sequences: Sequence[SeasonalSequence], tau: int) -> dict:
    """Earliest target date of each weekday that has an admissible pair.

    A pair is admissible under the rule `build_training_set` applies: the
    input day `tau` days earlier is present and not constant. So
    `build_training_set(sequences, wd, tau, cutoff)` raises
    `EmptyTrainingSet` exactly when weekday `wd` is missing from the
    result or its date is not before `cutoff`.
    """
    by_index = {s.index: s for s in sequences}
    first: dict = {}
    for s in sorted(sequences, key=lambda s: s.index):
        if s.weekday in first:
            continue
        inp = by_index.get(s.index - tau)
        if inp is None:
            continue
        try:
            encode_x(inp)
        except DegenerateDispersion:
            continue
        first[s.weekday] = s.date
    return first


def write_pairs_csv(phi: TrainingSet, target) -> None:
    """Dump pattern pairs for inspection: dates, x, y, coding variables."""
    if phi.pairs is None:
        raise ParameterError("training set has no pair provenance to export")
    if hasattr(target, "write"):
        _write_pairs(phi, target)
    else:
        with open(target, "w", newline="") as fh:
            _write_pairs(phi, fh)


def _write_pairs(phi: TrainingSet, fh) -> None:
    n, p = phi.n, phi.y.shape[1]
    writer = csv.writer(fh)
    writer.writerow(
        ["input_date", "target_date"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"y{i + 1}" for i in range(p)]
        + ["mean", "dispersion"]
    )
    for pair in phi.pairs:
        writer.writerow(
            [pair.input_date.isoformat(), pair.target_date.isoformat()]
            + [repr(v) for v in pair.x.tolist()]
            + [repr(v) for v in pair.y.tolist()]
            + [repr(pair.coding.mean), repr(pair.coding.dispersion)]
        )
