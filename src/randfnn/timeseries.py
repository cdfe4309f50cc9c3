"""Hourly time series ingestion, calendar exclusions, and slicing into
seasonal (daily) sequences.

A `TimeSeries` holds only complete days: incomplete leading/trailing days
are dropped at load time with a warning, while irregular timestamps inside
a day (sub-hourly rows, duplicated or missing hours as left behind by
daylight-saving shifts) are rejected outright. Exclusion of atypical days
(holidays) is a per-day flag, not a deletion, so serialization round-trips.
"""

import csv
import io
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta

import numpy as np

from .errors import (
    DuplicateTimestampError,
    ParameterError,
    ParseError,
    ResolutionError,
)

__all__ = [
    "TimeSeries",
    "SeasonalSequence",
    "SynthSpec",
    "load_csv",
    "write_csv",
    "load_exclusions",
    "exclude_days",
    "split_seasonal",
    "synth_generate",
]

HOURS_PER_DAY = 24
HOURS_PER_YEAR = 8766.0  # 365.25 days

# weekend dip applied to the weekday level profile (Mon..Sun)
_WEEKDAY_DIP = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 1.0])


@dataclass(frozen=True)
class TimeSeries:
    """Complete hourly days with per-day exclusion flags.

    `dates` is strictly increasing but may have gaps (absent days).
    `values` has one row of `n` hourly observations per date.
    """

    dates: tuple[date, ...]
    values: np.ndarray
    excluded: np.ndarray
    n: int = HOURS_PER_DAY
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        excluded = np.array(self.excluded, dtype=bool)
        if values.shape != (len(self.dates), self.n):
            raise ParameterError(
                f"values shape {values.shape} != ({len(self.dates)}, {self.n})"
            )
        if excluded.shape != (len(self.dates),):
            raise ParameterError("excluded flags must have one entry per day")
        if not np.all(np.isfinite(values)):
            raise ParameterError("values contain non-finite entries")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ParameterError("dates must be strictly increasing")
        values.flags.writeable = False
        excluded.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "excluded", excluded)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SeasonalSequence:
    """One seasonal cycle (a day): values, calendar tag, and series index.

    `index` is the day offset from the first day of the series, so index
    differences equal calendar-day differences even across gaps.
    """

    values: np.ndarray
    date: date
    weekday: int  # 0=Mon .. 6=Sun
    index: int

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _parse_timestamp(text: str, lineno: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"line {lineno}: bad timestamp {text!r}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise ResolutionError(f"line {lineno}: timestamp {text!r} is not on the hour")
    return ts


def load_csv(source, timestamp_col: str = "timestamp", value_col: str = "value",
             n: int = HOURS_PER_DAY) -> TimeSeries:
    """Read an hourly CSV (header row, ISO 8601 timestamps) into a TimeSeries.

    Accepts a path or an open text/byte stream. Whole missing days are
    allowed; partial days are dropped with a warning. Sub-hourly rows or
    hour gaps inside a day raise `ResolutionError`, repeated timestamps
    raise `DuplicateTimestampError`.
    """
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode() if isinstance(raw, bytes) else raw
        rows = _parse_rows(io.StringIO(text), timestamp_col, value_col)
    else:
        with open(source, "r", newline="") as fh:
            rows = _parse_rows(fh, timestamp_col, value_col)

    if not rows:
        raise ParseError("no observations")

    prev = None
    by_day: dict[date, list[tuple[int, float]]] = {}
    for ts, value, lineno in rows:
        if prev is not None:
            if ts == prev:
                raise DuplicateTimestampError(f"line {lineno}: duplicate timestamp {ts}")
            if ts < prev:
                raise ParseError(f"line {lineno}: timestamps not increasing at {ts}")
        prev = ts
        by_day.setdefault(ts.date(), []).append((ts.hour, value))

    dates, days, warnings = [], [], []
    for d in sorted(by_day):
        hours = [h for h, _ in by_day[d]]
        if any(b - a != 1 for a, b in zip(hours, hours[1:])):
            raise ResolutionError(f"day {d}: non-hourly spacing (hours {hours})")
        if len(hours) != n:
            warnings.append(f"day {d}: incomplete ({len(hours)}/{n} rows), dropped")
            continue
        dates.append(d)
        days.append([v for _, v in by_day[d]])

    if not dates:
        raise ParseError("no complete days")
    return TimeSeries(tuple(dates), np.array(days, dtype=float),
                      np.zeros(len(dates), dtype=bool), n=n,
                      warnings=tuple(warnings))


def _parse_rows(fh, timestamp_col, value_col):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("no observations") from None
    header = [h.strip() for h in header]
    try:
        t_idx = header.index(timestamp_col)
        v_idx = header.index(value_col)
    except ValueError:
        raise ParseError(
            f"header {header!r} lacks columns {timestamp_col!r}/{value_col!r}"
        ) from None

    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(t_idx, v_idx):
            raise ParseError(f"line {lineno}: expected {len(header)} columns")
        ts = _parse_timestamp(row[t_idx], lineno)
        try:
            value = float(row[v_idx])
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {row[v_idx]!r}") from None
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {row[v_idx]!r}")
        rows.append((ts, value, lineno))
    return rows


def write_csv(ts: TimeSeries, target) -> None:
    """Serialize to the canonical CSV schema (`timestamp,value`).

    Values are written with `repr`, so a load/write cycle reproduces the
    file bit-exactly for canonically formatted inputs.
    """
    if hasattr(target, "write"):
        _write_rows(ts, target)
    else:
        with open(target, "w", newline="") as fh:
            _write_rows(ts, fh)


def _write_rows(ts: TimeSeries, fh) -> None:
    fh.write("timestamp,value\n")
    for d, row in zip(ts.dates, ts.values):
        base = datetime(d.year, d.month, d.day)
        for h in range(ts.n):
            fh.write(f"{(base + timedelta(hours=h)).isoformat()},{float(row[h])!r}\n")


def load_exclusions(source) -> set[date]:
    """Read an exclusion list: one YYYY-MM-DD per line, `#` comments allowed."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source) as fh:
            lines = fh.read().splitlines()
    out = set()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            out.add(date.fromisoformat(stripped))
        except ValueError:
            raise ParseError(f"exclusion list line {lineno}: bad date {stripped!r}") from None
    return out


def exclude_days(ts: TimeSeries, dates_to_exclude) -> TimeSeries:
    """Flag the given days as excluded (skipped by training and scoring).

    Dates not present in the series are ignored; each adds a warning entry.
    """
    wanted = set(dates_to_exclude)
    excluded = ts.excluded.copy()
    hit = set()
    for i, d in enumerate(ts.dates):
        if d in wanted:
            excluded[i] = True
            hit.add(d)
    warnings = list(ts.warnings)
    for d in sorted(wanted - hit):
        warnings.append(f"exclusion date {d} not in series")
    return TimeSeries(ts.dates, ts.values.copy(), excluded, n=ts.n,
                      warnings=tuple(warnings))


def split_seasonal(ts: TimeSeries, n: int = HOURS_PER_DAY) -> list[SeasonalSequence]:
    """One SeasonalSequence per complete, non-excluded day, in date order."""
    if n != ts.n:
        raise ParameterError(f"period {n} does not match series period {ts.n}")
    if ts.n_days == 0:
        return []
    first = ts.dates[0]
    return [
        SeasonalSequence(ts.values[i], d, d.weekday(), (d - first).days)
        for i, d in enumerate(ts.dates)
        if not ts.excluded[i]
    ]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic multi-seasonal generator.

    The noise-free value at day-offset i, hour h is

        clean = (base + daily_amplitude * S(h)) * L(weekday) * Y(t)

    with S(h) = -cos(2*pi*(h + 0.5)/24), L(wd) = 1 - weekly_modulation *
    dip(wd) (dip 0 Mon-Fri, 0.6 Sat, 1.0 Sun), Y(t) = 1 + yearly_modulation
    * sin(2*pi*t/8766) and t = 24*i + h. Noise is multiplicative Gaussian:
    value = clean * (1 + noise_level * eps), clamped above 0.001 * base.
    """

    days: int
    start_date: date = date(2012, 1, 1)
    base: float = 10000.0
    daily_amplitude: float = 3000.0
    weekly_modulation: float = 0.15
    yearly_modulation: float = 0.12
    noise_level: float = 0.02

    def __post_init__(self):
        if self.days < 14:
            raise ParameterError(f"need at least 14 days, got {self.days}")
        if self.base <= 0 or self.daily_amplitude <= 0:
            raise ParameterError("base and daily_amplitude must be positive")
        if not 0 <= self.weekly_modulation < 1:
            raise ParameterError("weekly_modulation must be in [0, 1)")
        if not 0 <= self.yearly_modulation < 1:
            raise ParameterError("yearly_modulation must be in [0, 1)")
        if self.noise_level < 0:
            raise ParameterError("noise_level must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        kwargs = dict(d)
        if "start_date" in kwargs and isinstance(kwargs["start_date"], str):
            kwargs["start_date"] = date.fromisoformat(kwargs["start_date"])
        unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ParameterError(f"unknown synth spec fields {sorted(unknown)}")
        return cls(**kwargs)


def synth_clean(spec: SynthSpec) -> np.ndarray:
    """Noise-free component of `synth_generate`, shape (days, 24)."""
    i = np.arange(spec.days)
    h = np.arange(HOURS_PER_DAY)
    weekdays = (spec.start_date.weekday() + i) % 7
    level = 1.0 - spec.weekly_modulation * _WEEKDAY_DIP[weekdays]
    shape = spec.base - spec.daily_amplitude * np.cos(2 * np.pi * (h + 0.5) / HOURS_PER_DAY)
    t = i[:, None] * HOURS_PER_DAY + h[None, :]
    yearly = 1.0 + spec.yearly_modulation * np.sin(2 * np.pi * t / HOURS_PER_YEAR)
    return shape[None, :] * level[:, None] * yearly


def synth_generate(spec: SynthSpec, seed: int) -> TimeSeries:
    """Deterministic synthetic series with daily, weekly and yearly cycles."""
    rng = np.random.Generator(np.random.PCG64(seed))
    clean = synth_clean(spec)
    noisy = clean * (1.0 + spec.noise_level * rng.standard_normal(clean.shape))
    values = np.maximum(noisy, 1e-3 * spec.base)
    dates = tuple(spec.start_date + timedelta(days=int(k)) for k in range(spec.days))
    return TimeSeries(dates, values, np.zeros(spec.days, dtype=bool))
