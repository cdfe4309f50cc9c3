"""Hourly time series ingestion, calendar exclusions, and a synthetic
multi-seasonal generator.

A `TimeSeries` holds only complete days: incomplete leading/trailing days
are dropped at load time with a warning, while irregular timestamps inside
a day (sub-hourly rows, duplicated or missing hours as left behind by
daylight-saving shifts) are rejected outright. Exclusion of atypical days
(holidays) is a per-day flag, not a deletion, so serialization round-trips.

`load_csv` reads ISO 8601 timestamps as `datetime.fromisoformat` does, at
local wall-clock time. One `np.loadtxt` pass reads a body in `write_csv`'s
form (`YYYY-MM-DDTHH:MM:SS` timestamps); the `csv` reader rescans a file
only to name a fault's line or to read the other forms.
"""

import csv
import io
import warnings
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
    "SynthSpec",
    "load_csv",
    "write_csv",
    "load_exclusions",
    "exclude_days",
    "synth_generate",
]

HOURS_PER_DAY = 24
HOURS_PER_YEAR = 8766.0  # 365.25 days

# weekend dip applied to the weekday level profile (Mon..Sun)
_WEEKDAY_DIP = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.6, 1.0])

# `YYYY-MM-DDTHH:MM:SS` as an S20 field's bytes: each byte minus the
# template's is at most 9 under a digit and 0 elsewhere (uint8 wraps)
_CANONICAL = np.frombuffer(b"0000-00-00T00:00:00\0", dtype=np.uint8)
_DIGIT = np.where(_CANONICAL == ord("0"), 9, 0).astype(np.uint8)


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


def load_csv(source, timestamp_col: str = "timestamp", value_col: str = "value",
             n: int = HOURS_PER_DAY) -> TimeSeries:
    """Read an hourly CSV (header row, ISO 8601 timestamps) into a TimeSeries.

    Accepts a path or an open text/byte stream. A path is parsed from the
    open file without holding its text whole, and read again from its
    start to name a fault; a stream is read whole from where it is, bytes
    as UTF-8. A timestamp is read as
    `datetime.fromisoformat` reads it stripped, any UTC offset dropped, and
    a value as `float` reads it. Whole missing days are allowed; partial
    days are dropped with a warning. Sub-hourly rows or hour gaps inside a
    day raise `ResolutionError`, repeated timestamps raise
    `DuplicateTimestampError`; a row's error names its line as `csv`
    counts them. Only such a fault, or a timestamp not in the form
    `YYYY-MM-DDTHH:MM:SS`, makes `csv` rescan what `np.loadtxt` read.
    """
    if hasattr(source, "read"):
        text = source.read()
        fh = io.StringIO(text.decode() if isinstance(text, bytes) else text, newline="")
        return _read_series(fh, timestamp_col, value_col, n)
    with open(source, "r", newline="") as fh:
        return _read_series(fh, timestamp_col, value_col, n)


def _read_series(fh, timestamp_col, value_col, n):
    """`load_csv` of a seekable text file opened with `newline=""`."""
    # an S20 field ends at a NUL, dropping what follows, so only
    # `_parse_rows` reads a file with one
    nul = any("\0" in chunk for chunk in iter(lambda: fh.read(1 << 16), ""))
    fh.seek(0)
    header = next(csv.reader(fh), None)
    if header is None:
        raise ParseError("no observations")
    header = [h.strip() for h in header]
    try:
        cols = (header.index(timestamp_col), header.index(value_col))
    except ValueError:
        raise ParseError(
            f"header {header!r} lacks columns {timestamp_col!r}/{value_col!r}"
        ) from None

    rows = None if nul else _load_rows(fh, cols)
    if rows is None:
        fh.seek(0)
        rows = _parse_rows(fh, cols, len(header))
    stamps, values, found = rows
    if not stamps.size:
        raise ParseError("no observations")
    step = np.diff(stamps)
    back = np.flatnonzero(step <= np.timedelta64(0))
    if back.size:  # only `_parse_rows` lets these through, so `found` is set
        lineno, ts = found[back[0] + 1]
        if step[back[0]]:
            raise ParseError(f"line {lineno}: timestamps not increasing at {ts}")
        raise DuplicateTimestampError(f"line {lineno}: duplicate timestamp {ts}")

    hours = stamps.astype(np.int64) // 3600
    days, starts, counts = np.unique(hours // HOURS_PER_DAY, return_index=True,
                                     return_counts=True)
    dates = days.astype("datetime64[D]").tolist()
    gaps = np.flatnonzero(hours[starts + counts - 1] - hours[starts] + 1 != counts)
    if gaps.size:
        i, s, c = gaps[0], starts[gaps[0]], counts[gaps[0]]
        raise ResolutionError(f"day {dates[i]}: non-hourly spacing "
                              f"(hours {(hours[s:s + c] % HOURS_PER_DAY).tolist()})")
    full = counts == n
    if not full.any():
        raise ParseError("no complete days")
    return TimeSeries(tuple(d for d, f in zip(dates, full) if f),
                      values[starts[full, None] + np.arange(n)],
                      np.zeros(int(full.sum()), dtype=bool), n=n,
                      warnings=tuple(f"day {d}: incomplete ({c}/{n} rows), dropped"
                                     for d, c in zip(dates, counts.tolist()) if c != n))


def _load_rows(fh, cols):
    """The body's (stamps, values, None) from one `np.loadtxt` pass, or None
    where `_parse_rows` must read it: a short, unordered, off-hour or
    non-finite row, or a timestamp not `YYYY-MM-DDTHH:MM:SS` from year 1."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body, a "Z" suffix
            body = np.loadtxt(fh, delimiter=",", usecols=cols, quotechar='"',
                              comments=None, ndmin=1, dtype=[("t", "S20"), ("v", "f8")])
            raw = np.ascontiguousarray(body["t"])
            stamps, values = raw.astype("datetime64[s]"), body["v"]
    except (ValueError, Warning):
        return None
    if (((raw.view(np.uint8).reshape(-1, 20) - _CANONICAL) <= _DIGIT).all()
            and stamps[0] >= np.datetime64("0001-01-01")
            and (np.diff(stamps) > np.timedelta64(0)).all()
            and not (stamps.astype(np.int64) % 3600).any() and np.isfinite(values).all()):
        return stamps, values, None
    return None


def _parse_rows(fh, cols, width):
    """The file row by row through `csv` from its header, raising the first
    row's fault, as (stamps, values, found) with each row's (line,
    datetime) in `found`."""
    reader = csv.reader(fh)
    next(reader)
    t_idx, v_idx = cols
    found, values = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) <= max(cols):
            raise ParseError(f"line {lineno}: expected {width} columns")
        try:
            ts = datetime.fromisoformat(row[t_idx].strip())
        except ValueError:
            raise ParseError(f"line {lineno}: bad timestamp {row[t_idx]!r}") from None
        if ts.minute or ts.second or ts.microsecond:
            raise ResolutionError(f"line {lineno}: timestamp {row[t_idx]!r} is not on the hour")
        try:
            value = float(row[v_idx])
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {row[v_idx]!r}") from None
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {row[v_idx]!r}")
        found.append((lineno, ts))
        values.append(value)
    stamps = np.array([ts.replace(tzinfo=None) for _, ts in found], dtype="datetime64[s]")
    return stamps, np.array(values, dtype=float), found


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
    dates = np.array(ts.dates, dtype="datetime64[D]")
    stamps = np.datetime_as_string(dates[:, None] + np.arange(ts.n).astype("timedelta64[h]"),
                                   unit="s")
    for day, row in zip(stamps.tolist(), ts.values.tolist()):
        fh.write("".join([f"{t},{v!r}\n" for t, v in zip(day, row)]))


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
