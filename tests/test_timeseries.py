import csv
import io
import os
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randfnn.encoding import encode_days
from randfnn.errors import (
    DuplicateTimestampError,
    ParameterError,
    ParseError,
    ResolutionError,
)
from randfnn import timeseries
from randfnn.timeseries import (
    SynthSpec,
    TimeSeries,
    exclude_days,
    load_csv,
    load_exclusions,
    synth_clean,
    synth_generate,
    write_csv,
)


def csv_for(days, start=date(2015, 1, 5), value=lambda i, h: 100.0 + i + h,
            hours_last_day=24):
    lines = ["timestamp,value"]
    for i in range(days):
        d = start + timedelta(days=i)
        n_hours = hours_last_day if i == days - 1 else 24
        for h in range(n_hours):
            lines.append(f"{d.isoformat()}T{h:02d}:00:00,{value(i, h)}")
    return io.StringIO("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_two_complete_days(self):
        ts = load_csv(csv_for(2))
        assert ts.n_days == 2 and ts.n == 24
        assert ts.dates == (date(2015, 1, 5), date(2015, 1, 6))
        assert ts.values[1, 3] == 104.0

    def test_subhourly_row_rejected(self):
        text = csv_for(1).getvalue().replace("T05:00:00", "T05:30:00", 1)
        with pytest.raises(ResolutionError):
            load_csv(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no observations"):
            load_csv(io.StringIO(""))
        with pytest.raises(ParseError, match="no observations"):
            load_csv(io.StringIO("timestamp,value\n"))

    def test_duplicate_timestamp(self):
        base = csv_for(1).getvalue().splitlines()
        base.insert(5, base[4])  # repeat one row
        with pytest.raises(DuplicateTimestampError):
            load_csv(io.StringIO("\n".join(base)))

    def test_out_of_order(self):
        base = csv_for(1).getvalue().splitlines()
        base[3], base[4] = base[4], base[3]
        with pytest.raises(ParseError, match="not increasing"):
            load_csv(io.StringIO("\n".join(base)))

    def test_hour_gap_inside_day_rejected(self):
        base = csv_for(1).getvalue().splitlines()
        del base[10]  # drop one mid-day hour
        with pytest.raises(ResolutionError, match="non-hourly"):
            load_csv(io.StringIO("\n".join(base)))

    def test_whole_missing_day_is_gap(self):
        a = csv_for(1, start=date(2015, 1, 5)).getvalue()
        b = csv_for(1, start=date(2015, 1, 7)).getvalue().splitlines()[1:]
        ts = load_csv(io.StringIO(a + "\n".join(b)))
        assert ts.dates == (date(2015, 1, 5), date(2015, 1, 7))
        assert not ts.warnings

    def test_partial_trailing_day_dropped_with_warning(self):
        ts = load_csv(csv_for(2, hours_last_day=1))  # 25 hourly rows
        assert ts.n_days == 1
        assert any("incomplete" in w for w in ts.warnings)

    def test_bad_value_names_line(self):
        text = csv_for(1).getvalue().replace("100.0", "oops", 1)
        with pytest.raises(ParseError, match="line 2"):
            load_csv(io.StringIO(text))

    def test_bad_timestamp_names_line(self):
        base = csv_for(1).getvalue().splitlines()
        base[7] = "not-a-time,1.0"
        with pytest.raises(ParseError, match="line 8"):
            load_csv(io.StringIO("\n".join(base)))

    def test_missing_columns(self):
        with pytest.raises(ParseError, match="lacks columns"):
            load_csv(io.StringIO("time,load\n2015-01-01T00:00:00,1.0\n"))

    def test_custom_schema(self):
        text = csv_for(1).getvalue().replace("timestamp,value", "ts,mw")
        ts = load_csv(io.StringIO(text), timestamp_col="ts", value_col="mw")
        assert ts.n_days == 1


def test_write_then_load_round_trip_bit_exact(tmp_path):
    ts = synth_generate(SynthSpec(days=20), seed=3)
    path = tmp_path / "series.csv"
    write_csv(ts, path)
    again = load_csv(path)
    assert again.dates == ts.dates
    np.testing.assert_array_equal(again.values, ts.values)
    first = path.read_text()
    write_csv(again, path)
    assert path.read_text() == first


def _reference_parse_timestamp(text, lineno):
    try:
        ts = datetime.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"line {lineno}: bad timestamp {text!r}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise ResolutionError(f"line {lineno}: timestamp {text!r} is not on the hour")
    return ts


def _reference_parse_rows(fh, timestamp_col, value_col):
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
        ts = _reference_parse_timestamp(row[t_idx], lineno)
        try:
            value = float(row[v_idx])
        except ValueError:
            raise ParseError(f"line {lineno}: bad value {row[v_idx]!r}") from None
        if not np.isfinite(value):
            raise ParseError(f"line {lineno}: non-finite value {row[v_idx]!r}")
        rows.append((ts, value, lineno))
    return rows


def reference_load_csv(source, timestamp_col="timestamp", value_col="value", n=24):
    """load_csv as it read one row at a time with `csv` and `fromisoformat`:
    the oracle for the whole-array reader."""
    if hasattr(source, "read"):
        raw = source.read()
        text = raw.decode() if isinstance(raw, bytes) else raw
        rows = _reference_parse_rows(io.StringIO(text), timestamp_col, value_col)
    else:
        with open(source, "r", newline="") as fh:
            rows = _reference_parse_rows(fh, timestamp_col, value_col)
    if not rows:
        raise ParseError("no observations")
    prev = None
    by_day = {}
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
                      np.zeros(len(dates), dtype=bool), n=n, warnings=tuple(warnings))


def outcome(load, text, **kwargs):
    """What `load` makes of `text`, the same from a text stream, a byte
    stream and a file: the series' dates, value bytes and warnings, or
    the error's type and message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        path.write_text(text, newline="")
        got = [_outcome(load, source, **kwargs)
               for source in (io.StringIO(text), io.BytesIO(text.encode()), path)]
    assert got[1:] == got[:1] * 2
    return got[0]


def _outcome(load, source, **kwargs):
    try:
        ts = load(source, **kwargs)
    except Exception as exc:  # the reference may fail with any type
        return type(exc), str(exc)
    return ts.dates, ts.values.tobytes(), ts.warnings, ts.excluded.tobytes()


def stamped(fmt, days=2, start=datetime(2012, 1, 1), value=lambda k: f"{1000.0 + k!r}",
            newline="\n"):
    """A `timestamp,value` body of `days` whole days with each timestamp
    written by `fmt`."""
    rows = [f"{fmt(start + timedelta(hours=k))},{value(k)}" for k in range(24 * days)]
    return newline.join(["timestamp,value", *rows]) + newline


def with_row(text, k, row):
    """`text` with its k-th data row (0-based) replaced by `row`."""
    lines = text.split("\n")
    lines[k + 1] = row
    return "\n".join(lines)


def iso(t):
    return t.isoformat()


TIMESTAMP_FORMS = {
    "canonical": iso,
    "padded": lambda t: f"  {iso(t)} ",
    "utc_z": lambda t: iso(t) + "Z",
    "offset": lambda t: iso(t) + "+01:00",
    "basic": lambda t: t.strftime("%Y%m%dT%H%M%S"),
    "lowercase_t": lambda t: iso(t).replace("T", "t"),
    "week_date": lambda t: "{0}-W{1:02d}-{2}".format(*t.isocalendar()) + f"T{t.hour:02d}",
    "space_separator": lambda t: f" {t:%Y-%m-%d %H:%M:%S}",
    "hour_only": lambda t: f"{t:%Y-%m-%dT%H}",
    "date_only": lambda t: f"{t:%Y-%m-%d}",
    "milliseconds": lambda t: iso(t) + ".000",
    "quoted": lambda t: f'"{iso(t)}"',
}

ODD_ROWS = {
    "nat": "NaT,1.0",
    "hour_24": "2012-01-01T24:00:00,1.0",
    "today": "today,1.0",
    "year_only": "2012,1.0",
    "year_zero": "0000-01-01T05:00:00,1.0",
    "trailing_nul": "2012-01-01T05:00:00\0,1.0",
    "nul_then_text": "2012-01-01T05:00:00\0junk,1.0",  # S20 keeps only the stamp
    "off_hour": "2012-01-01T05:30:00,1.0",
    "short": "2012-01-01T05:00:00",
    "nan": "2012-01-01T05:00:00,nan",
    "inf": "2012-01-01T05:00:00,inf",
    "padded_value": "2012-01-01T05:00:00, 1.5",
    "exponent": "2012-01-01T05:00:00,1e5",
    "digit_separator": "2012-01-01T05:00:00,1_0",
    "blank_cells": " , ",
    "duplicate": "2012-01-01T04:00:00,1.0",
    "out_of_order": "2012-01-01T03:00:00,1.0",
    "extra_column": "2012-01-01T05:00:00,1.0,x",
}


class TestAgainstTheRowReader:
    """`load_csv` against the row-by-row reader it replaced: the same series
    or the same error, with expectations computed on the running Python."""

    @pytest.mark.parametrize("form", TIMESTAMP_FORMS)
    def test_timestamp_forms(self, form):
        text = stamped(TIMESTAMP_FORMS[form])
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)

    @pytest.mark.parametrize("row", ODD_ROWS)
    def test_odd_rows(self, row):
        text = with_row(stamped(iso), 5, ODD_ROWS[row])
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)

    @pytest.mark.parametrize("stamp", ["2012", "2012-01", "2012-01-01", "+2012-01-01T00:00:00",
                                       "2012-01-01T00:00:00.000000000", "2012-01-01T00",
                                       "0000-01-01T00:00:00"])
    def test_first_rows_numpy_reads_in_order(self, stamp):
        # numpy reads each as a time before the second row's
        text = with_row(stamped(iso), 0, f"{stamp},1.0")
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", " 1.5", "1e5", "1_0", "+7", "١"])
    def test_value_forms(self, value):
        text = stamped(iso, value=lambda k: value)
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)

    @pytest.mark.parametrize("body", ["", "timestamp,value\n", "timestamp,value\n\n\n",
                                      "ts,value\n2012-01-01T00:00:00,1.0\n", "\n"])
    def test_no_rows(self, body):
        assert outcome(load_csv, body) == outcome(reference_load_csv, body)

    def test_columns_found_by_name(self):
        rows = stamped(iso).split("\n")
        text = "\n".join(["value,x,timestamp"] + [
            f"{v},x,{t}" for t, v in (r.split(",") for r in rows[1:-1])]) + "\n"
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)
        assert outcome(load_csv, text) == outcome(load_csv, stamped(iso))

    def test_partial_days_at_both_ends(self):
        text = stamped(iso, days=4)
        lines = text.split("\n")
        text = "\n".join(lines[:1] + lines[4:-8])
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)
        assert len(load_csv(io.StringIO(text)).warnings) == 2

    def test_before_1970(self):
        text = stamped(iso, start=datetime(1969, 12, 30, 22))
        assert outcome(load_csv, text) == outcome(reference_load_csv, text)

    def test_mixed_offsets_read_at_wall_clock_time(self):
        # the row reader compared rows in UTC but grouped them by local
        # date; whole arrays read every row at its local wall-clock time
        offsets = stamped(lambda t: iso(t) + ("+01:00" if t.day == 1 else "+02:00"))
        assert outcome(load_csv, offsets) == outcome(load_csv, stamped(iso))
        assert outcome(reference_load_csv, offsets) == (
            DuplicateTimestampError, "line 26: duplicate timestamp 2012-01-02 00:00:00+02:00")
        mixed = stamped(lambda t: iso(t) + ("+00:00" if t.hour % 2 else ""))
        assert outcome(load_csv, mixed) == outcome(load_csv, stamped(iso))
        with pytest.raises(TypeError):
            reference_load_csv(io.StringIO(mixed))
        # a daylight-saving fall-back repeats an hour of wall-clock time
        fall_back = with_row(stamped(lambda t: iso(t) + "+00:00"), 3,
                             "2012-01-01T02:00:00-01:00,1.0")
        with pytest.raises(DuplicateTimestampError, match="line 5: duplicate timestamp "
                           "2012-01-01 02:00:00-01:00"):
            load_csv(io.StringIO(fall_back))
        with pytest.raises(ResolutionError, match="non-hourly"):
            reference_load_csv(io.StringIO(fall_back))

    def test_canonical_body_is_not_rescanned(self, monkeypatch):
        def rescan(*args):
            raise AssertionError("csv rescan")

        text = stamped(iso, days=3)
        expected = outcome(load_csv, text)
        monkeypatch.setattr(timeseries, "_parse_rows", rescan)
        assert outcome(load_csv, text) == expected
        with pytest.raises(AssertionError, match="csv rescan"):
            load_csv(io.StringIO(stamped(TIMESTAMP_FORMS["space_separator"])))

    def test_benchmark_sized_series(self):
        ts = synth_generate(SynthSpec(days=1461), seed=7)
        buf = io.StringIO()
        write_csv(ts, buf)
        assert outcome(load_csv, buf.getvalue()) == outcome(reference_load_csv, buf.getvalue())



def reference_write_rows(ts, fh):
    """write_csv's body as one `datetime` and one f-string per hour."""
    fh.write("timestamp,value\n")
    for d, row in zip(ts.dates, ts.values):
        base = datetime(d.year, d.month, d.day)
        for h in range(ts.n):
            fh.write(f"{(base + timedelta(hours=h)).isoformat()},{float(row[h])!r}\n")


@pytest.mark.parametrize("n", [24, 3])
def test_write_csv_matches_the_per_hour_writer(n, tmp_path):
    dates = (date(1, 1, 1), date(999, 12, 31), date(2012, 2, 29), date(9999, 12, 31))
    values = np.random.default_rng(0).normal(size=(4, n)) * 10.0 ** np.arange(-4, 20, 24 // n)
    values[0, :2] = (-0.0, 1e16)
    ts = TimeSeries(dates, values, np.zeros(4, dtype=bool), n=n)
    want = io.StringIO()
    reference_write_rows(ts, want)
    write_csv(ts, tmp_path / "series.csv")
    assert (tmp_path / "series.csv").read_bytes() == want.getvalue().encode()
    empty = io.StringIO()
    write_csv(TimeSeries((), np.zeros((0, n)), np.zeros(0, dtype=bool), n=n), empty)
    assert empty.getvalue() == "timestamp,value\n"

FAULTS = {
    "duplicate": ("2012-01-01T04:00:00,1.0", DuplicateTimestampError),
    "out_of_order": ("2012-01-01T03:00:00,1.0", ParseError),
    "non_hourly_day": ("", ResolutionError),  # hour 5 left blank
    "bad_value": ("2012-01-01T05:00:00,oops", ParseError),
    "bad_timestamp": ("not-a-time,1.0", ParseError),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_lines_count_blank_lines_and_crlf(fault, newline, tmp_path):
    row, error = FAULTS[fault]
    lines = with_row(stamped(iso), 5, row).split("\n")
    # after three blank lines, the faulty row is the csv reader's record 10
    text = newline.join(lines[:1] + ["", "", ""] + lines[1:])
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    with pytest.raises(error) as got:
        load_csv(path)
    with pytest.raises(error) as want:
        reference_load_csv(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("line 10:") or fault == "non_hourly_day"
    assert outcome(load_csv, text) == outcome(reference_load_csv, text)
    # a byte stream is read from where it is when passed, and left open
    stream = io.BytesIO(b"preamble\n" + text.encode())
    stream.readline()
    with pytest.raises(error) as from_stream:
        load_csv(stream)
    assert str(from_stream.value) == str(want.value)
    assert not stream.closed


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_path_and_streams_load_alike(newline, tmp_path):
    text = stamped(iso, days=3, newline=newline)
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode())
    stream = io.BytesIO(text.encode())
    read_only = SimpleNamespace(read=io.BytesIO(text.encode()).read)  # no seek, tell, readable
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    with os.fdopen(r, "rb") as pipe:
        loads = [load_csv(path), load_csv(io.StringIO(text)), load_csv(stream),
                 load_csv(read_only), load_csv(pipe)]
    assert not stream.closed
    for ts in loads[1:]:
        assert ts.dates == loads[0].dates and ts.warnings == loads[0].warnings
        assert ts.values.tobytes() == loads[0].values.tobytes()


def test_a_path_is_parsed_without_a_copy_of_its_text(tmp_path):
    path = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=1461), seed=7), path)
    load_csv(path)  # what the first call sets up once is not the load's
    tracemalloc.start()
    try:
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's text as one str and a StringIO copy took 7.5 times its size
    assert peak < 4 * path.stat().st_size


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24, max_size=72)
       .map(lambda v: v[:len(v) // 24 * 24]))
def test_write_then_load_is_bitwise_for_any_finite_floats(values):
    days = len(values) // 24
    ts = TimeSeries(tuple(date(2015, 1, 5) + timedelta(days=k) for k in range(days)),
                    np.reshape(values, (days, 24)), np.zeros(days, dtype=bool))
    buf = io.StringIO()
    write_csv(ts, buf)
    again = load_csv(io.StringIO(buf.getvalue()))
    assert again.dates == ts.dates
    assert again.values.tobytes() == ts.values.tobytes()


class TestExcludeDays:
    def test_flagging(self):
        ts = load_csv(csv_for(7))
        out = exclude_days(ts, {date(2015, 1, 6)})
        assert out.excluded[1] and out.excluded.sum() == 1
        np.testing.assert_array_equal(out.values, ts.values)

    def test_empty_set_identity(self):
        ts = load_csv(csv_for(3))
        out = exclude_days(ts, set())
        assert out.dates == ts.dates
        np.testing.assert_array_equal(out.excluded, ts.excluded)
        assert out.warnings == ts.warnings

    def test_unknown_date_warns(self):
        ts = load_csv(csv_for(3))
        out = exclude_days(ts, {date(2030, 1, 1)})
        assert not out.excluded.any()
        assert len(out.warnings) - len(ts.warnings) == 1


def test_load_exclusions_with_comments(tmp_path):
    p = tmp_path / "holidays.txt"
    p.write_text("# new year\n2015-01-01\n\n2015-04-06  # easter monday\n")
    assert load_exclusions(p) == {date(2015, 1, 1), date(2015, 4, 6)}
    p.write_text("2015-1-bad\n")
    with pytest.raises(ParseError):
        load_exclusions(p)


class TestSplitSeasonal:
    """A series splits into its seasonal (daily) cycles as the rows of its
    day matrix."""

    def test_full_week(self):
        ts = load_csv(csv_for(7, start=date(2015, 1, 5)))  # a Monday
        days = encode_days(ts)
        assert [date.fromordinal(o) for o in days.ordinals.tolist()] == list(ts.dates)
        assert [date.fromordinal(o).weekday() for o in days.ordinals.tolist()] == list(range(7))
        np.testing.assert_array_equal(days.values, ts.values)

    def test_excluded_day_leaves_index_gap(self):
        # manual oracle: days 0..6, Wednesday (index 2) excluded
        ts = load_csv(csv_for(7, start=date(2015, 1, 5)))
        ts = exclude_days(ts, {date(2015, 1, 7)})
        days = encode_days(ts)
        assert (days.ordinals - days.ordinals[0]).tolist() == [0, 1, 3, 4, 5, 6]
        np.testing.assert_array_equal(days.values[2], ts.values[3])
        assert days.row(date(2015, 1, 7)) is None
        assert days.row(date(2015, 1, 8)) == 2

    def test_25_hours_gives_one_sequence_and_warning(self):
        ts = load_csv(csv_for(2, hours_last_day=1))
        assert encode_days(ts).ordinals.size == 1
        assert any("incomplete" in w for w in ts.warnings)

    def test_sequence_count_invariant(self):
        ts = load_csv(csv_for(14))
        ts = exclude_days(ts, {date(2015, 1, 6), date(2015, 1, 11)})
        assert encode_days(ts).ordinals.size == ts.n_days - int(ts.excluded.sum())


class TestSynth:
    def test_deterministic(self):
        a = synth_generate(SynthSpec(days=20), seed=1)
        b = synth_generate(SynthSpec(days=20), seed=1)
        np.testing.assert_array_equal(a.values, b.values)
        c = synth_generate(SynthSpec(days=20), seed=2)
        assert not np.array_equal(a.values, c.values)

    def test_noiseless_weekly_ratio(self):
        # value(t) = value(t-168h) * yearly(t)/yearly(t-168h), exact for
        # zero noise
        spec = SynthSpec(days=30, noise_level=0.0)
        ts = synth_generate(spec, seed=0)
        flat = ts.values.ravel()
        t = np.arange(flat.size)
        yearly = 1.0 + spec.yearly_modulation * np.sin(2 * np.pi * t / 8766.0)
        ratio = yearly[168:] / yearly[:-168]
        np.testing.assert_allclose(flat[168:], flat[:-168] * ratio, rtol=1e-9)

    def test_weekend_means_below_weekday_means(self):
        # oracle: direct group means over 3 years
        ts = synth_generate(SynthSpec(days=3 * 365), seed=5)
        daily_means = ts.values.mean(axis=1)
        weekdays = np.array([d.weekday() for d in ts.dates])
        weekday_mean = daily_means[weekdays < 5].mean()
        sat_mean = daily_means[weekdays == 5].mean()
        sun_mean = daily_means[weekdays == 6].mean()
        assert sun_mean < sat_mean < weekday_mean

    def test_positive_values(self):
        ts = synth_generate(SynthSpec(days=100, noise_level=0.5), seed=9)
        assert np.all(ts.values > 0)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            SynthSpec(days=5)
        with pytest.raises(ParameterError):
            SynthSpec(days=20, daily_amplitude=0.0)
        with pytest.raises(ParameterError):
            SynthSpec(days=20, base=-1.0)
        with pytest.raises(ParameterError):
            SynthSpec(days=20, weekly_modulation=1.5)
        with pytest.raises(ParameterError):
            SynthSpec(days=20, noise_level=-0.1)

    def test_from_dict(self):
        spec = SynthSpec.from_dict({"days": 15, "start_date": "2013-06-01",
                                    "noise_level": 0.0})
        assert spec.start_date == date(2013, 6, 1)
        with pytest.raises(ParameterError):
            SynthSpec.from_dict({"days": 15, "bogus": 1})

    def test_clean_formula_is_the_noise_free_series(self):
        spec = SynthSpec(days=21, noise_level=0.0)
        ts = synth_generate(spec, seed=4)
        np.testing.assert_allclose(ts.values, synth_clean(spec), rtol=1e-12)


def test_timeseries_immutability():
    ts = synth_generate(SynthSpec(days=15), seed=0)
    with pytest.raises(ValueError):
        ts.values[0, 0] = 1.0
    with pytest.raises(Exception):
        ts.n = 12  # frozen dataclass


def test_timeseries_invariant_checks():
    with pytest.raises(ParameterError):
        TimeSeries((date(2015, 1, 2), date(2015, 1, 1)),
                   np.ones((2, 24)), np.zeros(2, dtype=bool))
    with pytest.raises(ParameterError):
        TimeSeries((date(2015, 1, 1),), np.ones((1, 23)), np.zeros(1, dtype=bool))
    with pytest.raises(ParameterError):
        TimeSeries((date(2015, 1, 1),), np.full((1, 24), np.nan),
                   np.zeros(1, dtype=bool))
