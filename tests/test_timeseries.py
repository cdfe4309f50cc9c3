import io
from datetime import date, timedelta

import numpy as np
import pytest

from randfnn.encoding import encode_days
from randfnn.errors import (
    DuplicateTimestampError,
    ParameterError,
    ParseError,
    ResolutionError,
)
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
