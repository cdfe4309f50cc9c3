import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randfnn.encoding import (
    CodingVars,
    TrainingSet,
    _pair_rows,
    build_training_set,
    decode,
    encode_days,
    encode_x,
    encode_y,
)
from randfnn.errors import DegenerateDispersion, EmptyTrainingSet, ParameterError
from randfnn.timeseries import SynthSpec, TimeSeries, exclude_days, synth_generate

from conftest import make_days, make_series


class TestEncodeX:
    def test_constant_sequence_rejected(self):
        with pytest.raises(DegenerateDispersion):
            encode_x([2.0, 2.0, 2.0, 2.0])

    def test_direct_arithmetic(self):
        x, coding = encode_x([1.0, 2.0, 3.0, 4.0])
        assert coding.mean == 2.5
        assert coding.dispersion == pytest.approx(math.sqrt(5.0), rel=1e-15)
        np.testing.assert_allclose(
            x, np.array([-1.5, -0.5, 0.5, 1.5]) / math.sqrt(5.0), atol=1e-12)
        np.testing.assert_allclose(x, [-0.67082, -0.22361, 0.22361, 0.67082],
                                   atol=5e-6)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=48))
    @settings(max_examples=200)
    def test_unit_norm_zero_mean(self, values):
        e = np.asarray(values)
        try:
            x, _ = encode_x(e)
        except DegenerateDispersion:
            return
        assert abs(x.mean()) < 1e-10
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(0)
        e = rng.normal(100.0, 5.0, 24)
        x1, _ = encode_x(e)
        x2, _ = encode_x(3.5 * e + 40.0)
        np.testing.assert_allclose(x1, x2, atol=1e-10)


class TestEncodeY:
    def test_same_day_reduces_to_x(self):
        e = [3.0, 1.0, 4.0, 1.0, 5.0]
        x, coding = encode_x(e)
        np.testing.assert_array_equal(encode_y(e, coding), x)

    def test_direct_arithmetic(self):
        y = encode_y([12.0, 8.0], CodingVars(10.0, 2.0))
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_identity_coding(self):
        e = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(encode_y(e, CodingVars(0.0, 1.0)), e)

    def test_not_normalized_in_general(self):
        y = encode_y([50.0, 60.0], CodingVars(10.0, 2.0))
        assert abs(y.mean()) > 1.0  # carries the level difference


class TestDecode:
    def test_inverse_of_encode_y(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e_in = rng.normal(100, 10, 24)
            e_fut = rng.normal(120, 15, 24)
            _, coding = encode_x(e_in)
            back = decode(encode_y(e_fut, coding), coding)
            np.testing.assert_allclose(back, e_fut, rtol=1e-12)

    def test_direct_arithmetic(self):
        np.testing.assert_array_equal(
            decode([0.5, -0.5], CodingVars(10.0, 2.0)), [11.0, 9.0])

    def test_identity_coding(self):
        y = np.array([0.3, -1.2])
        np.testing.assert_array_equal(decode(y, CodingVars(0.0, 1.0)), y)


def test_coding_vars_requires_positive_dispersion():
    with pytest.raises(ParameterError):
        CodingVars(0.0, 0.0)
    with pytest.raises(ParameterError):
        CodingVars(0.0, -1.0)


def pair_dates(days, weekday, tau, cutoff):
    """Target and input dates of the admissible pairs, in row order."""
    targets, inputs, _ = _pair_rows(days, weekday, tau, cutoff)
    return ([date.fromordinal(o) for o in days.ordinals[targets].tolist()],
            [date.fromordinal(o) for o in days.ordinals[inputs].tolist()])


class TestBuildTrainingSet:
    # 2015-01-05 is a Monday; three full weeks starting there
    START = date(2015, 1, 5)

    def test_three_mondays(self):
        days = make_days(self.START, 22)  # covers Mondays of weeks 2..4
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(days, target_weekday=0, tau=1, cutoff=cutoff)
        # manual enumeration: Mondays at offsets 7, 14, 21; inputs are Sundays
        assert len(phi) == 3
        targets, inputs = pair_dates(days, 0, 1, cutoff)
        assert targets == [self.START + timedelta(days=o) for o in (7, 14, 21)]
        assert all(d.weekday() == 6 for d in inputs)

    def test_excluded_input_day_drops_pair(self):
        omit = {self.START + timedelta(days=13)}  # Sunday of week 2
        days = make_days(self.START, 22, omit=omit)
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(days, 0, 1, cutoff)
        assert len(phi) == 2
        assert self.START + timedelta(days=14) not in pair_dates(days, 0, 1, cutoff)[0]

    def test_cutoff_before_first_target(self):
        days = make_days(self.START, 22)
        with pytest.raises(EmptyTrainingSet):
            build_training_set(days, 0, 1, self.START + timedelta(days=7))

    def test_anti_leakage(self):
        days = make_days(self.START, 40)
        cutoff = self.START + timedelta(days=25)
        targets, inputs = pair_dates(days, 3, 1, cutoff)
        assert len(build_training_set(days, 3, 1, cutoff)) == len(targets) == 4
        assert all(d < cutoff for d in targets + inputs)

    def test_pair_coding_comes_from_input_day(self):
        ts = make_series(self.START, 22)
        days = encode_days(ts)
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(days, 0, 1, cutoff)
        for k, (target, inp) in enumerate(zip(*pair_dates(days, 0, 1, cutoff))):
            x, coding = encode_x(ts.values[ts.dates.index(inp)])
            np.testing.assert_array_equal(phi.x[k], x)
            np.testing.assert_array_equal(
                phi.y[k], encode_y(ts.values[ts.dates.index(target)], coding))

    def test_tau_two_uses_exact_gap(self):
        days = make_days(self.START, 22)
        targets, inputs = pair_dates(days, 0, 2, self.START + timedelta(days=22))
        assert targets and all((t - i).days == 2 for t, i in zip(targets, inputs))
        assert all(i.weekday() == 5 for i in inputs)

    def test_degenerate_input_counted(self):
        days = make_days(self.START, 22, flat={self.START + timedelta(days=13)})
        phi = build_training_set(days, 0, 1, self.START + timedelta(days=22))
        assert len(phi) == 2
        assert phi.n_skipped_degenerate == 1

    def test_bad_tau(self):
        with pytest.raises(ParameterError):
            build_training_set(make_days(self.START, 22), 0, 0, self.START)


def reference_training_set(ts, weekday, tau, cutoff):
    """Per-pair reference for `build_training_set`: walk the dates and
    encode each pair's input and target days one vector at a time.
    Returns (x rows, y rows, number of constant input days)."""
    by_date = {d: v for d, v, e in zip(ts.dates, ts.values, ts.excluded) if not e}
    xs, ys, skipped = [], [], 0
    for d in sorted(by_date):
        inp = d - timedelta(days=tau)
        if d.weekday() != weekday or d >= cutoff or inp not in by_date:
            continue
        try:
            x, coding = encode_x(by_date[inp])
        except DegenerateDispersion:
            skipped += 1
            continue
        xs.append(x)
        ys.append(encode_y(by_date[d], coding))
    return xs, ys, skipped


def awkward_series(seed):
    """Four years of synth days with gaps, excluded days and constant or
    near-constant days."""
    ts = synth_generate(SynthSpec(days=1461), seed)
    values = ts.values.copy()
    values[[9, 400, 401]] = 7.0
    values[700] = 1e6 + 1e-9 * np.arange(24)  # below the dispersion floor
    keep = np.ones(ts.n_days, dtype=bool)
    keep[[30, 31, 32, 900]] = False
    dates = tuple(d for d, k in zip(ts.dates, keep) if k)
    ts = TimeSeries(dates, values[keep], np.zeros(len(dates), dtype=bool))
    return exclude_days(ts, [date(2012, 3, 5), date(2013, 7, 1), date(2014, 12, 25)])


class TestEncodeDays:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_encode_x(self, seed):
        ts = awkward_series(seed)
        days = encode_days(ts)
        kept = [i for i in range(ts.n_days) if not ts.excluded[i]]
        assert days.ordinals.tolist() == [ts.dates[i].toordinal() for i in kept]
        np.testing.assert_array_equal(days.values, ts.values[kept])
        for row, i in enumerate(kept):
            try:
                x, coding = encode_x(ts.values[i])
            except DegenerateDispersion:
                assert not days.valid[row]
                continue
            assert days.valid[row]
            assert days.x[row].tobytes() == x.tobytes()
            assert (days.mean[row], days.dispersion[row]) == (coding.mean, coding.dispersion)
        assert np.count_nonzero(~days.valid) == 4

    def test_training_sets_match_per_pair_reference(self):
        ts = awkward_series(0)
        days = encode_days(ts)
        cutoffs = [date(2012, 1, 1) + timedelta(days=i) for i in range(0, 1462, 53)]
        for tau in (1, 2, 7):
            for weekday in range(7):
                full = None
                for cutoff in reversed(cutoffs):
                    xs, ys, skipped = reference_training_set(ts, weekday, tau, cutoff)
                    if not xs:
                        with pytest.raises(EmptyTrainingSet):
                            build_training_set(days, weekday, tau, cutoff)
                        continue
                    phi = build_training_set(days, weekday, tau, cutoff)
                    assert phi.x.tobytes() == np.array(xs).tobytes()
                    assert phi.y.tobytes() == np.array(ys).tobytes()
                    assert phi.n_skipped_degenerate == skipped
                    # every set is a row prefix of the weekday's latest set
                    full = full or phi
                    assert full.x[:len(phi)].tobytes() == phi.x.tobytes()

    def test_row_lookup(self):
        start = date(2015, 1, 5)
        days = make_days(start, 10, omit={start + timedelta(days=4)})
        assert days.row(start) == 0
        assert days.row(start + timedelta(days=5)) == 4
        for absent in (4, -1, 10):
            assert days.row(start + timedelta(days=absent)) is None

    def test_arrays_read_only(self):
        days = make_days(date(2015, 1, 5), 3)
        with pytest.raises(ValueError):
            days.x[0, 0] = 9.0


class TestTrainingSet:
    def test_from_arrays(self):
        # the constructor takes any array-like and keeps float copies
        x, y = [[1, 2, 3, 4]] * 3, np.zeros((3, 2), dtype=np.float32)
        phi = TrainingSet(x, y)
        assert len(phi) == 3 and phi.n == 4
        assert phi.x.dtype == phi.y.dtype == np.float64
        assert phi.x.tolist() == x and not np.shares_memory(phi.y, y)

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(EmptyTrainingSet):
            TrainingSet(np.empty((0, 4)), np.empty((0, 4)))
        with pytest.raises(Exception):
            TrainingSet(np.ones((3, 4)), np.ones((2, 4)))

    def test_arrays_read_only(self):
        phi = TrainingSet(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            phi.x[0, 0] = 9.0
