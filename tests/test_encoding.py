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
    encode_x,
)
from randfnn.errors import EmptyTrainingSet, ParameterError
from randfnn.timeseries import SynthSpec, TimeSeries, exclude_days, synth_generate

import reference as ref
from conftest import make_series


class TestEncodeX:
    def test_constant_sequence_rejected(self):
        x, _, _, valid = encode_x([[2.0, 2.0, 2.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
        assert valid.tolist() == [False, True]
        np.testing.assert_array_equal(x[0], 0.0)
        with pytest.raises(ref.ConstantDay):
            ref.encode_x([2.0, 2.0, 2.0, 2.0])

    def test_overflowing_day_rejected_without_warning(self):
        # the mean overflows, then the squares; any finite series still loads
        x, _, _, valid = encode_x([[-1.7e308, -1.7e308, 0.0], [0.0, 0.0, 1e155],
                                   [1.0, 2.0, 3.0]])
        assert valid.tolist() == [False, False, True]
        np.testing.assert_array_equal(x[:2], 0.0)

    def test_direct_arithmetic(self):
        x, mean, dispersion, valid = encode_x([[1.0, 2.0, 3.0, 4.0]])
        assert mean[0] == 2.5 and valid[0]
        assert dispersion[0] == pytest.approx(math.sqrt(5.0), rel=1e-15)
        np.testing.assert_allclose(
            x[0], np.array([-1.5, -0.5, 0.5, 1.5]) / math.sqrt(5.0), atol=1e-12)
        np.testing.assert_allclose(x[0], [-0.67082, -0.22361, 0.22361, 0.67082],
                                   atol=5e-6)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=48))
    @settings(max_examples=200)
    def test_unit_norm_zero_mean(self, values):
        x, _, _, valid = encode_x([values])
        if valid[0]:
            assert abs(x[0].mean()) < 1e-10
            assert abs(np.linalg.norm(x[0]) - 1.0) < 1e-10

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(0)
        e = rng.normal(100.0, 5.0, 24)
        x = encode_x([e, 3.5 * e + 40.0])[0]
        np.testing.assert_allclose(x[0], x[1], atol=1e-10)


class TestEncodeY:
    def test_same_day_reduces_to_x(self):
        e = [3.0, 1.0, 4.0, 1.0, 5.0]
        x, coding = ref.encode_x(e)
        np.testing.assert_array_equal(ref.encode_y(e, coding), x)

    def test_direct_arithmetic(self):
        y = ref.encode_y([12.0, 8.0], CodingVars(10.0, 2.0))
        np.testing.assert_array_equal(y, [1.0, -1.0])

    def test_identity_coding(self):
        e = np.array([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(ref.encode_y(e, CodingVars(0.0, 1.0)), e)

    def test_not_normalized_in_general(self):
        y = ref.encode_y([50.0, 60.0], CodingVars(10.0, 2.0))
        assert abs(y.mean()) > 1.0  # carries the level difference


class TestDecode:
    def test_inverse_of_encode_y(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            e_in = rng.normal(100, 10, 24)
            e_fut = rng.normal(120, 15, 24)
            _, coding = ref.encode_x(e_in)
            back = decode(ref.encode_y(e_fut, coding), coding)
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


def pair_dates(ts, weekday, tau, cutoff):
    """Target and input dates of the admissible pairs, in row order."""
    targets, inputs, _ = _pair_rows(ts, weekday, tau, cutoff)
    return ts.dates[targets].tolist(), ts.dates[inputs].tolist()


class TestBuildTrainingSet:
    # 2015-01-05 is a Monday; three full weeks starting there
    START = date(2015, 1, 5)

    def test_three_mondays(self):
        ts = make_series(self.START, 22)  # covers Mondays of weeks 2..4
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(ts, target_weekday=0, tau=1, cutoff=cutoff)
        # manual enumeration: Mondays at offsets 7, 14, 21; inputs are Sundays
        assert len(phi) == 3
        targets, inputs = pair_dates(ts, 0, 1, cutoff)
        assert targets == [self.START + timedelta(days=o) for o in (7, 14, 21)]
        assert all(d.weekday() == 6 for d in inputs)

    def test_excluded_input_day_drops_pair(self):
        omit = {self.START + timedelta(days=13)}  # Sunday of week 2
        ts = make_series(self.START, 22, omit=omit)
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(ts, 0, 1, cutoff)
        assert len(phi) == 2
        assert self.START + timedelta(days=14) not in pair_dates(ts, 0, 1, cutoff)[0]
        # excluding the day is omitting it
        excluded = exclude_days(make_series(self.START, 22), omit)
        assert len(build_training_set(excluded, 0, 1, cutoff)) == 2
        assert pair_dates(excluded, 0, 1, cutoff) == pair_dates(ts, 0, 1, cutoff)

    def test_cutoff_before_first_target(self):
        ts = make_series(self.START, 22)
        with pytest.raises(EmptyTrainingSet):
            build_training_set(ts, 0, 1, self.START + timedelta(days=7))

    def test_anti_leakage(self):
        ts = make_series(self.START, 40)
        cutoff = self.START + timedelta(days=25)
        targets, inputs = pair_dates(ts, 3, 1, cutoff)
        assert len(build_training_set(ts, 3, 1, cutoff)) == len(targets) == 4
        assert all(d < cutoff for d in targets + inputs)

    def test_pair_coding_comes_from_input_day(self):
        ts = make_series(self.START, 22)
        cutoff = self.START + timedelta(days=22)
        phi = build_training_set(ts, 0, 1, cutoff)
        for k, (target, inp) in enumerate(zip(*pair_dates(ts, 0, 1, cutoff))):
            x, coding = ref.encode_x(ts.values[ts.row(inp)])
            np.testing.assert_array_equal(phi.x[k], x)
            np.testing.assert_array_equal(
                phi.y[k], ref.encode_y(ts.values[ts.row(target)], coding))

    def test_tau_two_uses_exact_gap(self):
        ts = make_series(self.START, 22)
        targets, inputs = pair_dates(ts, 0, 2, self.START + timedelta(days=22))
        assert targets and all((t - i).days == 2 for t, i in zip(targets, inputs))
        assert all(i.weekday() == 5 for i in inputs)

    def test_degenerate_input_counted(self):
        ts = make_series(self.START, 22, flat={self.START + timedelta(days=13)})
        phi = build_training_set(ts, 0, 1, self.START + timedelta(days=22))
        assert len(phi) == 2
        assert phi.n_skipped_degenerate == 1

    def test_bad_tau(self):
        with pytest.raises(ParameterError):
            build_training_set(make_series(self.START, 22), 0, 0, self.START)


def reference_training_set(ts, weekday, tau, cutoff):
    """Per-pair reference for `build_training_set`: walk the dates and
    encode each pair's input and target days one vector at a time.
    Returns (x rows, y rows, number of constant input days)."""
    by_date = dict(zip(ts.dates.tolist(), ts.values))
    xs, ys, skipped = [], [], 0
    for d in sorted(by_date):
        inp = d - timedelta(days=tau)
        if d.weekday() != weekday or d >= cutoff or inp not in by_date:
            continue
        try:
            x, coding = ref.encode_x(by_date[inp])
        except ref.ConstantDay:
            skipped += 1
            continue
        xs.append(x)
        ys.append(ref.encode_y(by_date[d], coding))
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
    ts = TimeSeries(ts.dates[keep], values[keep])
    return exclude_days(ts, [date(2012, 3, 5), date(2013, 7, 1), date(2014, 12, 25)])


class TestEncodeDays:
    """A series encodes each of its days once, as its row of `encode_x`."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_encode_x(self, seed):
        ts = awkward_series(seed)
        # the excluded days are gone, the rest kept in date order
        synth = synth_generate(SynthSpec(days=1461), seed)
        gone = [30, 31, 32, 900] + [synth.row(d) for d in
                                    (date(2012, 3, 5), date(2013, 7, 1), date(2014, 12, 25))]
        assert ts.dates.tolist() == np.delete(synth.dates, gone).tolist()
        for row in range(ts.n_days):
            try:
                x, coding = ref.encode_x(ts.values[row])
            except ref.ConstantDay:
                assert not ts.valid[row]
                continue
            assert ts.valid[row]
            assert ts.x[row].tobytes() == x.tobytes()
            assert (ts.mean[row], ts.dispersion[row]) == (coding.mean, coding.dispersion)
        assert np.count_nonzero(~ts.valid) == 4

    def test_training_sets_match_per_pair_reference(self):
        ts = awkward_series(0)
        cutoffs = [date(2012, 1, 1) + timedelta(days=i) for i in range(0, 1462, 53)]
        for tau in (1, 2, 7):
            for weekday in range(7):
                full = None
                for cutoff in reversed(cutoffs):
                    xs, ys, skipped = reference_training_set(ts, weekday, tau, cutoff)
                    if not xs:
                        with pytest.raises(EmptyTrainingSet):
                            build_training_set(ts, weekday, tau, cutoff)
                        continue
                    phi = build_training_set(ts, weekday, tau, cutoff)
                    assert phi.x.tobytes() == np.array(xs).tobytes()
                    assert phi.y.tobytes() == np.array(ys).tobytes()
                    assert phi.n_skipped_degenerate == skipped
                    # every set is a row prefix of the weekday's latest set
                    full = full or phi
                    assert full.x[:len(phi)].tobytes() == phi.x.tobytes()

    def test_row_lookup(self):
        start = date(2015, 1, 5)
        ts = make_series(start, 10, omit={start + timedelta(days=4)})
        assert ts.row(start) == 0
        assert ts.row(start + timedelta(days=5)) == 4
        for absent in (4, -1, 10):
            assert ts.row(start + timedelta(days=absent)) is None

    def test_arrays_read_only(self):
        ts = make_series(date(2015, 1, 5), 3)
        with pytest.raises(ValueError):
            ts.x[0, 0] = 9.0


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
