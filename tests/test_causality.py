"""Strict causality: nothing from a test day or later reaches the
training, tuning or forecast of that day.

Each example multiplies some hours on a test day D or later by positive
factors and checks that every forecast of every test day up to D, and
every hyperparameter search scoped before it, is bitwise unchanged.
"""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from randfnn import pipeline
from randfnn.pipeline import ExperimentConfig, run_experiment
from randfnn.randnn import HyperParams
from randfnn.timeseries import SynthSpec, TimeSeries, synth_generate
from randfnn.tuning import Grid

# 2012-01-01 (a Sunday) .. 2012-02-25; each weekday has 5 or 6 pairs
# before the test week, and the week after it can be perturbed too
SERIES = synth_generate(SynthSpec(days=56), 4)
TEST_START, TEST_END = date(2012, 2, 12), date(2012, 2, 18)
FIRST_ROW = (TEST_START - SERIES.dates[0]).days
LAST_ROW = (TEST_END - SERIES.dates[0]).days

METHODS = ("standard", "ram", "ralpham", "ddm", "naive")
GRIDS = {"standard": Grid((3, 5), (0.2, 0.4)), "ram": Grid((3, 5), (0.2, 0.4)),
         "ralpham": Grid((3, 5), (20.0, 40.0)), "ddm": Grid((3, 5), (1.0, 2.0))}
FIXED = {"standard": HyperParams("standard", 5, 0.4), "ram": HyperParams("ram", 5, 0.4),
         "ralpham": HyperParams("ralpham", 5, 30.0), "ddm": HyperParams("ddm", 5, 2.0)}
TUNINGS = ("fixed", "once", "per-day")


def config(tuning):
    return ExperimentConfig(methods=METHODS, test_start=TEST_START, test_end=TEST_END,
                            trials=2, tuning=tuning, grids=GRIDS, fixed_params=FIXED,
                            cv_folds=2, trials_per_fold=1)


@pytest.fixture(scope="module")
def in_process():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_usable_cpus", lambda: 1)
        yield


@pytest.fixture(scope="module")
def baseline(in_process):
    return {tuning: run_experiment(config(tuning), SERIES) for tuning in TUNINGS}


@st.composite
def perturbations(draw):
    """(D, perturbed series): hours from some hour of D on, each scaled by
    a factor in [0.5, 2]."""
    row = draw(st.integers(FIRST_ROW, LAST_ROW))
    start = row * SERIES.n + draw(st.integers(0, SERIES.n - 1))
    factors = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3 * SERIES.n))
    values = SERIES.values.copy()
    flat = values.reshape(-1)
    stop = min(start + len(factors), flat.size)
    flat[start:stop] *= factors[:stop - start]
    return SERIES.dates[row], TimeSeries(SERIES.dates, values, SERIES.excluded)


def scoped_up_to(report, day):
    """The report's tuning tables scoped to a weekday or to a day <= `day`."""
    return [(m, scope, r) for m, scope, r in report.tune_tables
            if not scope[0].isdigit() or date.fromisoformat(scope) <= day]


@pytest.mark.parametrize("tuning", TUNINGS)
@given(perturbation=perturbations())
@settings(max_examples=12, deadline=None)
def test_later_values_leave_earlier_forecasts_unchanged(baseline, tuning, perturbation):
    day, ts = perturbation
    assume(np.all(np.ptp(ts.values, axis=1) > 0))
    base = baseline[tuning]
    assert base.test_days == [TEST_START + timedelta(days=i) for i in range(7)]
    report = run_experiment(config(tuning), ts)
    earlier = [d for d in base.test_days if d <= day]
    assert [d for d in report.test_days if d <= day] == earlier
    assert [s for s in report.skipped if s[0] <= day] == [s for s in base.skipped if s[0] <= day]
    for method in METHODS:
        # test days are in date order, so the earlier ones lead both arrays
        k = len(earlier)
        assert report.forecasts[method][:k].tobytes() == base.forecasts[method][:k].tobytes()
    assert scoped_up_to(report, day) == scoped_up_to(base, day)
