import csv
import os
from datetime import date, timedelta

import numpy as np
import pytest

from randfnn import pipeline
from randfnn.encoding import _pair_rows, build_training_set, encode_days
from randfnn.errors import EmptyTrainingSet, ExperimentError, ParameterError
from randfnn.evaluation import summarize
from randfnn.pipeline import ExperimentConfig, run_experiment, write_report_bundle
from randfnn.randnn import HyperParams
from randfnn.timeseries import SynthSpec, TimeSeries, exclude_days, synth_generate
from randfnn.tuning import Grid

BUNDLE = ("forecasts.csv", "ape_records.csv", "tuning.csv", "report.json")


@pytest.fixture(scope="module")
def two_years():
    # 2012-01-01 .. 2012-12-30: each weekday has about 52 training pairs
    # before 2013, so 5-fold training sets hold 41 and ddm's k <= 40
    return synth_generate(SynthSpec(days=730), 0)


def short_config(**fields):
    base = dict(methods=("ddm", "naive"), test_start=date(2013, 1, 1),
                test_end=date(2013, 1, 2), trials=2, tuning="once", trials_per_fold=1)
    return ExperimentConfig(**{**base, **fields})


def test_ddm_tuning_on_short_history_skips_unfit_gridpoints(two_years, tmp_path):
    config = short_config(grids={"ddm": Grid((5,), (25.0, 41.0))})
    report = run_experiment(config, two_years)
    assert report.test_days == [date(2013, 1, 1), date(2013, 1, 2)]
    write_report_bundle(report, tmp_path)
    with open(tmp_path / "tuning.csv", newline="") as fh:
        rows = [(r["scope"], r["smoothing"], r["mean_error"], r["std_error"], r["selected"])
                for r in csv.DictReader(fh)]
    for scope in ("weekday=1", "weekday=2"):
        fitted = [r for r in rows if r[0] == scope and r[1] == "25.0"]
        assert len(fitted) == 1 and fitted[0][2] != "" and fitted[0][4] == "1"
        assert (scope, "41.0", "", "", "0") in rows


def test_ddm_weekday_with_no_fitting_gridpoint_is_skipped(two_years):
    config = short_config(grids={"ddm": Grid((5,), (41.0, 45.0))})
    with pytest.raises(ExperimentError, match="empty tuning history"):
        run_experiment(config, two_years)


GRIDS = {"ddm": Grid((5, 10), (5.0, 9.0)), "ram": Grid((5,), (0.2, 0.4))}
FIXED = {"ddm": HyperParams("ddm", 5, 9.0), "ram": HyperParams("ram", 10, 0.4)}


def run_with_cpus(monkeypatch, cpus, config, ts):
    """run_experiment with `cpus` usable CPUs; also returns the worker
    count of every pool it started."""
    starts = []
    start_pool = pipeline._Stages._start_pool

    def counting_start(self):
        starts.append(self.workers)
        start_pool(self)

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline._Stages, "_start_pool", counting_start)
    return run_experiment(config, ts), starts


def bundle_bytes(report, out):
    write_report_bundle(report, out)
    return {f: (out / f).read_bytes() for f in BUNDLE}


@pytest.mark.parametrize("tuning", ["fixed", "once", "per-day"])
def test_bundle_same_in_process_and_in_pool(two_years, tmp_path, monkeypatch, tuning):
    config = short_config(methods=("ddm", "ram", "naive"), test_end=date(2013, 1, 4), trials=3,
                          tuning=tuning, grids=GRIDS, fixed_params=FIXED)
    alone, starts = run_with_cpus(monkeypatch, 1, config, two_years)
    assert starts == []
    pooled, starts = run_with_cpus(monkeypatch, 2, config, two_years)
    assert starts == [2]
    assert bundle_bytes(alone, tmp_path / "alone") == bundle_bytes(pooled, tmp_path / "pool")
    if tuning == "per-day":
        scopes = [tuple(line.split(b",")[:2])
                  for line in (tmp_path / "pool" / "tuning.csv").read_bytes().splitlines()[1:]]
        days = [b"2013-01-01", b"2013-01-02", b"2013-01-03", b"2013-01-04"]
        assert list(dict.fromkeys(scopes)) == [
            (method, day) for day in days for method in (b"ddm", b"ram")]


def test_worker_parameter_error_reaches_the_caller(two_years, monkeypatch):
    # about 52 pairs per weekday before 2013: no neighbourhood of k=60 exists
    config = short_config(test_end=date(2013, 1, 3), tuning="fixed",
                          fixed_params={"ddm": HyperParams("ddm", 5, 60.0)})
    errors = []
    for cpus in (1, 2):
        with pytest.raises(ParameterError) as info:
            run_with_cpus(monkeypatch, cpus, config, two_years)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] is ParameterError and "k=60" in errors[0][1]


def worker_environ(days, key):
    return os.environ.get(key)


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with pipeline._Stages([], 2) as stages:
        seen = stages.map(worker_environ, list(pipeline._BLAS_THREADS) * 2)
        assert stages.pool is not None
    assert seen == ["1"] * 6
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "OMP_NUM_THREADS" not in os.environ


def test_missing_naive_reference_skips_the_day_for_every_method(two_years, tmp_path,
                                                                monkeypatch):
    # 2012-12-25 is 2013-01-01's naive reference; the models could run that day
    ts = exclude_days(two_years, [date(2012, 12, 25)])
    config = short_config(methods=("ram", "ddm", "naive"), test_end=date(2013, 1, 4),
                          tuning="fixed", fixed_params=FIXED)
    report, starts = run_with_cpus(monkeypatch, 2, config, ts)
    assert starts == [2]
    assert report.skipped == [(date(2013, 1, 1), "missing naive reference")]
    assert report.test_days == [date(2013, 1, d) for d in (2, 3, 4)]
    write_report_bundle(report, tmp_path)
    keys: dict = {}
    with open(tmp_path / "ape_records.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            keys.setdefault(r["method"], []).append((r["date"], r["hour"]))
    assert set(keys) == set(config.methods)
    expected = [(f"2013-01-0{d}", str(h)) for d in (2, 3, 4) for h in range(24)]
    assert all(k == expected for k in keys.values())


def test_screen_matches_build_training_set():
    # 2012-01-01 is a Sunday. Mondays 01-02 (constant), 01-09 (excluded)
    # and 01-16 (gap) leave Tuesday targets without a usable input day.
    synth = synth_generate(SynthSpec(days=42), 3)
    values = synth.values.copy()
    values[1] = 7.0
    keep = [i for i, d in enumerate(synth.dates) if d not in (date(2012, 1, 5), date(2012, 1, 16))]
    ts = TimeSeries(tuple(synth.dates[i] for i in keep), values[keep], np.zeros(len(keep), bool))
    days = encode_days(exclude_days(ts, [date(2012, 1, 4), date(2012, 1, 9)]))
    candidates = [date(2012, 1, 1) + timedelta(days=i) for i in range(45)]
    reasons = set()
    for tau in (1, 2, 7):
        config = short_config(methods=("ram",), tau=tau, tuning="fixed", fixed_params=FIXED)
        for day in candidates:
            try:
                build_training_set(days, day.weekday(), tau, cutoff=day)
                empty = False
            except EmptyTrainingSet:
                empty = True
            reason = pipeline._screen_day(day, days, config)
            reasons.add(reason)
            if reason in (None, "empty training set"):
                assert (reason is not None) == empty
    first_tuesday = _pair_rows(days, 1, 1, date(2012, 2, 12))[0][0]
    assert days.ordinals[first_tuesday] == date(2012, 1, 24).toordinal()
    assert {None, "empty training set", "missing input pattern",
            "degenerate input pattern", "missing or excluded actual day"} <= reasons


@pytest.fixture(scope="module")
def sixty_days():
    # 2012-01-01 (a Sunday) .. 2012-02-29: before 2012-02-02 the Monday to
    # Wednesday targets have 5 training pairs each, Thursday to Sunday 4
    return synth_generate(SynthSpec(days=60), 0)


@pytest.mark.parametrize("tuning", ["once", "per-day"])
def test_fewer_pairs_than_folds_skips_the_weekday(sixty_days, tmp_path, tuning):
    config = short_config(methods=("ram", "naive"), test_start=date(2012, 2, 2),
                          test_end=date(2012, 2, 6), trials=1, tuning=tuning,
                          grids={"ram": Grid((5,), (0.4,))})
    report = run_experiment(config, sixty_days)
    assert report.test_days == [date(2012, 2, 6)]
    assert report.skipped == [(date(2012, 2, d), "empty tuning history") for d in (2, 3, 4, 5)]
    unfit = [result for _, _, result in report.tune_tables if result.best is None]
    assert len(unfit) == 4
    assert all(p.mean_error is None and p.std_error is None for r in unfit for p in r.table)
    write_report_bundle(report, tmp_path)
    with open(tmp_path / "tuning.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["selected"] for r in rows) == ["0", "0", "0", "0", "1"]


def test_scores_match_per_trial_reference(two_years):
    config = short_config(methods=("ram", "naive"), test_end=date(2013, 1, 5), trials=4,
                          tuning="fixed", fixed_params={"ram": HyperParams("ram", 10, 0.4)})
    report = run_experiment(config, two_years)
    for method in config.methods:
        actual, forecast = [], []
        for d in report.test_days:
            for row in report.forecasts[method][d]:
                actual.append(report.actuals[d])
                forecast.append(row)
            block = report.forecasts[method][d]
            ape = np.abs(100.0 * (report.actuals[d] - block) / report.actuals[d]).mean(axis=0)
            for h, v in enumerate(ape):
                assert report.ape_by_key[method][(d, h)] == v
        assert report.summaries[method] == summarize(np.concatenate(actual),
                                                     np.concatenate(forecast))
