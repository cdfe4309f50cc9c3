import csv
from datetime import date

import numpy as np
import pytest

from randfnn.errors import ExperimentError
from randfnn.evaluation import summarize
from randfnn.pipeline import ExperimentConfig, run_experiment, write_report_bundle
from randfnn.randnn import HyperParams
from randfnn.timeseries import SynthSpec, synth_generate
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


def test_per_day_bundle_same_for_one_and_two_jobs(two_years, tmp_path):
    bundles = []
    for jobs in (1, 2):
        config = short_config(
            methods=("ddm", "ram", "naive"), test_end=date(2013, 1, 4), trials=3,
            tuning="per-day", jobs=jobs,
            grids={"ddm": Grid((5, 10), (5.0, 9.0)), "ram": Grid((5,), (0.2, 0.4))})
        report = run_experiment(config, two_years)
        write_report_bundle(report, tmp_path / f"jobs{jobs}")
        bundles.append({f: (tmp_path / f"jobs{jobs}" / f).read_bytes() for f in BUNDLE})
    assert bundles[0] == bundles[1]
    assert b'"jobs"' not in bundles[0]["report.json"]
    scopes = [line.split(b",")[:2] for line in bundles[0]["tuning.csv"].splitlines()[1:]]
    days = [b"2013-01-01", b"2013-01-02", b"2013-01-03", b"2013-01-04"]
    assert list(dict.fromkeys(tuple(s) for s in scopes)) == [
        (method, day) for day in days for method in (b"ddm", b"ram")]


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
