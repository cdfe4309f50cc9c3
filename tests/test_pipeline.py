import csv
import json
from datetime import date

import pytest

from randfnn.errors import ExperimentError
from randfnn.pipeline import ExperimentConfig, run_experiment, write_report_bundle
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
    # report.json records the configuration, jobs included; the rest is equal
    docs = [json.loads(b.pop("report.json")) for b in bundles]
    assert [d["config"].pop("jobs") for d in docs] == [1, 2]
    assert bundles[0] == bundles[1]
    assert docs[0] == docs[1]
    scopes = [line.split(b",")[:2] for line in bundles[0]["tuning.csv"].splitlines()[1:]]
    days = [b"2013-01-01", b"2013-01-02", b"2013-01-03", b"2013-01-04"]
    assert list(dict.fromkeys(tuple(s) for s in scopes)) == [
        (method, day) for day in days for method in (b"ddm", b"ram")]
