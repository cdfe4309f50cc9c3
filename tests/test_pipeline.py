import concurrent.futures
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from randfnn import pipeline
from randfnn.encoding import CodingVars, _pair_rows, build_training_set, encode_days
from randfnn.errors import EmptyTrainingSet, ExperimentError, ParameterError
from randfnn.evaluation import summarize
from randfnn.pipeline import ExperimentConfig, run_experiment, write_report_bundle
from randfnn.randnn import MAX_U, HyperParams, derive_rng
from randfnn.timeseries import SynthSpec, TimeSeries, exclude_days, synth_generate
from randfnn.tuning import Grid, GridPoint, TuneResult

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
    count of every pool it started, each started without large
    start-up arguments."""
    starts = []
    executor = concurrent.futures.ProcessPoolExecutor

    def counting_executor(workers, **kwargs):
        # a spawn pipe holds 64 KiB: larger start-up arguments would make
        # each worker wait for the one before it to read them
        assert len(pickle.dumps(kwargs.get("initargs", ()))) < 64 * 1024
        starts.append(workers)
        return executor(workers, **kwargs)

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_executor)
    return run_experiment(config, ts), starts


def bundle_bytes(report, out):
    write_report_bundle(report, out)
    return {f: (out / f).read_bytes() for f in BUNDLE}


def fail_midway(fh):
    fh.write("method,scope")  # a partial first row, then the disk fills
    raise OSError(28, "No space left on device")


def per_sample_forecasts_csv(report) -> bytes:
    """forecasts.csv as the reference writer formats it: one f-string per
    sample, in method, day, trial and hour order."""
    with io.StringIO(newline="") as fh:
        fh.write("method,date,trial,hour,forecast,actual\n")
        actuals = [[repr(v) for v in row] for row in report.actual.tolist()]
        for method in report.config.methods:
            for d, actual, block in zip(report.test_days, actuals, report.forecasts[method]):
                prefix = f"{method},{d.isoformat()},"
                for trial, row in enumerate(block.tolist()):
                    head = f"{prefix}{trial},"
                    fh.writelines(f"{head}{h},{v!r},{a}\n"
                                  for h, (v, a) in enumerate(zip(row, actual)))
        return fh.getvalue().encode()


def test_forecasts_csv_matches_the_per_sample_writer(two_years, tmp_path, monkeypatch):
    config = short_config(methods=("ddm", "ram", "naive"), tuning="fixed", trials=3,
                          fixed_params=FIXED)
    report, _ = run_with_cpus(monkeypatch, 1, config, two_years)
    actual = report.actual.copy()
    actual[1, :3] = (1e-05, 1e16, -0.0)
    forecasts = {m: f.copy() for m, f in report.forecasts.items()}
    forecasts["ram"][0, 2, -3:] = (-0.0, 1e-05, 1e16)
    forecasts["naive"][1, 0, :2] = (1e16, -0.0)
    report = dataclasses.replace(report, actual=actual, forecasts=forecasts)
    write_report_bundle(report, tmp_path)
    written = (tmp_path / "forecasts.csv").read_bytes()
    assert written == per_sample_forecasts_csv(report)
    for text in (b",-0.0,", b",1e-05,", b",1e+16,", b",-0.0\n", b",1e-05\n", b",1e+16\n"):
        assert text in written


@pytest.mark.parametrize("target, name", [(pipeline, "write_tuning_csv"),
                                          (pipeline.json, "dump")])
def test_failed_write_keeps_the_previous_bundle(two_years, tmp_path, monkeypatch, target, name):
    config = short_config(methods=("ram", "naive"), tuning="fixed", fixed_params=FIXED)
    report, _ = run_with_cpus(monkeypatch, 1, config, two_years)
    before = bundle_bytes(report, tmp_path)
    changed = dataclasses.replace(report, forecasts={m: 2.0 * f for m, f in
                                                     report.forecasts.items()})
    monkeypatch.setattr(target, name, lambda *args, **kwargs: fail_midway(args[-1]))
    with pytest.raises(OSError, match="No space left"):
        write_report_bundle(changed, tmp_path)
    assert sorted(os.listdir(tmp_path)) == sorted(BUNDLE)  # no temporary file left
    assert {f: (tmp_path / f).read_bytes() for f in BUNDLE} == before
    monkeypatch.undo()
    assert bundle_bytes(changed, tmp_path) != before


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
    # no fixed u past MAX_U gets this far, but a grid value does: each
    # weekday's search rejects it in its task
    config = short_config(methods=("ram", "naive"), test_end=date(2013, 1, 3),
                          grids={"ram": Grid((5,), (1e308,))})
    errors = []
    for cpus in (1, 2):
        with pytest.raises(ParameterError) as info:
            run_with_cpus(monkeypatch, cpus, config, two_years)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0] == (ParameterError,
                         f"u must be at most {MAX_U!r}, where u - (-u) is finite, got 1e+308")


def test_fixed_ddm_skips_days_with_at_most_k_pairs(two_years, monkeypatch):
    # 2012-01-01 is a Sunday: from 2012-03-01 to 03-21 a day has 8 to 11 pairs
    config = short_config(methods=("ram", "ddm", "naive"), test_start=date(2012, 3, 1),
                          test_end=date(2012, 3, 21), tuning="fixed", fixed_params=FIXED)
    report, _ = run_with_cpus(monkeypatch, 1, config, two_years)
    days = encode_days(two_years)
    pairs = {d: _pair_rows(days, d.weekday(), 1, d)[0].size for d in
             (date(2012, 3, 1) + timedelta(days=i) for i in range(21))}
    short = [d for d, n in pairs.items() if n <= 9]  # FIXED's ddm has k=9
    assert short and len(short) < len(pairs)
    assert report.skipped == [(d, f"{pairs[d]} training pairs, ddm needs more than k=9")
                              for d in short]
    assert report.test_days == [d for d in pairs if d not in short]
    assert set(report.forecasts) == set(config.methods)


def worker_environ(rendezvous, task):
    """The worker's pid and BLAS thread variables, once `task[1]` workers
    have checked in under `rendezvous` (or after 60 s)."""
    (Path(rendezvous) / str(os.getpid())).touch()
    deadline = time.monotonic() + 60
    while len(list(Path(rendezvous).iterdir())) < task[1] and time.monotonic() < deadline:
        time.sleep(0.01)
    return os.getpid(), [os.environ.get(k) for k in pipeline._BLAS_THREADS]


def test_pool_workers_start_with_one_blas_thread(monkeypatch, tmp_path):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with pipeline._stages(str(tmp_path), 2) as run:
        # one task starts one worker; two waiting on each other need a second
        first = run(worker_environ, [(0, 1)])
        assert len(multiprocessing.active_children()) == 1
        second = run(worker_environ, [(1, 2), (2, 2)])
        assert len(multiprocessing.active_children()) == 2
    assert first[0][0] in {pid for pid, _ in second}
    assert len({pid for pid, _ in second}) == 2
    assert [env for _, env in first + second] == [["1"] * 3] * 3
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "OMP_NUM_THREADS" not in os.environ
    assert multiprocessing.active_children() == []


def kill_own_worker(days, task):
    if task:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def raise_parameter_error(days, task):
    if task:
        raise ParameterError(f"bad task {task}")
    return task


@pytest.mark.parametrize("fn, error", [(kill_own_worker, BrokenProcessPool),
                                       (raise_parameter_error, ParameterError)],
                         ids=["killed", "exception"])
def test_failed_task_leaves_no_worker_running(monkeypatch, fn, error):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with pytest.raises(error):
        with pipeline._stages(None, 2) as run:
            assert run(fn, [0, 0]) == [0, 0]
            run(fn, [0, 1, 0])
    assert multiprocessing.active_children() == []


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


def test_fixed_tables_select_the_fixed_params(two_years, tmp_path):
    config = short_config(methods=("ddm", "ram", "naive"), tuning="fixed", fixed_params=FIXED)
    report = run_experiment(config, two_years)
    assert report.tune_tables == [
        (m, "fixed", TuneResult(hp, (GridPoint(hp.m, hp.smoothing, None, None),)))
        for m, hp in FIXED.items()]
    write_report_bundle(report, tmp_path)
    assert (tmp_path / "tuning.csv").read_text().splitlines()[1:] == [
        "ddm,fixed,5,9.0,,,1", "ram,fixed,10,0.4,,,1"]


@pytest.mark.parametrize("hp", [HyperParams("ram", 20, 0.4), HyperParams("ddm", 20, 31.0)])
def test_trial_forecast_does_not_depend_on_the_batch_size(two_years, hp):
    days = encode_days(two_years)
    day = date(2013, 1, 2)
    inp = days.row(day - timedelta(days=1))
    phi = build_training_set(days, day.weekday(), 1, day)
    coding = CodingVars(float(days.mean[inp]), float(days.dispersion[inp]))
    few, many = (pipeline.run_day(phi, days.x[[inp]], coding, hp,
                                  [derive_rng(5, day.toordinal(), t) for t in range(trials)])
                 for trials in (7, 100))
    assert few.shape == (7, 24)
    assert few.tobytes() == many[:7].tobytes()


def test_each_test_day_builds_one_training_set(two_years, monkeypatch):
    # every model method of a day reads the one training set its task gathers
    built = []

    def counting(days, weekday, tau, cutoff):
        built.append(cutoff)
        return build_training_set(days, weekday, tau, cutoff)

    monkeypatch.setattr(pipeline, "build_training_set", counting)
    config = short_config(methods=("ram", "ddm", "standard", "naive"), test_end=date(2013, 1, 7),
                          tuning="fixed",
                          fixed_params={**FIXED, "standard": HyperParams("standard", 5, 0.4)})
    report, _ = run_with_cpus(monkeypatch, 1, config, two_years)
    assert len(report.test_days) == 7
    assert built == report.test_days


def test_scores_match_per_trial_reference(two_years):
    config = short_config(methods=("ram", "naive"), test_end=date(2013, 1, 5), trials=4,
                          tuning="fixed", fixed_params={"ram": HyperParams("ram", 10, 0.4)})
    report = run_experiment(config, two_years)
    assert report.actual.shape == (len(report.test_days), 24)
    for method in config.methods:
        actual, forecast = [], []
        for i, d in enumerate(report.test_days):
            assert (report.actual[i] == two_years.values[two_years.dates.index(d)]).all()
            block = report.forecasts[method][i]
            for row in block:
                actual.append(report.actual[i])
                forecast.append(row)
            ape = np.abs(100.0 * (report.actual[i] - block) / report.actual[i]).mean(axis=0)
            assert report.ape[method][i].tobytes() == ape.tobytes()
        assert report.summaries[method] == summarize(np.concatenate(actual),
                                                     np.concatenate(forecast))


@pytest.mark.parametrize("tuning", ["fixed", "once", "per-day"])
def test_bundle_bands_and_tuned_match_per_day_references(two_years, tmp_path, monkeypatch,
                                                         tuning):
    config = short_config(methods=("ddm", "ram", "naive"), test_end=date(2013, 1, 3), trials=5,
                          tuning=tuning, grids=GRIDS, fixed_params=FIXED)
    report, _ = run_with_cpus(monkeypatch, 1, config, two_years)
    write_report_bundle(report, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    for method in config.methods:
        assert list(doc["bands"][method]) == [d.isoformat() for d in report.test_days]
        for i, d in enumerate(report.test_days):
            band = doc["bands"][method][d.isoformat()]
            for key, q in (("p05", 5), ("p50", 50), ("p95", 95)):
                reference = np.percentile(report.forecasts[method][i], q, axis=0)
                assert np.array(band[key]).tobytes() == reference.tobytes()

    selected = {}  # method -> {scope -> selected (m, smoothing) or None}
    with open(tmp_path / "tuning.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            scopes = selected.setdefault(r["method"], {})
            scopes.setdefault(r["scope"], None)
            if r["selected"] == "1":
                assert scopes[r["scope"]] is None
                scopes[r["scope"]] = {"m": int(r["m"]), "smoothing": float(r["smoothing"])}
    assert doc["tuned"] == selected
    expected_scopes = {"fixed": ["fixed"], "once": ["weekday=1", "weekday=2", "weekday=3"],
                       "per-day": ["2013-01-01", "2013-01-02", "2013-01-03"]}[tuning]
    assert {m: sorted(s) for m, s in selected.items()} == {
        m: expected_scopes for m in config.model_methods}
