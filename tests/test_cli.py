import json
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, suppress
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from randfnn import pipeline
from randfnn.cli import main
from randfnn.randnn import MAX_U
from randfnn.timeseries import SynthSpec, synth_generate, write_csv

HEADER = "method,date,trial,hour,forecast,actual\n"


def write_forecasts(path, rows):
    path.write_text(HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows))
    return path


@pytest.fixture
def forecasts_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for day in ("2015-01-05", "2015-01-06"):
        actual = rng.uniform(50.0, 150.0, 3).tolist()
        for h in range(3):
            rows.append(("naive", day, 0, h, repr(actual[h] * 1.1), repr(actual[h])))
        for trial in range(2):
            for h in range(3):
                rows.append(("ram", day, trial, h, repr(actual[h] * float(rng.normal(1.0, 0.05))),
                             repr(actual[h])))
    rng.shuffle(rows)  # methods interleaved; each keeps its file order
    return write_forecasts(tmp_path / "forecasts.csv", rows), rows


def expected_line(method, width, rows):
    a = np.array([float(r[5]) for r in rows if r[0] == method])
    f = np.array([float(r[4]) for r in rows if r[0] == method])
    pe = 100.0 * (a - f) / a
    return (f"{method:>{width}}: MAPE={np.abs(pe).mean():.4f}  "
            f"Median(APE)={np.median(np.abs(pe)):.4f}  "
            f"RMSE={np.sqrt(((a - f) ** 2).mean()):.4f}  MPE={pe.mean():.4f}  "
            f"Std(PE)={pe.std(ddof=1):.4f}  N={a.size}")


def test_evaluate_prints_metrics_per_method(forecasts_csv, capsys, tmp_path):
    path, rows = forecasts_csv
    order = list(dict.fromkeys(r[0] for r in rows))
    out = tmp_path / "metrics.csv"
    # methods interleaved (scored through masks), then each one run of rows
    # as a bundle writes them (scored through slices)
    for rows in (rows, sorted(rows, key=lambda r: order.index(r[0]))):
        write_forecasts(path, rows)
        assert main(["evaluate", "--forecasts", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == (
            [expected_line(m, 5, rows) for m in order] + [f"wrote {out}"])
        assert out.read_text().splitlines()[0] == "metric," + ",".join(order)


def test_evaluate_missing_columns(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("method,date,hour,forecast,actual\nram,2015-01-05,0,1.0,1.0\n")
    assert main(["evaluate", "--forecasts", str(path)]) == 2
    assert "lacks columns" in capsys.readouterr().err


def test_evaluate_header_only(tmp_path, capsys):
    path = write_forecasts(tmp_path / "f.csv", [])
    assert main(["evaluate", "--forecasts", str(path)]) == 2
    assert "has no rows" in capsys.readouterr().err


def test_evaluate_zero_actual(tmp_path, capsys):
    path = write_forecasts(tmp_path / "f.csv", [("ram", "2015-01-05", 0, 0, 1.0, 2.0),
                                                 ("ram", "2015-01-05", 0, 1, 1.0, 0.0)])
    assert main(["evaluate", "--forecasts", str(path)]) == 1
    err = capsys.readouterr().err
    assert "zero" in err
    assert f"{path}:3:" in err


@pytest.mark.parametrize("bad_row", [
    ("ram", "2015-01-05", 0, 1, "abc", 2.0),
    ("ram", "2015-01-05", 0, 1, 1.0, ""),
    ("ram", "2015-01-05", 0, 1, 1.0),
])
def test_evaluate_malformed_number(tmp_path, capsys, bad_row):
    path = write_forecasts(tmp_path / "f.csv", [("ram", "2015-01-05", 0, 0, 1.0, 2.0), bad_row])
    assert main(["evaluate", "--forecasts", str(path)]) == 1
    assert f"{path}:3:" in capsys.readouterr().err


def evaluate(path, capsys):
    code = main(["evaluate", "--forecasts", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_evaluate_reads_blank_lines_crlf_and_quotes_as_plain_csv(forecasts_csv, capsys):
    path, rows = forecasts_csv
    plain = evaluate(path, capsys)
    assert plain[0] == 0
    body = path.read_text().splitlines()
    path.write_text("\r\n".join(body) + "\r\n")
    assert evaluate(path, capsys) == plain
    path.write_text("\n\n".join(body) + "\n\n")
    assert evaluate(path, capsys) == plain
    quoted = [f'"{m}",{d},{t},{h},"{f}",{a}' for m, d, t, h, f, a in rows]
    path.write_text(HEADER + "\n".join(quoted) + "\n")
    assert evaluate(path, capsys) == plain


def test_evaluate_finds_columns_by_name(forecasts_csv, capsys):
    path, rows = forecasts_csv
    plain = evaluate(path, capsys)
    path.write_text("actual,note,hour,forecast,trial,date,method,extra\n" + "".join(
        f"{a},n{i},{h},{f},{t},{d},{m},x\n" for i, (m, d, t, h, f, a) in enumerate(rows)))
    assert evaluate(path, capsys) == plain


def test_evaluate_reads_a_hash_as_part_of_a_field(forecasts_csv, capsys):
    path, rows = forecasts_csv
    _, plain, _ = evaluate(path, capsys)
    path.write_text(HEADER + "".join(f"{m}#1,{d},{t},{h},{f},{a}\n" for m, d, t, h, f, a in rows))
    expected = plain.replace("naive:", "naive#1:").replace("  ram:", "  ram#1:")
    assert evaluate(path, capsys) == (0, expected, "")


def test_evaluate_reports_the_physical_line_after_blank_lines(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text(HEADER + "ram,2015-01-05,0,0,1.0,2.0\n\n\nram,2015-01-05,0,1,1.0,0.0\n")
    code, _, err = evaluate(path, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}:5: actual value is zero")
    path.write_text(HEADER + "\r\nram,2015-01-05,0,0,1.0,2.0\r\nram,2015-01-05,0\r\n")
    code, _, err = evaluate(path, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}:4: bad or missing")


def test_evaluate_reports_the_first_fault_in_file_order(tmp_path, capsys):
    path = write_forecasts(tmp_path / "f.csv", [("ram", "2015-01-05", 0, 0, 1.0, 2.0),
                                                 ("ram", "2015-01-05", 0, 1, 1.0, 0.0),
                                                 ("ram", "2015-01-05", 0, 2, 1.0, 2.0),
                                                 ("ram", "2015-01-05", 0, 3, "x", 2.0)])
    code, _, err = evaluate(path, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}:3: actual value is zero")
    # within one row the zero actual is reported before a bad forecast
    write_forecasts(path, [("ram", "2015-01-05", 0, 0, 1.0, 2.0), ("ram", "2015-01-05", 0, 1, "x", 0.0)])
    code, _, err = evaluate(path, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}:3: actual value is zero")


def test_evaluate_rejects_digit_separators(tmp_path, capsys):
    # np.loadtxt does not read "1_0", which float() takes as 10.0
    path = write_forecasts(tmp_path / "f.csv", [("ram", "2015-01-05", 0, 0, 1.0, 2.0),
                                                 ("ram", "2015-01-05", 0, 1, "1_0", 2.0)])
    code, _, err = evaluate(path, capsys)
    assert code == 1
    assert err.startswith(f"error: {path}:3: bad or missing")


def test_evaluate_blank_body_has_no_rows_and_no_warning(tmp_path, capsys):
    for body in ("", "\n\n"):
        path = tmp_path / "f.csv"
        path.write_text(HEADER + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = evaluate(path, capsys)
        assert (code, out, err) == (2, "", f"usage error: {path} has no rows\n")
        assert caught == []


def test_forecast_worker_parameter_error_exits_2(tmp_path, capsys, monkeypatch):
    # a fixed u past MAX_U exits 2 before any work (see fixed_u_huge), a
    # grid value in the pool, where each weekday's search rejects it
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    data = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=400), 0), data)
    code = main(["forecast", "--data", str(data), "--methods", "ram,naive", "--tuning", "once",
                 "--grid-m", "5", "--grid-smoothing", "1e308", "--trials", "1",
                 "--test-start", "2013-01-01", "--test-end", "2013-01-03",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"usage error: u must be at most {MAX_U!r}, where u - (-u) is finite")


def test_forecast_fixed_ddm_skips_days_with_too_few_pairs(tmp_path, capsys, monkeypatch):
    # 2012-01-01 (a Sunday) .. 2012-02-29: each weekday has at most k=6
    # training pairs before 2012-02-20 and 7 from then on
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    data = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=60), 0), data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "methods": ["ddm", "naive"], "tuning": "fixed", "trials": 2,
        "fixed_params": {"ddm": {"method": "ddm", "m": 5, "smoothing": 6.0}},
        "test_start": "2012-02-08", "test_end": "2012-02-29"}))
    out = tmp_path / "out"
    # exit 3 as for any skipped day, with the bundle of the days that ran
    assert main(["forecast", "--config", str(config), "--data", str(data),
                 "--out-dir", str(out)]) == 3
    assert "usage error" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    early = [date(2012, 2, d) for d in range(8, 20)]
    assert [s["date"] for s in report["skipped_days"]] == [d.isoformat() for d in early]
    assert all(s["reason"].endswith("ddm needs more than k=6") for s in report["skipped_days"])
    assert report["test_days"] == [date(2012, 2, d).isoformat() for d in range(20, 30)]


@pytest.fixture(scope="module")
def month_csv(tmp_path_factory):
    # 2012-01-01 (a Sunday) .. 2012-01-30
    path = tmp_path_factory.mktemp("series") / "series.csv"
    assert main(["synth", "--days", "30", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_synth_exit_codes(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["synth", "--days", "20", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + 20 * 24
    assert main(["synth", "--days", "5", "--out", str(out)]) == 2
    assert "at least 14 days" in capsys.readouterr().err
    assert main(["synth", "--days", "20", "--out", str(tmp_path / "no" / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def tune_argv(data, out, *extra):
    return ["tune", "--data", str(data), "--method", "ram", "--grid-m", "5",
            "--grid-smoothing", "0.4", "--folds", "2", "--out", str(out), *extra]


def test_tune_exit_codes(month_csv, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(tune_argv(month_csv, out)) == 0
    assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == [
        f"weekday={wd}" for wd in range(7)]
    assert main(tune_argv(month_csv, out, "--weekday", "someday")) == 2
    assert main(tune_argv(month_csv, out, "--grid-m", "five")) == 2
    assert main(tune_argv(tmp_path / "missing.csv", out)) == 1
    everything = tmp_path / "all.txt"
    everything.write_text("".join(f"2012-01-{d:02d}\n" for d in range(1, 31)))
    assert main(tune_argv(month_csv, out, "--exclude", str(everything))) == 1
    assert capsys.readouterr().err.count("no pairs for weekday") == 7


def test_tune_non_finite_smoothing_exits_2(month_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    argv = tune_argv(month_csv, tmp_path / "t.csv", "--grid-smoothing", "nan")
    argv[argv.index("ram")] = "ddm"
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["usage error: k must be finite, got nan"]


def test_tune_weekday_without_pairs_does_not_stop_the_others(month_csv, tmp_path, capsys):
    # before 2012-01-04 only Monday and Tuesday targets have an input day
    out = tmp_path / "t.csv"
    assert main(tune_argv(month_csv, out, "--cutoff", "2012-01-04")) == 1
    captured = capsys.readouterr()
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "mon", "tue", f"wrote {out}"]
    assert captured.err.splitlines() == [
        f"error: {name}: no pairs for weekday {wd}, tau 1, cutoff 2012-01-04"
        for wd, name in enumerate(("mon", "tue", "wed", "thu", "fri", "sat", "sun")) if wd >= 2]
    whole = out.read_text().splitlines()
    for wd, name in enumerate(("mon", "tue")):
        alone = tmp_path / f"{name}.csv"
        assert main(tune_argv(month_csv, alone, "--cutoff", "2012-01-04", "--weekday", name)) == 0
        assert alone.read_text().splitlines()[1:] == [r for r in whole if f",weekday={wd}," in r]
    assert len(whole) == 3


def test_tune_same_in_process_and_in_pool(month_csv, tmp_path, capsys, monkeypatch):
    # without the Fridays 2012-01-06 and 01-13, Friday and Saturday have
    # no pairs before 2012-01-18; Wednesday, Thursday and Sunday have two,
    # fewer than the folds, and Monday and Tuesday three
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("2012-01-06\n2012-01-13\n")
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"{cpus}.csv"
        code = main(tune_argv(month_csv, out, "--cutoff", "2012-01-18", "--folds", "3",
                              "--grid-m", "5,10", "--grid-smoothing", "0.2,0.4",
                              "--exclude", str(exclude)))
        captured = capsys.readouterr()
        outputs.append((code, out.read_bytes(), captured.out.replace(str(out), "OUT"),
                        captured.err))
    assert outputs[0] == outputs[1]
    code, _, out, err = outputs[0]
    assert code == 1
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["mon", "tue", "wed", "thu", "sun",
                                                      "wrote OUT"]
    assert all("(N=3, cv_error=" in line for line in lines[:2])
    assert lines[2:5] == [f"{d}: no gridpoint fits (N=2)" for d in ("wed", "thu", "sun")]
    assert [line.split(":")[1] for line in err.splitlines()] == [" fri", " sat"]


def test_tune_writes_the_rows_of_forecast_once(month_csv, tmp_path, monkeypatch):
    # a test week from 2012-01-23 tunes every weekday on the pairs before it
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    grid = ["--grid-m", "5,10", "--grid-smoothing", "0.2,0.4", "--folds", "2",
            "--trials-per-fold", "2", "--seed", "3"]
    out = tmp_path / "out"
    assert main(["forecast", "--data", str(month_csv), "--methods", "ram,naive", "--trials", "1",
                 "--tuning", "once", "--test-start", "2012-01-23", "--test-end", "2012-01-29",
                 "--out-dir", str(out), *grid]) == 0
    tuned = tmp_path / "tune.csv"
    assert main(["tune", "--data", str(month_csv), "--method", "ram", "--cutoff", "2012-01-23",
                 "--out", str(tuned), *grid]) == 0
    lines = (out / "tuning.csv").read_bytes().splitlines(keepends=True)
    assert tuned.read_bytes() == b"".join(
        [lines[0]] + [line for line in lines[1:] if line.startswith(b"ram,")])
    assert len(lines) == 1 + 7 * 4


def forecast_argv(data, out_dir, *extra):
    return ["forecast", "--data", str(data), "--methods", "ram,naive", "--trials", "1",
            "--tuning", "once", "--grid-m", "5", "--grid-smoothing", "0.4", "--folds", "2",
            "--out-dir", str(out_dir), *extra]


def test_forecast_exit_codes(month_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    out = tmp_path / "out"
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25")) == 0
    assert (out / "report.json").is_file()
    # 2012-01-31 is past the series' last day: a complete bundle, one day skipped
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-29",
                              "--test-end", "2012-01-31")) == 3
    assert "2012-01-31: missing or excluded actual day" in capsys.readouterr().err
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-23")) == 2
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25", "--methods", "ram,bogus")) == 2


def test_forecast_dead_worker_exits_1(month_csv, tmp_path, capsys, monkeypatch):
    @contextmanager
    def broken_stages(days, most_tasks):
        def run(fn, tasks):
            raise BrokenProcessPool("A process in the process pool was terminated abruptly")
        yield run

    monkeypatch.setattr(pipeline, "_stages", broken_stages)
    assert main(forecast_argv(month_csv, tmp_path / "out", "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25")) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: a worker process died "
        "(A process in the process pool was terminated abruptly)"]
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


needs_a_pool = pytest.mark.skipif(
    pipeline._usable_cpus() < 2 or not os.path.isdir("/proc"),
    reason="a pool needs 2 usable CPUs; its workers are found in /proc")


@pytest.fixture(scope="module")
def long_run_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "series.csv"
    assert main(["synth", "--days", "240", "--seed", "0", "--out", str(path)]) == 0
    return path


@contextmanager
def pooled_forecast(data, out_dir):
    """A `randfnn forecast` in a subprocess and its own session, whose
    per-day tuning keeps its pool busy for seconds, and the pid of one
    of its pool workers once that worker has started. The session is
    killed on the way out."""
    argv = ["forecast", "--data", str(data), "--methods", "ram,naive", "--trials", "100",
            "--tuning", "per-day", "--grid-m", "20,40,80,120",
            "--grid-smoothing", "0.05,0.1,0.2,0.4,0.7,1.0", "--out-dir", str(out_dir),
            "--test-start", "2012-03-01", "--test-end", "2012-08-27"]
    src = str(Path(pipeline.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from randfnn.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        yield proc, pool_worker(proc)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)


def pool_worker(proc, timeout=60):
    """The pid of one of `proc`'s pool workers, once it has started."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc.poll() is None:
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:  # gone since listed
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == proc.pid and b"spawn_main" in cmdline:
                # the parent writes a worker's start-up data just after
                # its exec; a worker killed before that breaks the pipe
                time.sleep(0.2)
                return int(pid)
        time.sleep(0.01)
    raise AssertionError("no pool worker started")


def session_ends(pgid, timeout=30):
    """True once no process is left in the session's group. The pool's
    resource tracker outlives the run as a zombie until init reaps it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@needs_a_pool
def test_forecast_killed_worker_exits_1(long_run_csv, tmp_path):
    with pooled_forecast(long_run_csv, tmp_path / "out") as (proc, worker):
        os.kill(worker, signal.SIGKILL)
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 1
        assert session_ends(proc.pid)
    assert [line.split("(")[0] for line in err.splitlines() if line.startswith("error:")] == [
        "error: a worker process died "]
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.json").exists()


@needs_a_pool
def test_forecast_sigint_to_pooled_run_exits_130(long_run_csv, tmp_path):
    with pooled_forecast(long_run_csv, tmp_path / "out") as (proc, _):
        os.kill(proc.pid, signal.SIGINT)
        err = proc.communicate(timeout=120)[1]
        assert proc.returncode == 130
        assert session_ends(proc.pid)
    assert err.splitlines() == ["interrupted"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_forecast_interrupt_exits_130(month_csv, tmp_path, capsys, monkeypatch):
    @contextmanager
    def interrupted_stages(days, most_tasks):
        def run(fn, tasks):
            raise KeyboardInterrupt
        yield run

    monkeypatch.setattr(pipeline, "_stages", interrupted_stages)
    assert main(forecast_argv(month_csv, tmp_path / "out", "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25")) == 130
    assert capsys.readouterr().err.splitlines() == ["interrupted"]
    assert not (tmp_path / "out" / "report.json").exists()


def test_forecast_flag_beats_config_field(month_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "methods": "ram,naive", "trials": 3, "seed": 4, "tau": 1, "tuning": "fixed",
        "fixed_params": {"ram": {"m": 5, "smoothing": 0.4}},
        "test_start": "2012-01-23", "test_end": "2012-01-24"}))
    out = tmp_path / "out"
    assert main(["forecast", "--config", str(config), "--data", str(month_csv),
                 "--trials", "2", "--test-end", "2012-01-23", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["trials"] == 2  # flag
    assert report["config"]["seed"] == 4  # config field without a flag
    assert report["test_days"] == ["2012-01-23"]
    rows = (out / "forecasts.csv").read_text().splitlines()[1:]
    assert sorted({r.split(",")[2] for r in rows if r.startswith("ram,")}) == ["0", "1"]


BUNDLE = ("forecasts.csv", "ape_records.csv", "tuning.csv", "report.json")


def test_forecast_replays_from_report_config(month_csv, tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("2012-01-10\n")
    first = tmp_path / "first"
    assert main(forecast_argv(month_csv, first, "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25", "--exclude", str(exclude),
                              "--seed", "3")) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(json.loads((first / "report.json").read_text())["config"]))
    again = tmp_path / "again"
    assert main(["forecast", "--config", str(config), "--out-dir", str(again)]) == 0
    for name in BUNDLE:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_forecast_unknown_config_key_exits_2(month_csv, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"methods": ["naive"], "test-start": "2012-01-23"}))
    code = main(["forecast", "--config", str(config), "--data", str(month_csv),
                 "--test-start", "2012-01-23", "--test-end", "2012-01-24",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "unknown config keys ['test-start']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, field", [
    ('{"methods": ["naive"],', "not valid JSON"),
    ({"test_start": "2012-13-01"}, "test_start"),
    ({"trials": "many"}, "trials"),
    ({"tuning": "fixed", "fixed_params": {"ram": {"m": "x", "smoothing": 0.4}}},
     "fixed_params"),
    ({"grids": {"ram": {"m_values": [5]}}}, "grids"),
    ({"trials": 2.7}, "trials"),
    ({"trials": True}, "trials"),
    ({"tuning": "fixed", "fixed_params": {"ram": {"m": 5.9, "smoothing": 0.4}}},
     "fixed_params"),
    ({"grids": {"ram": {"m_values": [5.5], "smoothing_values": [0.4]}}}, "grids"),
    ({"tuning": "fixed", "fixed_params": {"ddm": {"m": 5, "smoothing": float("inf")}}},
     "k must be finite"),
    ({"tuning": "fixed", "fixed_params": {"ram": {"m": 5, "smoothing": 1e308}}},
     f"u must be at most {MAX_U!r}"),
], ids=["json", "date", "int", "fixed_params", "grids", "trials_float", "trials_bool",
        "fixed_m_float", "grid_m_float", "fixed_k_inf", "fixed_u_huge"])
def test_forecast_malformed_config_exits_2(month_csv, tmp_path, capsys, doc, field):
    config = tmp_path / "config.json"
    config.write_text(doc if isinstance(doc, str) else json.dumps(
        {"test_start": "2012-01-23", "test_end": "2012-01-24", **doc}))
    code = main(["forecast", "--config", str(config), "--data", str(month_csv),
                 "--methods", "ram,naive", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {config}: ")
    assert field in err
    assert not (tmp_path / "out").exists()


def test_load_warnings_reach_stderr(month_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    lines = month_csv.read_text().splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    # the header, the first day, hours 0-4 of 2012-01-02, then the rest
    partial.write_text("".join(lines[:1 + 24 + 5] + lines[1 + 48:]))
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("2011-12-25\n")
    expected = ["warning: day 2012-01-02: incomplete (5/24 rows), dropped",
                "warning: exclusion date 2011-12-25 not in series"]
    assert main(tune_argv(partial, tmp_path / "t.csv", "--exclude", str(exclude))) == 0
    assert capsys.readouterr().err.splitlines() == expected
    assert main(forecast_argv(partial, tmp_path / "out", "--exclude", str(exclude),
                              "--test-start", "2012-01-23", "--test-end", "2012-01-24")) == 0
    assert capsys.readouterr().err.splitlines() == expected


def write_ape(path, rows):
    path.write_text("method,date,hour,ape\n" + "".join(f"{m},{d},{h},{a}\n" for m, d, h, a in rows))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    keys = [("2015-01-05", h) for h in range(6)]
    a = write_ape(tmp_path / "a.csv", [("ram", d, h, 1.0 + h) for d, h in keys])
    b = write_ape(tmp_path / "b.csv", [("ram", d, h, 2.0 + 0.5 * h) for d, h in keys])
    assert main(["compare", a, b, "--out", str(tmp_path / "m.csv")]) == 0
    assert capsys.readouterr().out.startswith("a:ram vs b:ram: p=")
    short = write_ape(tmp_path / "short.csv", [("ram", d, h, 2.0) for d, h in keys[:-1]])
    assert main(["compare", a, short]) == 1
    assert "differ on 1 record keys: 2015-01-05 h5" in capsys.readouterr().err
    assert main(["compare", a]) == 2
    assert main(["compare", a, b, "--labels", "one"]) == 2


@pytest.mark.parametrize("row", [("ram", "2015-01-05", 1, "abc"), ("ram", "2015-01-05", "x", 1.0)],
                         ids=["ape", "hour"])
def test_compare_malformed_number_exits_1(tmp_path, capsys, row):
    a = write_ape(tmp_path / "a.csv", [("ram", "2015-01-05", 0, 1.0)])
    b = write_ape(tmp_path / "b.csv", [("ram", "2015-01-05", 0, 2.0), row])
    assert main(["compare", a, b]) == 1
    assert capsys.readouterr().err.startswith(f"error: {b}:3: ")


def test_compare_repeated_record_exits_1(tmp_path, capsys):
    a = write_ape(tmp_path / "a.csv", [("ram", "2015-01-05", 0, 1.0), ("ram", "2015-01-05", 1, 1.0)])
    b = write_ape(tmp_path / "b.csv", [("ram", "2015-01-05", 0, 1.0), ("naive", "2015-01-05", 0, 5.0),
                                       ("ram", "2015-01-05", 0, 9.0)])
    assert main(["compare", a, b]) == 1
    assert capsys.readouterr().err.startswith(f"error: {b}:4: repeated record ram 2015-01-05 h0")
