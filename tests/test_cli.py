import json

import numpy as np
import pytest

from randfnn import pipeline
from randfnn.cli import main
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
    out = tmp_path / "metrics.csv"
    assert main(["evaluate", "--forecasts", str(path), "--out", str(out)]) == 0
    order = list(dict.fromkeys(r[0] for r in rows))
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


def test_forecast_worker_parameter_error_exits_2(tmp_path, capsys, monkeypatch):
    # ddm's k=400 exceeds every training set; the days run in the pool
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    data = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=400), 0), data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fixed_params": {"ddm": {"m": 5, "smoothing": 400}}}))
    code = main(["forecast", "--config", str(config), "--data", str(data),
                 "--methods", "ddm,naive", "--tuning", "fixed", "--trials", "1",
                 "--test-start", "2013-01-01", "--test-end", "2013-01-03",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error: k=400 not in [1, ")


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
        "mon", "tue", "wed", "thu", "fri", "sat", "sun"]
    assert main(tune_argv(month_csv, out, "--weekday", "someday")) == 2
    assert main(tune_argv(month_csv, out, "--grid-m", "five")) == 2
    assert main(tune_argv(tmp_path / "missing.csv", out)) == 1
    everything = tmp_path / "all.txt"
    everything.write_text("".join(f"2012-01-{d:02d}\n" for d in range(1, 31)))
    assert main(tune_argv(month_csv, out, "--exclude", str(everything))) == 1
    assert capsys.readouterr().err.count("no pairs for weekday") == 7


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
    for name in ("mon", "tue"):
        alone = tmp_path / f"{name}.csv"
        assert main(tune_argv(month_csv, alone, "--cutoff", "2012-01-04", "--weekday", name)) == 0
        assert alone.read_text().splitlines()[1:] == [r for r in whole if f",{name}," in r]
    assert len(whole) == 3


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
    # 2012-01-31 is past the series' last day
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-29",
                              "--test-end", "2012-01-31")) == 1
    assert "2012-01-31: missing or excluded actual day" in capsys.readouterr().err
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-23")) == 2
    assert main(forecast_argv(month_csv, out, "--test-start", "2012-01-23",
                              "--test-end", "2012-01-25", "--methods", "ram,bogus")) == 2


def test_forecast_flag_beats_config_field(month_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "methods": "ram,naive", "trials": 3, "seed": 4, "tau": 1, "tuning": "fixed",
        "fixed_params": {"ram": {"m": 5, "smoothing": 0.4}},
        "test-start": "2012-01-23", "test-end": "2012-01-24"}))
    out = tmp_path / "out"
    assert main(["forecast", "--config", str(config), "--data", str(month_csv),
                 "--trials", "2", "--test-end", "2012-01-23", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["trials"] == 2  # flag
    assert report["config"]["seed"] == 4  # config field without a flag
    assert report["test_days"] == ["2012-01-23"]
    rows = (out / "forecasts.csv").read_text().splitlines()[1:]
    assert sorted({r.split(",")[2] for r in rows if r.startswith("ram,")}) == ["0", "1"]


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
