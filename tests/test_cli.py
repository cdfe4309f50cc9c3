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
