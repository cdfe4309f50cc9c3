"""`bench/run.py` runs every benchmark round as `bench/worker.py` in a
fresh process and reads the bundle and the JSON line it prints. Run one
tiny traced round the same way, so that a change to what the worker
calls fails here rather than as a failed benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

from randfnn.timeseries import SynthSpec, synth_generate, write_csv

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"setup_s", "forecast_s", "bundle_s", "evaluate_s", "evaluate_exits",
               "evaluate_stdout", "evaluate_same", "peak_rss_mb", "layers"}


def test_worker_round(tmp_path):
    data = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=60), 0), data)  # 2012-01-01 .. 2012-02-29
    workload = {"methods": ["ram", "naive"], "tuning": "fixed",
                "fixed_params": {"ram": {"m": 5, "smoothing": 0.4}},
                "test_start": "2012-02-27", "test_end": "2012-02-28", "trials": 2}
    job = {"csv": str(data), "src": str(ROOT / "src"), "workload": workload, "seed": 7,
           "out_dir": str(tmp_path / "bundle"), "trace": 1, "spans": str(tmp_path / "spans.csv")}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(job)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert RESULT_KEYS <= set(result)
    assert result["evaluate_exits"] == [0] and result["evaluate_same"]
    assert result["layers"]["pipeline.run_experiment.calls"] == 1
    for name in ("forecasts.csv", "ape_records.csv", "tuning.csv", "report.json"):
        assert (tmp_path / "bundle" / name).is_file(), name
    report = json.loads((tmp_path / "bundle" / "report.json").read_text())
    assert report["test_days"] == ["2012-02-27", "2012-02-28"]
    assert (tmp_path / "spans.csv").is_file()
