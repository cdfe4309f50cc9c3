"""The benchmark's per-layer trace (`bench/layertrace.py`) looks up the
functions it wraps by name, so a rename here breaks `bench/run.py
--trace 1`. Read its layer table and check every entry resolves, and
that a round of the benchmark's steps calls every entry."""

import importlib
import runpy
import sys
from contextlib import redirect_stdout
from datetime import date
from io import StringIO
from pathlib import Path

import randfnn
import randfnn.cli
from randfnn import pipeline
from randfnn.timeseries import SynthSpec, synth_generate, write_csv
from randfnn.tuning import Grid

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def test_every_traced_layer_resolves():
    layers = runpy.run_path(str(LAYERTRACE))["LAYERS"]
    missing = [f"{mod}.{fn}" for mod, fn, _, _ in layers
               if not callable(getattr(importlib.import_module(f"randfnn.{mod}"), fn, None))]
    assert layers and missing == []


def test_every_traced_layer_is_called(tmp_path, monkeypatch):
    # the steps of bench/worker.py, in this process, on three short runs
    trace = runpy.run_path(str(LAYERTRACE))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)  # no work runs in a worker
    data = tmp_path / "series.csv"
    write_csv(synth_generate(SynthSpec(days=70), 0), data)  # 2012-01-01 .. 2012-03-10
    period = dict(test_start=date(2012, 3, 5), test_end=date(2012, 3, 7), trials=3, seed=7)
    configs = [
        randfnn.ExperimentConfig(("ram", "naive"), tuning="fixed",
                                 fixed_params={"ram": randfnn.HyperParams("ram", 5, 0.4)},
                                 **period),
        randfnn.ExperimentConfig(("ddm", "naive"), tuning="fixed",
                                 fixed_params={"ddm": randfnn.HyperParams("ddm", 5, 3.0)},
                                 **period),
        randfnn.ExperimentConfig(("ram", "naive"), tuning="once", cv_folds=2,
                                 grids={"ram": Grid((3, 5), (0.2, 0.4))}, **period),
    ]
    modules = [m for k, m in sys.modules.items() if k == "randfnn" or k.startswith("randfnn.")]
    names = {fn for _, fn, _, _ in trace["LAYERS"]}
    saved = [(m, fn, getattr(m, fn)) for m in modules for fn in names if hasattr(m, fn)]
    tracer = trace["Tracer"]()
    tracer.install()
    try:
        ts = randfnn.load_csv(data)
        for i, config in enumerate(configs):
            out = tmp_path / f"bundle{i}"
            randfnn.write_report_bundle(randfnn.run_experiment(config, ts), out)
            with redirect_stdout(StringIO()):
                assert randfnn.cli.main(["evaluate", "--forecasts",
                                         str(out / "forecasts.csv")]) == 0
    finally:
        for m, fn, original in saved:
            setattr(m, fn, original)
    summary = tracer.summary()
    assert [n for n in tracer.names if summary[f"{n}.calls"] == 0] == []
