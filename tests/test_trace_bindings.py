"""The benchmark's per-layer trace (`bench/layertrace.py`) looks up the
functions it wraps by name, so a rename here breaks `bench/run.py
--trace 1`. Read its layer table and check every entry resolves."""

import importlib
import runpy
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def test_every_traced_layer_resolves():
    layers = runpy.run_path(str(LAYERTRACE))["LAYERS"]
    missing = [f"{mod}.{fn}" for mod, fn, _, _ in layers
               if not callable(getattr(importlib.import_module(f"randfnn.{mod}"), fn, None))]
    assert layers and missing == []
