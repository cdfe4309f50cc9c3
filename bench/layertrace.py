"""Per-layer trace, installed from outside the program.

Each traced function is replaced, in every `randfnn` module that holds a
reference to it (modules that did `from .x import f` hold their own), by
a wrapper that records one span: its name, its parent span, its start
and its end. Spans stay in memory; `summary` aggregates them and
`write_spans` writes them out once the round has ended. A layer's self
time is its span's duration less the durations of its direct children.
"""

import functools
import os
import sys
import time

import numpy as np


def _rows(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return 1 if x.ndim == 1 else x.shape[0]


def _records(args, kwargs, result):
    return len(result)


def _bundle_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    return sum(e.stat().st_size for e in os.scandir(out) if e.is_file())


def _csv_rows(args, kwargs, result):
    with open(args[0].forecasts, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


# (module, function, named count or None, how to take that count)
LAYERS = (
    ("timeseries", "load_csv", None, None),
    ("encoding", "build_training_set", None, None),
    ("encoding", "encode_x", None, None),
    ("randnn", "make_layer", None, None),
    ("randnn", "fit", None, None),
    ("randnn", "hidden_output", None, None),
    ("randnn", "predict", "rows", _rows),
    ("numerics", "pinv_solve", None, None),
    ("numerics", "knn", None, None),
    ("numerics", "fit_hyperplane", None, None),
    ("tuning", "grid_search", None, None),
    ("tuning", "kfold_split", None, None),
    ("evaluation", "percentage_errors", "records", _records),
    ("evaluation", "summarize", None, None),
    ("evaluation", "wilcoxon_signed_rank", None, None),
    ("pipeline", "run_experiment", None, None),
    ("pipeline", "run_day", None, None),
    ("pipeline", "write_report_bundle", "bytes", _bundle_bytes),
    ("cli", "cmd_evaluate", "rows", _csv_rows),
)


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn, _, _ in LAYERS]
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stack: list[int] = []
        self.counts = {f"{mod}.{fn}.{c}": 0 for mod, fn, c, _ in LAYERS if c}

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever a randfnn module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "randfnn" or k.startswith("randfnn.")]
        for i, (mod, fn, count, how) in enumerate(LAYERS):
            original = getattr(sys.modules[f"randfnn.{mod}"], fn)
            wrapper = self._wrap(i, original, f"{mod}.{fn}.{count}", how)
            for m in modules:
                if getattr(m, fn, None) is original:
                    setattr(m, fn, wrapper)

    def _wrap(self, name_id, fn, count_key, how):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if how is not None:
                self.counts[count_key] += how(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """`<layer>.calls`, `<layer>.s` (self time), the named counts and
        the number of spans recorded."""
        name = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.s"] = float(self_time[i])
        out.update(self.counts)
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path) -> None:
        """One row per span: id, parent id (-1 at top), name, start, end (s)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            fh.writelines(
                f"{i},{p},{self.names[n]},{s - t0:.9f},{e - t0:.9f}\n"
                for i, (n, p, s, e) in enumerate(zip(self.span_name, self.span_parent,
                                                     self.span_start, self.span_end)))
