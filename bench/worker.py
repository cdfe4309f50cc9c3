"""One round of a workload, in a fresh process.

Usage: python3 bench/worker.py '<job json>'

The job names the input CSV, the bundle directory, the workload and
whether to trace. The round imports randfnn and loads the CSV (set-up),
runs the experiment, writes the report bundle and runs
`randfnn evaluate` on its forecasts.csv, timing each step with tracing
off unless the job asks for it. The last stdout line is a JSON object
with the timings, the evaluate output and the peak resident memory.
"""

import json
import os
import sys
import time
from contextlib import redirect_stdout
from datetime import date
from io import StringIO


REPEAT_S = 1.0


def _repeat(fn, min_s: float) -> list[float]:
    """Call fn until min_s seconds have been spent in it (at least once);
    return the duration of each call."""
    times = []
    while not times or sum(times) < min_s:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return times


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process's own address space. getrusage's
    # ru_maxrss would also count the parent's resident set at fork time.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import randfnn
    import randfnn.cli

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    ts = randfnn.load_csv(job["csv"])
    setup_s = time.perf_counter() - t0

    src = os.path.realpath(job["src"])
    if not os.path.realpath(randfnn.__file__).startswith(src + os.sep):
        print(f"randfnn was imported from {randfnn.__file__}, not from {src}", file=sys.stderr)
        return 1

    wl = job["workload"]
    fixed = {m: randfnn.HyperParams(m, int(p["m"]), float(p["smoothing"]))
             for m, p in (wl["fixed_params"] or {}).items()}
    config = randfnn.ExperimentConfig(
        methods=tuple(wl["methods"]),
        test_start=date.fromisoformat(wl["test_start"]),
        test_end=date.fromisoformat(wl["test_end"]),
        trials=wl["trials"],
        seed=job["seed"],
        tuning=wl["tuning"],
        fixed_params=fixed or None,
    )

    t = time.perf_counter()
    report = randfnn.run_experiment(config, ts)
    forecast_s = time.perf_counter() - t

    # bundle_s and evaluate_s are short on some workloads: untraced rounds
    # repeat them until REPEAT_S has passed, so each round gives several
    # samples. Traced rounds call each once, so their counts repeat exactly.
    min_s = 0.0 if tracer else REPEAT_S
    bundle_s = _repeat(lambda: randfnn.write_report_bundle(report, job["out_dir"]), min_s)
    del report

    forecasts = os.path.join(job["out_dir"], "forecasts.csv")
    outputs = []

    def evaluate():
        buf = StringIO()
        with redirect_stdout(buf):
            code = randfnn.cli.main(["evaluate", "--forecasts", forecasts])
        outputs.append((code, buf.getvalue()))

    evaluate_s = _repeat(evaluate, min_s)

    result = {
        "setup_s": setup_s,
        "forecast_s": forecast_s,
        "bundle_s": bundle_s,
        "evaluate_s": evaluate_s,
        "evaluate_exits": [code for code, _ in outputs],
        "evaluate_stdout": outputs[0][1],
        "evaluate_same": all(out == outputs[0][1] for _, out in outputs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
