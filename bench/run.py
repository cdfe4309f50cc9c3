"""Benchmark of the randfnn rolling forecast experiment.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ram_fixed --seed 1 --seconds 40 --trace 0

Writes the workload's input series from --seed, then runs whole rounds
of the workload, each in a fresh process (bench/worker.py), until
--seconds have passed. Every round does the same work on the same input.
The bundle of the first round is checked against values computed apart
from the program (bench/checks.py); every later round must write a
byte-identical bundle. The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See bench/README.md for the workloads, metrics and estimators.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import check_bundle

ROUND_TIMEOUT_S = 150
SETUP_SAMPLES = 7  # at least; each untraced round adds two
MIN_ROUNDS = 2
BUNDLE_FILES = ("forecasts.csv", "ape_records.csv", "tuning.csv", "report.json")
BENCH = Path(__file__).resolve().parent


def run_worker(job: dict, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
        capture_output=True, text=True, env=env, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _setup_only(job: dict, env: dict) -> float:
    code = ("import time; t0 = time.perf_counter(); import randfnn, randfnn.cli; "
            f"randfnn.load_csv({job['csv']!r}); print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"set-up process exited with {proc.returncode}")
    return float(proc.stdout.split()[-1])


def _digest(bundle: Path) -> str:
    h = hashlib.sha256()
    for name in BUNDLE_FILES:
        h.update((bundle / name).read_bytes())
    return h.hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "randfnn" / "__init__.py").is_file():
        print(f"no randfnn sources under {src}", file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload]
    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    values = workloads.series(args.seed)
    csv_path = out / "input.csv"
    workloads.write_series(values, csv_path)

    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    job = {"csv": str(csv_path), "src": str(src), "workload": wl, "seed": args.seed,
           "spans": str(out / "spans.csv")}

    rounds, traced, digests, setups, walls = [], [], [], [], []
    start = time.perf_counter()
    while True:
        trace = bool(args.trace) and len(rounds) > len(traced)
        first = not digests
        bundle = out / ("bundle" if first else "round")
        t = time.perf_counter()
        res = run_worker(dict(job, out_dir=str(bundle), trace=trace), env)
        (traced if trace else rounds).append(res)
        digests.append(_digest(bundle))
        if not args.trace:
            setups += [res["setup_s"], _setup_only(job, env)]
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        round_s = statistics.median(walls)
        # stop where the run ends nearest to --seconds: another round
        # would end further past it than this one ends short of it
        if len(digests) >= MIN_ROUNDS and elapsed + round_s / 2 > args.seconds:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(_setup_only(job, env))

    results = check_bundle(out / "bundle", values, workloads.clean_signal(), wl,
                           (rounds or traced)[0]["evaluate_stdout"])
    results.append(("determinism", len(set(digests)) == 1,
                    f"{len(set(digests))} distinct bundles in {len(digests)} rounds"))
    report = json.loads((out / "bundle" / "report.json").read_text())
    per_round = len(wl["methods"]) * (len(report["test_days"]) + len(report["skipped_days"])) + 1
    failed_per_round = len(wl["methods"]) * len(report["skipped_days"])
    failed = sum(failed_per_round + any(r["evaluate_exits"]) for r in rounds + traced)
    results.append(("evaluate_repeats", all(r["evaluate_same"] for r in rounds + traced),
                    "every evaluate call of a round printed the same"))

    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    correct = all(ok for _, ok, _ in results)

    def med(key, rs):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        metrics = {}
        for key, unit in _layer_units(traced[0]["layers"]).items():
            metrics[key] = {"value": med(key, [r["layers"] for r in traced]), "unit": unit}
        plain = statistics.median(_work(r) for r in rounds)
        overhead = statistics.median(_work(r) for r in traced) - plain
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / plain, "unit": "%"}
        (out / "trace.json").write_text(json.dumps(
            {k: v["value"] for k, v in metrics.items()}, indent=2, sort_keys=True) + "\n")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "forecast_s": {"value": _upper_quartile(r["forecast_s"] for r in rounds),
                           "unit": "s"},
            "bundle_s": {"value": _upper_quartile(t for r in rounds for t in r["bundle_s"]),
                         "unit": "s"},
            "evaluate_s": {"value": _upper_quartile(t for r in rounds for t in r["evaluate_s"]),
                           "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", rounds), "unit": "MB"},
            "mape": {"value": report["summaries"][wl["model"]]["mape"], "unit": "%"},
        }
        print("rounds-json " + json.dumps({k: [r[k] for r in rounds] for k in
              ("forecast_s", "bundle_s", "evaluate_s", "peak_rss_mb")} | {"setup": setups}),
              file=sys.stderr)

    print(json.dumps({"correct": correct, "attempted": len(digests) * per_round,
                      "failed": failed, "metrics": metrics}))
    return 0


def _upper_quartile(samples) -> float:
    # On a shared machine contended speed is the common state and quiet
    # stretches come and go: the upper quartile tracks the common state,
    # while the minimum and the median move with the quiet stretches a
    # run happens to catch. See README.md.
    return statistics.quantiles(list(samples), n=4, method="inclusive")[2]


def _work(r: dict) -> float:
    """One round's timed work, with one bundle write and one evaluate."""
    return (r["setup_s"] + r["forecast_s"] + statistics.median(r["bundle_s"])
            + statistics.median(r["evaluate_s"]))


def _layer_units(layers: dict) -> dict:
    unit = {"calls": "count", "s": "s", "rows": "count", "records": "count",
            "bytes": "bytes", "spans": "count"}
    return {k: unit[k.rsplit(".", 1)[1]] for k in layers}


if __name__ == "__main__":
    sys.exit(main())
