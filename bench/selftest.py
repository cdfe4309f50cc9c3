"""Self-test of the correctness checks.

Usage, from the root of a checkout: python3 bench/selftest.py

Runs a small tuned ram workload once, checks that every check passes on
its bundle, then corrupts copies of the bundle on purpose and checks
that each corruption fails the check meant to catch it. Exits 0 when
all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import workloads
from checks import check_bundle
from run import BENCH, run_worker

SEED = 0
WORKLOAD = {
    "methods": ["ram", "naive"],
    "model": "ram",
    "tuning": "once",
    "fixed_params": None,
    "test_start": "2015-09-07",
    "test_end": "2015-09-08",
    "trials": 10,
}


def _rewrite_forecasts(bundle: Path, edit) -> None:
    """Apply edit(fields) -> fields to every data row of forecasts.csv."""
    path = bundle / "forecasts.csv"
    lines = path.read_text().splitlines()
    rows = [",".join(edit(line.split(","))) for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + rows) + "\n")


def shift_a_day(bundle, values):
    def edit(f):
        f[1] = (date.fromisoformat(f[1]) + timedelta(days=1)).isoformat()
        return f
    _rewrite_forecasts(bundle, edit)


def naive_wrong_week(bundle, values):
    def edit(f):
        if f[0] == "naive":
            day = (date.fromisoformat(f[1]) - workloads.START).days
            f[4] = repr(float(values[day - 14, int(f[3])]))
        return f
    _rewrite_forecasts(bundle, edit)


def alter_report_mape(bundle, values):
    path = bundle / "report.json"
    doc = json.loads(path.read_text())
    doc["summaries"]["ram"]["mape"] *= 1.001
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def second_selected_row(bundle, values):
    path = bundle / "tuning.csv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(",0"))
    lines[i] = lines[i][:-1] + "1"
    path.write_text("\n".join(lines) + "\n")


def leak_test_day(bundle, values):
    def edit(f):
        if f[0] == "ram":
            f[4] = f[5]
        return f
    _rewrite_forecasts(bundle, edit)


CORRUPTIONS = (
    ("forecast shifted by a day", shift_a_day, "actual"),
    ("naive taken from the wrong week", naive_wrong_week, "naive"),
    ("report.json MAPE altered", alter_report_mape, "mape.ram"),
    ("second selected tuning row", second_selected_row, "tuning"),
    ("ram forecast equal to the actual day", leak_test_day, "floor"),
)


def _evaluate(bundle: Path, env: dict) -> str:
    code = ("import sys, randfnn.cli; "
            f"sys.exit(randfnn.cli.main(['evaluate', '--forecasts', {str(bundle / 'forecasts.csv')!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    return proc.stdout


def main() -> int:
    src = Path.cwd() / "src"
    out = BENCH / "out" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    values = workloads.series(SEED)
    clean = workloads.clean_signal()
    workloads.write_series(values, out / "input.csv")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    pristine = out / "bundle"
    res = run_worker({"csv": str(out / "input.csv"), "src": str(src), "workload": WORKLOAD,
                   "seed": SEED, "trace": False, "out_dir": str(pristine),
                   "spans": str(out / "spans.csv")}, env)

    failures = 0
    failed = [n for n, ok, _ in check_bundle(pristine, values, clean, WORKLOAD,
                                              res["evaluate_stdout"]) if not ok]
    print(f"pristine bundle: {'all checks pass' if not failed else f'FAILED {failed}'}")
    failures += bool(failed)
    for label, corrupt, expected in CORRUPTIONS:
        bundle = out / expected
        shutil.copytree(pristine, bundle)
        corrupt(bundle, values)
        results = check_bundle(bundle, values, clean, WORKLOAD, _evaluate(bundle, env))
        failed = [n for n, ok, _ in results if not ok]
        caught = expected in failed
        failures += not caught
        print(f"{label}: check {expected} {'fails as it should' if caught else 'PASSES'}"
              f" (failed checks: {', '.join(failed) or 'none'})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
