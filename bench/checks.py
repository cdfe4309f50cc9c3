"""Correctness checks of a report bundle, computed apart from the program.

Every check reads only the bundle files, the text `randfnn evaluate`
printed, and the benchmark's own input series and noise-free signal.
None of them imports randfnn. `check_bundle` returns one
(name, passed, detail) entry per check.
"""

import csv
import json
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
from scipy.stats import wilcoxon

from workloads import RAM_GRID_M, RAM_GRID_U, START

# A causal forecast cannot beat the noise-free signal in expectation. The
# floor check allows this many standard errors of the paired per-sample
# difference (model trial-mean APE minus floor APE) below the floor.
FLOOR_MARGIN_SE = 4.0


def _day_index(text: str) -> int:
    return (date.fromisoformat(text) - START).days


def read_forecasts(path) -> dict:
    """method -> dict of arrays day, trial, hour, forecast, actual (file order)."""
    cols: dict = {}
    idx_cache: dict = {}
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n")
        if header != "method,date,trial,hour,forecast,actual":
            raise ValueError(f"unexpected forecasts.csv header {header!r}")
        for line in fh:
            method, d, trial, hour, f, a = line.rstrip("\n").split(",")
            day = idx_cache.get(d)
            if day is None:
                day = idx_cache[d] = _day_index(d)
            c = cols.setdefault(method, ([], [], [], [], []))
            c[0].append(day)
            c[1].append(int(trial))
            c[2].append(int(hour))
            c[3].append(float(f))
            c[4].append(float(a))
    return {
        m: {"day": np.array(c[0]), "trial": np.array(c[1]), "hour": np.array(c[2]),
            "forecast": np.array(c[3]), "actual": np.array(c[4])}
        for m, c in cols.items()
    }


def read_ape_records(path) -> dict:
    """method -> (day array, hour array, ape array), sorted by (day, hour)."""
    rows: dict = {}
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            rows.setdefault(r["method"], []).append(
                (_day_index(r["date"]), int(r["hour"]), float(r["ape"])))
    out = {}
    for m, recs in rows.items():
        recs.sort()
        a = np.array(recs)
        out[m] = (a[:, 0].astype(int), a[:, 1].astype(int), a[:, 2])
    return out


def parse_evaluate(stdout: str) -> dict:
    """method -> (MAPE, N) as printed by `randfnn evaluate`."""
    out = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(":")
        if not sep or "MAPE=" not in rest:
            continue
        fields = dict(kv.split("=", 1) for kv in rest.split())
        out[name.strip()] = (float(fields["MAPE"]), int(fields["N"]))
    return out


def _trial_mean_ape(fc: dict, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample keys (day * 24 + hour) and APE averaged over trials."""
    actual = values[fc["day"], fc["hour"]]
    ape = np.abs(100.0 * (actual - fc["forecast"]) / actual)
    key = fc["day"] * values.shape[1] + fc["hour"]
    keys, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    return keys, np.bincount(inverse, weights=ape) / counts


def check_bundle(bundle, values: np.ndarray, clean: np.ndarray, wl: dict,
                 evaluate_stdout: str) -> list[tuple[str, bool, str]]:
    """Run every check on one bundle; see the module docstring."""
    bundle = Path(bundle)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    report = json.loads((bundle / "report.json").read_text())
    fcs = read_forecasts(bundle / "forecasts.csv")
    apes = read_ape_records(bundle / "ape_records.csv")
    printed = parse_evaluate(evaluate_stdout)
    model, methods = wl["model"], wl["methods"]

    first, last = _day_index(wl["test_start"]), _day_index(wl["test_end"])
    period = np.arange(first, last + 1)
    test_days = np.array([_day_index(d) for d in report["test_days"]])
    record("period", np.array_equal(test_days, period) and not report["skipped_days"]
           and sorted(fcs) == sorted(methods),
           f"{len(test_days)} of {period.size} days forecast, methods {sorted(fcs)}")

    # the actual column is the benchmark's own input at that date and hour
    bad = {m: int(np.count_nonzero(fc["actual"] != values[fc["day"], fc["hour"]]))
           for m, fc in fcs.items()}
    shape_ok = all(
        fc["day"].size == period.size * 24 * (1 if m == "naive" else wl["trials"])
        and np.array_equal(np.unique(fc["day"]), period)
        for m, fc in fcs.items())
    record("actual", shape_ok and not any(bad.values()), f"mismatched rows {bad}")

    # seasonal naive: the input seven days earlier, exactly
    nv = fcs.get("naive")
    n_bad = -1 if nv is None else int(np.count_nonzero(
        nv["forecast"] != values[nv["day"] - 7, nv["hour"]]))
    record("naive", n_bad == 0, f"{n_bad} naive forecasts differ from the day a week before")

    # ape_records.csv: trial-mean APE per (date, hour), recomputed
    mine_ape = {}
    ape_ok = True
    for m, fc in fcs.items():
        keys, ape = _trial_mean_ape(fc, values)
        mine_ape[m] = (keys, ape)
        day, hour, file_ape = apes.get(m, (np.array([]),) * 3)
        ape_ok &= (np.array_equal(day * 24 + hour, keys)
                   and np.allclose(file_ape, ape, rtol=1e-12, atol=0.0))
    record("ape_records", ape_ok, "trial-mean APE in ape_records.csv vs forecasts.csv")

    # MAPE recomputed with numpy matches report.json and `randfnn evaluate`
    mape = {}
    for m, fc in fcs.items():
        actual = values[fc["day"], fc["hour"]]
        mape[m] = float(np.mean(np.abs(100.0 * (actual - fc["forecast"]) / actual)))
    for m in methods:
        summ = report["summaries"].get(m, {})
        rep = summ.get("mape", math.nan)
        cli, n_cli = printed.get(m, (math.nan, -1))
        n = fcs[m]["day"].size if m in fcs else -2
        ok = (m in mape and math.isclose(rep, mape[m], rel_tol=1e-9)
              and abs(cli - mape[m]) <= 0.5e-4 + 1e-9 * mape[m]
              and summ.get("n_records") == n == n_cli)
        record(f"mape.{m}", ok,
               f"numpy {mape.get(m)!r}, report.json {rep!r}, evaluate {cli!r} (N={n_cli})")

    # Wilcoxon (model, naive) against scipy, normal approximation with
    # continuity correction, on the APEs of ape_records.csv
    entry = next((w for w in report["wilcoxon"]
                  if (w["method_a"], w["method_b"]) == (model, "naive")), None)
    if entry is None or model not in apes or "naive" not in apes:
        record("wilcoxon", False, "no (model, naive) Wilcoxon entry or APE series")
    else:
        ref = wilcoxon(apes[model][2], apes["naive"][2], zero_method="wilcox",
                       correction=True, method="approx")
        ok = (math.isclose(entry["statistic"], float(ref.statistic), rel_tol=1e-9)
              and math.isclose(entry["p_value"], float(ref.pvalue), rel_tol=1e-6,
                               abs_tol=1e-300))
        record("wilcoxon", ok, f"report {entry['statistic']!r}/{entry['p_value']!r}, "
                               f"scipy {float(ref.statistic)!r}/{float(ref.pvalue)!r}")

    record("beats_naive", mape.get(model, math.inf) < mape.get("naive", -math.inf),
           f"{model} {mape.get(model)!r} vs naive {mape.get('naive')!r}")

    # no causal forecast beats the noise-free signal by more than sampling
    if model in mine_ape:
        keys, model_ape = mine_ape[model]
        day, hour = keys // 24, keys % 24
        actual = values[day, hour]
        floor_ape = np.abs(100.0 * (actual - clean[day, hour]) / actual)
        diff = model_ape - floor_ape
        margin = FLOOR_MARGIN_SE * float(diff.std(ddof=1)) / math.sqrt(diff.size)
        floor = float(floor_ape.mean())
        record("floor", mape[model] >= floor - margin,
               f"{model} {mape[model]:.4f} vs noise-free {floor:.4f} - margin {margin:.4f}")
    else:
        record("floor", False, f"no {model} forecasts")

    record(*_check_tuning(bundle / "tuning.csv", report, wl, period))
    return results


def _check_tuning(path, report, wl, period) -> tuple[str, bool, str]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    model = wl["model"]
    if wl["tuning"] == "fixed":
        p = wl["fixed_params"][model]
        want = [{"method": model, "scope": "fixed", "m": str(p["m"]),
                 "smoothing": repr(float(p["smoothing"])), "mean_error": "",
                 "std_error": "", "selected": "1"}]
        return "tuning", rows == want, f"{len(rows)} rows, fixed params {p}"

    grid = [(m, u) for m in RAM_GRID_M for u in RAM_GRID_U]
    weekdays = sorted({(START + timedelta(days=int(d))).weekday() for d in period})
    scopes: dict = {}
    for r in rows:
        scopes.setdefault((r["method"], r["scope"]), []).append(r)
    want_scopes = [(model, f"weekday={wd}") for wd in weekdays]
    if sorted(scopes) != sorted(want_scopes):
        return "tuning", False, f"scopes {sorted(scopes)}, expected {want_scopes}"
    for (method, scope), rs in scopes.items():
        if [(int(r["m"]), float(r["smoothing"])) for r in rs] != grid:
            return "tuning", False, f"{scope} does not list the default grid in order"
        errors = [float(r["mean_error"]) for r in rs]
        selected = [i for i, r in enumerate(rs) if r["selected"] == "1"]
        first_min = errors.index(min(errors))
        if selected != [first_min]:
            return "tuning", False, f"{scope}: selected rows {selected}, first least {first_min}"
        tuned = report["tuned"][method][scope]
        if (tuned["m"], tuned["smoothing"]) != grid[first_min]:
            return "tuning", False, f"{scope}: report.json tuned {tuned} != {grid[first_min]}"
    return "tuning", True, f"{len(scopes)} weekday scopes x {len(grid)} gridpoints"
