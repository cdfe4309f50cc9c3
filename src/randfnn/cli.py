"""Command-line interface: synth | tune | forecast | evaluate | compare.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error. Every command
is deterministic given --seed; forecast embeds the seed and the full
configuration in report.json for replay.
"""

import argparse
import csv
import io
import json
import sys
from datetime import date
from pathlib import Path

from .encoding import build_training_set, encode_days
from .errors import (
    EmptyTrainingSet,
    MetricError,
    PairingError,
    ParameterError,
    ParseError,
    RandfnnError,
)
from .evaluation import summarize, wilcoxon_signed_rank, write_metrics_csv
from .pipeline import (
    NAIVE,
    ExperimentConfig,
    run_experiment,
    write_report_bundle,
)
from .randnn import METHODS, HyperParams
from .timeseries import (
    SynthSpec,
    exclude_days,
    load_csv,
    load_exclusions,
    synth_generate,
    write_csv,
)
from .tuning import Grid, default_grid, grid_search, write_tuning_csv

WEEKDAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (RandfnnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randfnn",
        description="Multi-seasonal forecasting with randomized feedforward networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly series")
    p.add_argument("--days", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--spec", help="JSON file with generator fields")
    p.add_argument("--start-date", type=date.fromisoformat)
    p.add_argument("--base", type=float)
    p.add_argument("--daily-amplitude", type=float)
    p.add_argument("--weekly-modulation", type=float)
    p.add_argument("--yearly-modulation", type=float)
    p.add_argument("--noise-level", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("tune", help="grid search hyperparameters per weekday")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--weekday", default="all",
                   help="mon..sun or 'all' (default)")
    p.add_argument("--exclude", help="exclusion list file")
    p.add_argument("--tau", type=int, default=1)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--trials-per-fold", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cutoff", type=date.fromisoformat,
                   help="use only data before this date (default: all)")
    p.add_argument("--grid-m", help="comma-separated node counts")
    p.add_argument("--grid-smoothing", help="comma-separated smoothing values")
    p.add_argument("--out", default="tuning.csv")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("forecast", help="run the rolling daily experiment")
    p.add_argument("--config", help="JSON config; flags override its fields")
    p.add_argument("--data")
    p.add_argument("--exclude")
    p.add_argument("--methods", help="comma list from ram,ralpham,ddm,standard,naive")
    p.add_argument("--tau", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--test-start", type=date.fromisoformat)
    p.add_argument("--test-end", type=date.fromisoformat)
    p.add_argument("--tuning", choices=("once", "per-day", "fixed"))
    p.add_argument("--folds", type=int)
    p.add_argument("--trials-per-fold", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid-m", help="restrict node grid for all methods")
    p.add_argument("--grid-smoothing", help="restrict smoothing grid for all methods")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="recompute metrics from forecasts.csv")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--out", help="write the metric-by-method table here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="pairwise Wilcoxon matrix across runs")
    p.add_argument("inputs", nargs="+", help="ape_records.csv files (>= 2 series)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--labels", help="comma list of run labels (default: file stems)")
    p.add_argument("--out", help="write the decision matrix CSV here")
    p.set_defaults(func=cmd_compare)

    return parser


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"bad integer list {text!r}") from None


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"bad number list {text!r}") from None


def cmd_synth(args) -> int:
    fields = {}
    if args.spec:
        with open(args.spec) as fh:
            fields.update(json.load(fh))
    overrides = {
        "days": args.days,
        "start_date": args.start_date,
        "base": args.base,
        "daily_amplitude": args.daily_amplitude,
        "weekly_modulation": args.weekly_modulation,
        "yearly_modulation": args.yearly_modulation,
        "noise_level": args.noise_level,
    }
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if "days" not in fields:
        raise ParameterError("--days is required (directly or via --spec)")
    ts = synth_generate(SynthSpec.from_dict(fields), args.seed)
    write_csv(ts, args.out)
    print(f"wrote {ts.n_days * ts.n} rows to {args.out}")
    return 0


def _load_days(data_path, exclude_path):
    ts = load_csv(data_path)
    if exclude_path:
        ts = exclude_days(ts, load_exclusions(exclude_path))
    return encode_days(ts)


def cmd_tune(args) -> int:
    """Tune each requested weekday on its pairs before the cutoff. A
    weekday without pairs is reported on stderr and the others are still
    tuned and written; the exit code is then 1."""
    days = _load_days(args.data, args.exclude)
    grid = default_grid(args.method)
    if args.grid_m:
        grid = Grid(_parse_int_list(args.grid_m), grid.smoothing_values)
    if args.grid_smoothing:
        grid = Grid(grid.m_values, _parse_float_list(args.grid_smoothing))
    # default: every day loaded; with none left, no weekday has pairs
    cutoff = args.cutoff or date.fromordinal(int(days.ordinals.max(initial=0)) + 1)

    if args.weekday == "all":
        weekdays = list(range(7))
    elif args.weekday in WEEKDAYS:
        weekdays = [WEEKDAYS.index(args.weekday)]
    else:
        raise ParameterError(f"unknown weekday {args.weekday!r}")

    no_pairs = False
    with open(args.out, "w", newline="") as fh:
        for wd in weekdays:
            try:
                phi = build_training_set(days, wd, args.tau, cutoff)
            except EmptyTrainingSet as exc:
                print(f"error: {WEEKDAYS[wd]}: {exc}", file=sys.stderr)
                no_pairs = True
                continue
            result = grid_search(phi, args.method, grid, args.folds, args.seed,
                                 args.trials_per_fold)
            best = result.best
            if best is None:
                print(f"{WEEKDAYS[wd]}: no gridpoint fits (N={len(phi)})")
            else:
                cv_error = min(p.mean_error for p in result.table if p.mean_error is not None)
                print(f"{WEEKDAYS[wd]}: m={best.m} {best.smoothing_name}={best.smoothing} "
                      f"(N={len(phi)}, cv_error={cv_error:.6g})")
            _append_tuning(fh, result, {"method": args.method, "weekday": WEEKDAYS[wd]},
                           header=fh.tell() == 0)
    print(f"wrote {args.out}")
    return 1 if no_pairs else 0


def _append_tuning(fh, result, context, header):
    buf = io.StringIO()
    write_tuning_csv(result, buf, context=context)
    lines = buf.getvalue().splitlines(keepends=True)
    fh.writelines(lines if header else lines[1:])


def cmd_forecast(args) -> int:
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)

    def pick(key, default=None):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            return v
        return cfg.get(key, default)

    methods = pick("methods")
    if isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(","))
    if not methods:
        raise ParameterError("no methods given (--methods or config)")
    data = pick("data")
    if not data:
        raise ParameterError("no data file given (--data or config)")
    test_start, test_end = pick("test-start"), pick("test-end")
    if isinstance(test_start, str):
        test_start = date.fromisoformat(test_start)
    if isinstance(test_end, str):
        test_end = date.fromisoformat(test_end)
    if test_start is None or test_end is None:
        raise ParameterError("--test-start and --test-end are required")

    grids = {}
    for method, g in (cfg.get("grids") or {}).items():
        grids[method] = Grid(tuple(g["m_values"]), tuple(g["smoothing_values"]))
    grid_m = pick("grid-m")
    grid_s = pick("grid-smoothing")
    if grid_m or grid_s:
        for method in methods:
            if method == NAIVE:
                continue
            base = grids.get(method, default_grid(method))
            m_values = _parse_int_list(grid_m) if isinstance(grid_m, str) else base.m_values
            s_values = (_parse_float_list(grid_s) if isinstance(grid_s, str)
                        else base.smoothing_values)
            grids[method] = Grid(m_values, s_values)

    fixed = None
    if cfg.get("fixed_params"):
        fixed = {m: HyperParams(m, int(v["m"]), float(v["smoothing"]),
                                int(v.get("seed", 0)))
                 for m, v in cfg["fixed_params"].items()}

    config = ExperimentConfig(
        methods=tuple(methods),
        test_start=test_start,
        test_end=test_end,
        trials=int(pick("trials", 100)),
        tau=int(pick("tau", 1)),
        seed=int(pick("seed", 0)),
        tuning=pick("tuning", "once"),
        fixed_params=fixed,
        grids=grids or None,
        cv_folds=int(pick("folds", 5)),
        trials_per_fold=int(pick("trials-per-fold", 3)),
        alpha=float(pick("alpha", 0.05)),
        data_path=data,
        exclusions_path=pick("exclude"),
    )
    out_dir = pick("out-dir", "randfnn-out")

    report = run_experiment(config)
    write_report_bundle(report, out_dir)

    print(f"forecast days: {len(report.test_days)}, skipped: {len(report.skipped)}")
    for method in config.methods:
        s = report.summaries[method]
        print(f"{method:>9}: MAPE={s.mape:.4f}  Median(APE)={s.median_ape:.4f}  "
              f"RMSE={s.rmse:.4f}  MPE={s.mpe:.4f}  Std(PE)={s.std_pe:.4f}")
    for (a, b), r in report.wilcoxon.items():
        print(f"{a} vs {b}: p={r.p_value:.4g} -> {r.decision}")
    print(f"report bundle in {out_dir}/")

    if report.skipped:
        print("skipped days:", file=sys.stderr)
        for d, reason in report.skipped:
            print(f"  {d.isoformat()}: {reason}", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    by_method: dict = {}  # method -> (actuals, forecasts), in file order
    with open(args.forecasts, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        needed = {"method", "date", "trial", "hour", "forecast", "actual"}
        if not needed <= set(header):
            raise ParameterError(f"{args.forecasts} lacks columns {sorted(needed)}")
        im, ia, iv = (header.index(c) for c in ("method", "actual", "forecast"))
        try:
            for row in reader:
                if not row:  # blank line, skipped as csv.DictReader does
                    continue
                a, f = by_method.setdefault(row[im], ([], []))
                actual = float(row[ia])
                if actual == 0.0:
                    raise MetricError(f"{args.forecasts}:{reader.line_num}: actual value "
                                      "is zero, percentage errors are undefined")
                a.append(actual)
                f.append(float(row[iv]))
        except (IndexError, ValueError):
            raise ParseError(f"{args.forecasts}:{reader.line_num}: bad or missing "
                             "method, actual or forecast value") from None
    if not by_method:
        raise ParameterError(f"{args.forecasts} has no rows")

    summaries = {m: summarize(a, f) for m, (a, f) in by_method.items()}
    width = max(len(m) for m in summaries)
    for m, s in summaries.items():
        print(f"{m:>{width}}: MAPE={s.mape:.4f}  Median(APE)={s.median_ape:.4f}  "
              f"RMSE={s.rmse:.4f}  MPE={s.mpe:.4f}  Std(PE)={s.std_pe:.4f}  "
              f"N={s.n_records}")
    if args.out:
        write_metrics_csv(summaries, args.out)
        print(f"wrote {args.out}")
    return 0


def _read_ape_records(path) -> dict:
    series: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"method", "date", "hour", "ape"}
        if not needed <= set(reader.fieldnames or ()):
            raise ParameterError(f"{path} lacks columns {sorted(needed)}")
        for row in reader:
            key = (row["date"], int(row["hour"]))
            series.setdefault(row["method"], {})[key] = float(row["ape"])
    if not series:
        raise ParameterError(f"{path} has no rows")
    return series


def cmd_compare(args) -> int:
    labels = args.labels.split(",") if args.labels else None
    if labels and len(labels) != len(args.inputs):
        raise ParameterError(f"{len(labels)} labels for {len(args.inputs)} inputs")

    named: list[tuple[str, dict]] = []
    for i, path in enumerate(args.inputs):
        run_label = labels[i] if labels else Path(path).stem if len(args.inputs) > 1 else ""
        for method, records in _read_ape_records(path).items():
            name = f"{run_label}:{method}" if run_label else method
            named.append((name, records))
    if len(named) < 2:
        raise ParameterError("need at least two series to compare")

    ref_name, ref = named[0]
    ref_keys = set(ref)
    for name, records in named[1:]:
        missing = ref_keys ^ set(records)
        if missing:
            sample = ", ".join(f"{d} h{h}" for d, h in sorted(missing)[:10])
            raise PairingError(
                f"{name} and {ref_name} differ on {len(missing)} record keys: {sample}")

    keys = sorted(ref_keys)
    rows = []
    for i, (name_a, rec_a) in enumerate(named):
        for name_b, rec_b in named[i + 1:]:
            r = wilcoxon_signed_rank([rec_a[k] for k in keys], [rec_b[k] for k in keys],
                                     alpha=args.alpha)
            if r.decision == "A better":
                verdict = name_a
            elif r.decision == "B better":
                verdict = name_b
            else:
                verdict = "-"
            rows.append((name_a, name_b, r.p_value, verdict))
            print(f"{name_a} vs {name_b}: p={r.p_value:.4g} -> "
                  f"{verdict if verdict != '-' else 'indistinguishable'}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series_a", "series_b", "p_value", "lower_error"])
            for a, b, p, verdict in rows:
                writer.writerow([a, b, repr(p), verdict])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
