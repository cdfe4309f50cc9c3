"""Command-line interface: synth | tune | forecast | evaluate | compare.

Exit codes: 0 success; 1 runtime/IO failure or a dead worker process;
2 usage error; 3 a `forecast` that skipped a day (its bundle is
complete, and the skipped days are listed on stderr and in report.json);
130 interrupted (Ctrl-C). Every command is deterministic given --seed.
tune and forecast print the series' load warnings (partial days
dropped, exclusion dates not in the series) on stderr as
`warning: ...`.

`tune` runs each weekday's search as the `pipeline._search` task that
`forecast --tuning once` runs, with the same seed, and writes the
bundle's tuning.csv format (scope `weekday=N`, Monday 0): the header and
the method's rows of a `once` run whose first test day is the cutoff.
Its weekdays run through `forecast`'s stage runner, `pipeline._stages`.

`forecast --config FILE` reads a JSON object keyed by `ExperimentConfig`
field names: methods, test_start, test_end, trials, tau, seed, tuning,
fixed_params, grids, cv_folds, trials_per_fold, alpha, data_path and
exclusions_path. Any other key, invalid JSON, or a field that cannot be
read as its type is a usage error naming the file. Flags override the
file: --data sets data_path, --exclude exclusions_path, --folds
cv_folds, and every other flag the field of its own name; --out-dir,
--grid-m and --grid-smoothing are flags only. report.json holds the
run's `config` object in this form, so a run replays by saving that
object to a file and passing it to --config: the bundle comes out
byte-identical.
"""

import argparse
import csv
import json
import operator
import sys
import warnings
from dataclasses import fields
from datetime import date
from pathlib import Path

import numpy as np

from .encoding import _pair_rows, encode_days
from .errors import (
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
    _search,
    _stages,
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
from .tuning import Grid, default_grid, write_tuning_csv

WEEKDAYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")
CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


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
    except KeyboardInterrupt:  # the runner has shut its pool down on the way out
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        from concurrent.futures.process import BrokenProcessPool  # loaded by a broken pool
        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"error: a worker process died ({exc})", file=sys.stderr)
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
    p.add_argument("--data", dest="data_path")
    p.add_argument("--exclude", dest="exclusions_path")
    p.add_argument("--methods", help="comma list from ram,ralpham,ddm,standard,naive")
    p.add_argument("--tau", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--test-start", type=date.fromisoformat)
    p.add_argument("--test-end", type=date.fromisoformat)
    p.add_argument("--tuning", choices=("once", "per-day", "fixed"))
    p.add_argument("--folds", type=int, dest="cv_folds")
    p.add_argument("--trials-per-fold", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid-m", help="restrict node grid for all methods")
    p.add_argument("--grid-smoothing", help="restrict smoothing grid for all methods")
    p.add_argument("--out-dir", default="randfnn-out")
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


def _flag_grid(args, base: Grid) -> Grid:
    """`base` with the values of --grid-m and --grid-smoothing, where given."""
    return Grid(_parse_int_list(args.grid_m) if args.grid_m else base.m_values,
                _parse_float_list(args.grid_smoothing) if args.grid_smoothing
                else base.smoothing_values)


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


def _load_series(data_path, exclude_path):
    """The series with its excluded days flagged; its load warnings
    (dropped partial days, exclusion dates not in it) go to stderr."""
    ts = load_csv(data_path)
    if exclude_path:
        ts = exclude_days(ts, load_exclusions(exclude_path))
    for warning in ts.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return ts


def cmd_tune(args) -> int:
    """Tune each requested weekday on its pairs before the cutoff, as
    `forecast --tuning once --test-start <cutoff>` does: one `_search`
    task per weekday, with that run's config and seeds, through the same
    stage runner. Write the tables in the bundle's tuning.csv format. A
    weekday without pairs is reported on stderr and the others are
    still tuned and written; the exit code is then 1."""
    days = encode_days(_load_series(args.data, args.exclude))
    grid = _flag_grid(args, default_grid(args.method))
    # default: every day loaded; with none left, no weekday has pairs
    cutoff = args.cutoff or date.fromordinal(int(days.ordinals.max(initial=0)) + 1)

    if args.weekday == "all":
        weekdays = list(range(7))
    elif args.weekday in WEEKDAYS:
        weekdays = [WEEKDAYS.index(args.weekday)]
    else:
        raise ParameterError(f"unknown weekday {args.weekday!r}")
    config = ExperimentConfig(
        methods=(args.method,), test_start=cutoff, test_end=cutoff, tau=args.tau,
        seed=args.seed, grids={args.method: grid}, cv_folds=args.folds,
        trials_per_fold=args.trials_per_fold)

    tables = []
    with open(args.out, "w", newline="") as fh:
        with _stages(days, len(weekdays)) as run:
            results = run(_search, [(config, args.method, wd, cutoff, wd) for wd in weekdays])
        for wd, result in zip(weekdays, results):
            if result is None:
                print(f"error: {WEEKDAYS[wd]}: no pairs for weekday {wd}, tau {args.tau}, "
                      f"cutoff {cutoff}", file=sys.stderr)
                continue
            n_pairs = _pair_rows(days, wd, args.tau, cutoff)[0].size
            best = result.best
            if best is None:
                print(f"{WEEKDAYS[wd]}: no gridpoint fits (N={n_pairs})")
            else:
                cv_error = min(p.mean_error for p in result.table if p.mean_error is not None)
                print(f"{WEEKDAYS[wd]}: m={best.m} {best.smoothing_name}={best.smoothing} "
                      f"(N={n_pairs}, cv_error={cv_error:.6g})")
            tables.append((args.method, f"weekday={wd}", result))
        write_tuning_csv(tables, fh)
    print(f"wrote {args.out}")
    return 0 if len(tables) == len(weekdays) else 1


def _integer(value) -> int:
    """`value` as an int, when it is one: 2.7 and True are rejected, not
    truncated or read as 1."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def _forecast_config(args) -> ExperimentConfig:
    """The --config file's fields, overridden by the flags given. A file
    that is not a JSON object, or a field that cannot be read, is a
    usage error naming the file and the field."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            except ValueError as exc:
                raise ParameterError(f"{args.config}: not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ParameterError(f"{args.config}: not a JSON object")
        unknown = sorted(set(cfg) - set(CONFIG_KEYS))
        if unknown:
            raise ParameterError(f"{args.config}: unknown config keys {unknown}")
    cfg.update({k: getattr(args, k) for k in CONFIG_KEYS if getattr(args, k, None) is not None})

    def convert(key, fn):
        # flags arrive parsed, so a value that fails here came from the file
        try:
            cfg[key] = fn(cfg[key])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"{args.config}: bad {key}: {exc}") from None

    if isinstance(cfg.get("methods"), str):
        cfg["methods"] = [m.strip() for m in cfg["methods"].split(",")]
    if not cfg.get("methods"):
        raise ParameterError("no methods given (--methods or config)")
    convert("methods", tuple)
    if not cfg.get("data_path"):
        raise ParameterError("no data file given (--data or config)")
    for key in ("test_start", "test_end"):
        if cfg.get(key) is None:
            raise ParameterError("--test-start and --test-end are required")
        convert(key, lambda v: v if isinstance(v, date) else date.fromisoformat(v))
    for key in ("trials", "tau", "seed", "cv_folds", "trials_per_fold"):
        if key in cfg:
            convert(key, _integer)
    if "alpha" in cfg:
        convert("alpha", float)

    cfg["grids"] = cfg.get("grids") or {}
    convert("grids", lambda gs: {
        m: Grid(tuple(map(_integer, g["m_values"])), tuple(g["smoothing_values"]))
        for m, g in gs.items()})
    if args.grid_m or args.grid_smoothing:
        for method in cfg["methods"]:
            if method == NAIVE:
                continue
            cfg["grids"][method] = _flag_grid(
                args, cfg["grids"].get(method, default_grid(method)))
    cfg["grids"] = cfg["grids"] or None
    cfg["fixed_params"] = cfg.get("fixed_params") or {}
    convert("fixed_params", lambda ps: {
        m: HyperParams(m, _integer(v["m"]), float(v["smoothing"]), _integer(v.get("seed", 0)))
        for m, v in ps.items()} or None)
    return ExperimentConfig(**cfg)


def cmd_forecast(args) -> int:
    config = _forecast_config(args)
    report = run_experiment(config, _load_series(config.data_path, config.exclusions_path))
    write_report_bundle(report, args.out_dir)

    print(f"forecast days: {len(report.test_days)}, skipped: {len(report.skipped)}")
    for method in config.methods:
        s = report.summaries[method]
        print(f"{method:>9}: MAPE={s.mape:.4f}  Median(APE)={s.median_ape:.4f}  "
              f"RMSE={s.rmse:.4f}  MPE={s.mpe:.4f}  Std(PE)={s.std_pe:.4f}")
    for (a, b), r in report.wilcoxon.items():
        print(f"{a} vs {b}: p={r.p_value:.4g} -> {r.decision}")
    print(f"report bundle in {args.out_dir}/")

    if report.skipped:
        print("skipped days:", file=sys.stderr)
        for d, reason in report.skipped:
            print(f"  {d.isoformat()}: {reason}", file=sys.stderr)
        return 3
    return 0


class _Codes(dict):
    """Method name -> integer code, numbered in first-appearance order."""

    def __missing__(self, method):
        self[method] = code = len(self)
        return code


def cmd_evaluate(args) -> int:
    """Print each method's metrics over every sample of a forecasts.csv.

    The file is CSV with a header naming at least method, date, trial,
    hour, forecast and actual, in any order and among other columns.
    Fields may be quoted with `"`; blank lines are skipped. Methods are
    reported in the order they first appear. The body is parsed in one
    `np.loadtxt` pass; numbers are read as `float` does, except that `_`
    digit separators and non-ASCII digits are rejected. A short row or a
    bad number is a ParseError and a zero actual a MetricError, both
    naming the first faulty line in file order as `path:LINE:`.
    """
    path = args.forecasts
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
        needed = {"method", "date", "trial", "hour", "forecast", "actual"}
        if not needed <= set(header):
            raise ParameterError(f"{path} lacks columns {sorted(needed)}")
        cols = tuple(header.index(c) for c in ("method", "actual", "forecast"))
        codes = _Codes()
        try:
            with warnings.catch_warnings():  # a header-only file is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, delimiter=",", usecols=cols, quotechar='"',
                                  comments=None, ndmin=1, converters={cols[0]: codes.__getitem__},
                                  dtype=[("code", "i4"), ("actual", "f8"), ("forecast", "f8")])
        except ValueError as exc:
            _raise_first_fault(path, cols)
            raise ParseError(f"{path}: {exc}") from None
    code, actual, forecast = rows["code"], rows["actual"], rows["forecast"]
    if (actual == 0.0).any():
        _raise_first_fault(path, cols)
    if not codes:
        raise ParameterError(f"{path} has no rows")

    # a bundle writes each method as one run of rows (codes ascending), which
    # slices score without copying it
    if (code[1:] >= code[:-1]).all():
        bounds = np.searchsorted(code, np.arange(len(codes) + 1)).tolist()
        parts = map(slice, bounds, bounds[1:])
    else:
        parts = (code == c for c in codes.values())
    summaries = {method: summarize(actual[part], forecast[part])
                 for method, part in zip(codes, parts)}
    width = max(len(m) for m in summaries)
    for m, s in summaries.items():
        print(f"{m:>{width}}: MAPE={s.mape:.4f}  Median(APE)={s.median_ape:.4f}  "
              f"RMSE={s.rmse:.4f}  MPE={s.mpe:.4f}  Std(PE)={s.std_pe:.4f}  "
              f"N={s.n_records}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_metrics_csv(summaries, fh)
        print(f"wrote {args.out}")
    return 0


def _number(text: str) -> float:
    """`text` as `np.loadtxt` reads a float: as `float` does, without `_`
    digit separators or non-ASCII digits."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def _raise_first_fault(path, cols) -> None:
    """Rescan forecasts.csv row by row and raise the error of its first
    faulty row with its physical line: a ParseError for a short row or a
    bad number, a MetricError for a zero actual."""
    im, ia, iv = cols
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row in reader:
                if not row:  # blank line, skipped as in the loadtxt pass
                    continue
                row[im]  # a row too short for the method column
                if _number(row[ia]) == 0.0:
                    raise MetricError(f"{path}:{reader.line_num}: actual value is zero, "
                                      "percentage errors are undefined")
                _number(row[iv])
        except (IndexError, ValueError):
            raise ParseError(f"{path}:{reader.line_num}: bad or missing method, actual or "
                             "forecast value") from None


def _read_ape_records(path) -> dict:
    """method -> {(date, hour): ape} from an ape_records.csv. A repeated
    (method, date, hour) is a ParseError: keeping either value would pair
    the Wilcoxon test on records the file does not hold once."""
    series: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"method", "date", "hour", "ape"}
        if not needed <= set(reader.fieldnames or ()):
            raise ParameterError(f"{path} lacks columns {sorted(needed)}")
        for row in reader:
            try:
                key = (row["date"], int(row["hour"]))
                ape = float(row["ape"])
            except (TypeError, ValueError):
                raise ParseError(f"{path}:{reader.line_num}: bad or missing hour or "
                                 "ape value") from None
            records = series.setdefault(row["method"], {})
            if key in records:
                raise ParseError(f"{path}:{reader.line_num}: repeated record {row['method']} "
                                 f"{key[0]} h{key[1]}")
            records[key] = ape
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
