"""Rolling daily forecast experiment.

The series is encoded once into a day matrix (`encoding.encode_days`).
For every test day a strictly causal training set is gathered from its
rows: the same-weekday targets before the day, each with the day `tau`
days earlier as input, under the one admissibility rule of
`encoding._pair_rows`, which screening applies too. A batch of
independently seeded models is trained, and the decoded forecasts are
scored against the actual day. Days that any configured method cannot
handle are skipped for all methods, so cross-method comparisons stay
paired.

The report keeps whole arrays in test-day order: the actual days, each
method's `(days, trials, n)` forecasts and its `(days, n)` trial-mean
APE. The percentile bands and the tuned hyperparameters that
report.json lists are computed when the bundle is written.

All randomness is derived from the master seed, the method name, the day
and the trial index, which makes reports reproducible and independent of
worker scheduling. Each tuning decision is one grid search task,
`_search`, which `randfnn tune` runs too. Searches and test days run in
one pool of spawned workers; see `_stages`, also for the `__main__`
guard that a calling script needs.
"""

import json
import os
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .encoding import (CodingVars, DayMatrix, TrainingSet, _pair_rows, build_training_set,
                       decode, encode_days)
from .errors import EmptyTrainingSet, ExperimentError, ParameterError
from .evaluation import _summary, percentage_errors, wilcoxon_signed_rank
from .randnn import (METHODS, HyperParams, derive_rng, derive_seed, draw_layers,
                     trial_predictions)
from .timeseries import TimeSeries
from .tuning import Grid, GridPoint, TuneResult, default_grid, grid_search, write_tuning_csv

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_day",
    "run_experiment",
    "write_report_bundle",
]

NAIVE = "naive"
NAIVE_PERIOD_DAYS = 7

# stream tags keeping tuning and forecasting draws disjoint
_TUNE_STREAM = 101
_FORECAST_STREAM = 202


def _method_tag(method: str) -> int:
    return zlib.crc32(method.encode())


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    test_start: date
    test_end: date
    trials: int = 100
    tau: int = 1
    seed: int = 0
    tuning: str = "once"  # once | per-day | fixed
    fixed_params: dict | None = None  # method -> HyperParams, for tuning="fixed"
    grids: dict | None = None  # method -> Grid, overrides default_grid
    cv_folds: int = 5
    trials_per_fold: int = 3
    alpha: float = 0.05
    data_path: str | None = None
    exclusions_path: str | None = None

    def __post_init__(self):
        if not self.methods:
            raise ParameterError("no methods configured")
        bad = [m for m in self.methods if m not in METHODS + (NAIVE,)]
        if bad:
            raise ParameterError(f"unknown methods {bad}")
        if len(set(self.methods)) != len(self.methods):
            raise ParameterError("duplicate methods")
        if self.test_end < self.test_start:
            raise ParameterError("test period is empty")
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if self.tau < 1:
            raise ParameterError("tau must be >= 1")
        if self.tuning not in ("once", "per-day", "fixed"):
            raise ParameterError(f"unknown tuning mode {self.tuning!r}")
        if self.tuning == "fixed":
            missing = [m for m in self.model_methods if m not in (self.fixed_params or {})]
            if missing:
                raise ParameterError(f"fixed tuning mode lacks params for {missing}")

    @property
    def model_methods(self) -> tuple[str, ...]:
        return tuple(m for m in self.methods if m != NAIVE)

    def grid_for(self, method: str) -> Grid:
        if self.grids and method in self.grids:
            return self.grids[method]
        return default_grid(method)


@dataclass
class ExperimentReport:
    """One run's results as whole arrays, indexed in `test_days` order.

    The percentile bands and the `tuned` section of report.json are not
    kept: `write_report_bundle` derives them from `forecasts` and
    `tune_tables`.
    """

    config: ExperimentConfig
    test_days: list[date]
    actual: np.ndarray  # (days, n)
    forecasts: dict  # method -> (days, trials, n) array; naive has one trial
    ape: dict  # method -> (days, n) APE, mean over trials
    summaries: dict  # method -> MetricsSummary
    wilcoxon: dict  # (method_a, method_b) -> WilcoxonResult
    tune_tables: list  # (method, scope label, TuneResult)
    skipped: list  # (date, reason)


def run_day(phi: TrainingSet, query: np.ndarray, coding: CodingVars, hp: HyperParams,
            rngs) -> np.ndarray:
    """One model method's decoded forecasts (trials, n) for one test day:
    a layer per generator in `rngs`, drawn by `draw_layers`, trained on
    `phi` in `trial_predictions`, applied to the (1, n) `query` pattern
    and decoded with `coding`."""
    layers = draw_layers(hp.method, hp.m, [hp.smoothing], phi, rngs)
    return decode(trial_predictions(*layers, phi, query)[:, 0, :], coding)


def _screen_day(day: date, days: DayMatrix, config: ExperimentConfig) -> str | None:
    """Reason to skip `day`, or None if every configured method can run it.

    `day`'s training set is empty exactly when the admissibility rule
    (`encoding._pair_rows`) finds no pair for its weekday before it; a
    fixed ddm with k neighbors needs more than k pairs.
    """
    if days.row(day) is None:
        return "missing or excluded actual day"
    inp = days.row(day - timedelta(days=config.tau))
    if inp is None:
        return "missing input pattern"
    if not days.valid[inp]:
        return "degenerate input pattern"
    if NAIVE in config.methods:
        if days.row(day - timedelta(days=NAIVE_PERIOD_DAYS)) is None:
            return "missing naive reference"
    if config.model_methods:
        pairs = _pair_rows(days, day.weekday(), config.tau, day)[0].size
        if not pairs:
            return "empty training set"
        if config.tuning == "fixed" and "ddm" in config.methods:
            k = int(config.fixed_params["ddm"].smoothing)
            if pairs <= k:
                return f"{pairs} training pairs, ddm needs more than k={k}"
    return None


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


@contextmanager
def _stages(days, most_tasks: int):
    """Yields `run(fn, tasks)`, which returns `[fn(days, task) for task
    in tasks]` in task order, for a module-level `fn`.

    With `min(usable CPUs, most_tasks)` of at least two, every call runs
    in one spawn pool of that many workers for the whole run, and `days`
    goes with each task: sent once to the pool's initializer, it would
    fill the pipe that starts each worker and start them one after
    another. The usable CPUs are the process's affinity mask
    (`os.sched_getaffinity`); run under `taskset` to use fewer. The
    executor starts workers on demand, in any call, so the BLAS thread
    variables are held at one for the pool's lifetime: every worker
    starts with one BLAS thread. Otherwise the tasks run in this
    process; there is no per-stage rule, and results do not depend on
    which path runs them. A task's exception reaches the caller with its
    type and message, and a killed worker raises `BrokenProcessPool`.
    Workers are started with `spawn`, which imports the main module
    again: a script that calls `run_experiment`, or `cli.main` with
    `tune` or `forecast`, must do so under an `if __name__ ==
    "__main__":` guard.
    """
    workers = min(_usable_cpus(), most_tasks)
    if workers < 2:
        yield lambda fn, tasks: [fn(days, task) for task in tasks]
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {k: os.environ.get(k) for k in _BLAS_THREADS}
    os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
    try:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
        try:
            yield lambda fn, tasks: list(pool.map(fn, [days] * len(tasks), tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        for k, v in saved.items():
            if v is None:
                del os.environ[k]
            else:
                os.environ[k] = v


def _search(days, task):
    """Tuning task: one method's grid search on one weekday's pairs
    before `cutoff`, seeded from `config.seed`, the method and `key`: the
    weekday for `once` tuning and `randfnn tune`, the test day's ordinal
    for `per-day` tuning. None when there are no such pairs."""
    config, method, weekday, cutoff, key = task
    try:
        phi = build_training_set(days, weekday, config.tau, cutoff)
    except EmptyTrainingSet:
        return None
    return grid_search(phi, method, config.grid_for(method), config.cv_folds,
                       derive_seed(config.seed, _TUNE_STREAM, _method_tag(method), key),
                       config.trials_per_fold)


def _forecast_day(days, task):
    """Forecast task: every method's (trials, n) forecasts for one test
    day that `_screen_day` passed, given each model method's
    hyperparameters. The model methods' inputs are gathered once, and
    every model method reads them: the input day's pattern and coding
    variables, and the day's training set. Naive repeats the day one
    week earlier. Trial t of a method draws from `derive_rng(seed, day,
    t)`, with `seed` derived from the master seed and the method."""
    config, day, hps = task
    if config.model_methods:
        inp = days.row(day - timedelta(days=config.tau))
        phi = build_training_set(days, day.weekday(), config.tau, cutoff=day)
        coding = CodingVars(float(days.mean[inp]), float(days.dispersion[inp]))
    per_method = {}
    for method in config.methods:
        if method == NAIVE:
            per_method[method] = days.values[[days.row(day - timedelta(days=NAIVE_PERIOD_DAYS))]]
        else:
            seed = derive_seed(config.seed, _FORECAST_STREAM, _method_tag(method))
            rngs = [derive_rng(seed, day.toordinal(), t) for t in range(config.trials)]
            per_method[method] = run_day(phi, days.x[[inp]], coding, hps[method], rngs)
    return per_method


def run_experiment(config: ExperimentConfig, ts: TimeSeries) -> ExperimentReport:
    """Execute the full rolling evaluation and score it: summaries and
    paired Wilcoxon decisions, from whole `(days, trials, n)` arrays in
    test-day order. Percentile bands are left to `write_report_bundle`.

    `ts` is the loaded series with its exclusions applied;
    `config.data_path` and `config.exclusions_path` only record where it
    came from, so that report.json replays the run. It is encoded once
    into a day matrix, which every stage reads. A candidate day that
    `_screen_day` rejects is skipped with its reason; every training set
    is gathered from the day matrix under that same admissibility rule.
    A day whose tuning selects no hyperparameters for some method is
    skipped after the screened days. Stages run as `_stages` describes.
    """
    days = encode_days(ts)

    candidates = [config.test_start + timedelta(days=i)
                  for i in range((config.test_end - config.test_start).days + 1)]
    skipped, test_days = [], []
    for day in candidates:
        reason = _screen_day(day, days, config)
        if reason is None:
            test_days.append(day)
        else:
            skipped.append((day, reason))

    searches = 0
    if config.tuning != "fixed":
        keys = {d.weekday() for d in test_days} if config.tuning == "once" else test_days
        searches = len(config.model_methods) * len(keys)
    with _stages(days, max(len(test_days), searches)) as run:
        tune_tables, hps = _resolve_tuning(config, test_days, run)
        tasks = []
        for day, hp in zip(test_days, hps):
            if None in hp.values():
                skipped.append((day, "empty tuning history"))
            else:
                tasks.append((config, day, hp))
        if not tasks:
            raise ExperimentError("all test days were skipped: "
                                  + "; ".join(f"{d}: {r}" for d, r in skipped[:5]))
        results = run(_forecast_day, tasks)

    test_days = [day for _, day, _ in tasks]
    actual = days.values[[days.row(d) for d in test_days]]
    forecasts = {m: np.stack([r[m] for r in results]) for m in config.methods}
    summaries, ape = {}, {}
    a = actual[:, None, :]  # (days, 1, n), against each (days, trials, n) block
    for method, block in forecasts.items():
        pe = percentage_errors(a, block)
        # day by day, so no second (days, trials, n) array is alive
        ape[method] = np.stack([np.abs(d).mean(axis=0) for d in pe.reshape(block.shape)])
        summaries[method] = _summary(pe, a, block)

    wilcoxon = {}
    for i, ma in enumerate(config.methods):
        for mb in config.methods[i + 1:]:
            wilcoxon[(ma, mb)] = wilcoxon_signed_rank(ape[ma], ape[mb], alpha=config.alpha)

    return ExperimentReport(
        config=config, test_days=test_days, actual=actual, forecasts=forecasts, ape=ape,
        summaries=summaries, wilcoxon=wilcoxon, tune_tables=tune_tables, skipped=skipped,
    )


def _resolve_tuning(config, test_days, run):
    """Hyperparameters for every test day under the tuning mode.

    Returns (tune_tables, hps): `(method, scope, TuneResult)` tables in
    tuning.csv order, and for each test day a `{method: HyperParams |
    None}` over the model methods. Each search is one `_search` task;
    `run` returns them in task order, so workers do not matter.
    `once` searches per method, then weekday, before the first test day
    (key and scope: the weekday); `per-day` per test day, then method,
    on the day's own training set (key: its ordinal, scope: its date).
    `fixed` searches nothing: each model method's table is one selected
    row, scope `fixed`, holding its fixed hyperparameters. A search
    without pairs gives no table; it, or one where no gridpoint fits,
    leaves its days with None.
    """
    methods = config.model_methods
    if config.tuning == "fixed":
        hps = {m: config.fixed_params[m] for m in methods}
        tables = [(m, "fixed", TuneResult(hp, (GridPoint(hp.m, hp.smoothing, None, None),)))
                  for m, hp in hps.items()]
        return tables, [hps] * len(test_days)

    if config.tuning == "once":
        weekdays = sorted({d.weekday() for d in test_days})
        tasks = [(config, m, wd, test_days[0], wd) for m in methods for wd in weekdays]
        scopes = [f"weekday={wd}" for wd in weekdays] * len(methods)
        day_key = date.weekday
    else:
        tasks = [(config, m, d.weekday(), d, d.toordinal()) for d in test_days for m in methods]
        scopes = [d.isoformat() for d in test_days for _ in methods]
        day_key = date.toordinal
    results = run(_search, tasks)
    best = {(m, key): None if r is None else r.best
            for (_, m, _, _, key), r in zip(tasks, results)}
    tables = [(m, scope, r) for (_, m, *_), scope, r in zip(tasks, scopes, results)
              if r is not None]
    return tables, [{m: best[m, day_key(d)] for m in methods} for d in test_days]


def _config_dict(config: ExperimentConfig) -> dict:
    """The config as JSON, keyed by field name, as `randfnn forecast
    --config` reads it back."""
    doc = asdict(config)  # hyperparameters and grids become dicts too
    doc.update(test_start=config.test_start.isoformat(), test_end=config.test_end.isoformat(),
               fixed_params=doc["fixed_params"] or None, grids=doc["grids"] or None)
    return doc


@contextmanager
def _staged(out: Path):
    """Yields `open_(name, **kwargs)`, which opens a temporary file in
    `out` for writing `name`. When the block succeeds, each temporary is
    moved onto its name (`os.replace`) in the order opened; when it
    fails, every temporary is removed and `out` keeps its old files."""
    staged = []

    def open_(name, **kwargs):
        staged.append((out / f".{name}.part", out / name))
        return open(staged[-1][0], "w", **kwargs)

    try:
        yield open_
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def write_report_bundle(report: ExperimentReport, out_dir) -> None:
    """Write report.json, forecasts.csv, ape_records.csv and tuning.csv.

    Row order and float formatting are fixed, so two runs of the same
    configuration produce byte-identical files. forecasts.csv has one
    `method,date,trial,hour,forecast,actual` row per sample, in config
    method order, then day, trial and hour, with floats as `repr`. It is
    written with one `write` per (method, day) block, so the writer never
    holds more than one block's rows as text. All four files are written
    to temporary files first and then moved into place, report.json
    last, so a write that fails leaves the previous bundle as it was,
    and a present report.json marks a complete bundle.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = report.config
    tuned = {m: {} for m in config.model_methods}  # method -> {scope -> selection | None}
    for method, scope, result in report.tune_tables:
        hp = result.best
        tuned[method][scope] = None if hp is None else {"m": hp.m, "smoothing": hp.smoothing}

    bands = {}
    for method in config.methods:
        p05, p50, p95 = np.percentile(report.forecasts[method], [5, 50, 95], axis=1).tolist()
        bands[method] = {d.isoformat(): {"p05": a, "p50": b, "p95": c}
                         for d, a, b, c in zip(report.test_days, p05, p50, p95)}

    doc = {
        "config": _config_dict(config),
        "seed": config.seed,
        "summaries": {
            m: {
                "mape": s.mape, "median_ape": s.median_ape, "rmse": s.rmse,
                "mpe": s.mpe, "std_pe": s.std_pe, "n_records": s.n_records,
            }
            for m, s in report.summaries.items()
        },
        "wilcoxon": [
            {
                "method_a": a, "method_b": b,
                "statistic": r.statistic, "p_value": r.p_value,
                "decision": r.decision, "n_effective": r.n_effective,
            }
            for (a, b), r in report.wilcoxon.items()
        ],
        "tuned": tuned,
        "bands": bands,
        "skipped_days": [{"date": d.isoformat(), "reason": r} for d, r in report.skipped],
        "test_days": [d.isoformat() for d in report.test_days],
    }

    with _staged(out) as open_:
        with open_("forecasts.csv", newline="") as fh:
            fh.write("method,date,trial,hour,forecast,actual\n")
            tails = [[f",{v!r}\n" for v in row] for row in report.actual.tolist()]
            for method in config.methods:
                trials, n = report.forecasts[method].shape[1:]
                heads = [f"{t},{h}," for t in range(trials) for h in range(n)]
                for d, tail, block in zip(report.test_days, tails, report.forecasts[method]):
                    prefix = f"{method},{d.isoformat()},"
                    values = map(repr, block.ravel().tolist())
                    fh.write("".join([f"{prefix}{head}{v}{a}"
                                      for head, v, a in zip(heads, values, tail * trials)]))

        with open_("ape_records.csv", newline="") as fh:
            fh.write("method,date,hour,ape\n")
            for method in config.methods:
                for d, row in zip(report.test_days, report.ape[method].tolist()):
                    fh.writelines(f"{method},{d.isoformat()},{h},{v!r}\n"
                                  for h, v in enumerate(row))

        with open_("tuning.csv", newline="") as fh:
            write_tuning_csv(report.tune_tables, fh)
        with open_("report.json") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
