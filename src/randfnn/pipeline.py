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

All randomness is derived from the master seed, the method name, the day
and the trial index, which makes reports reproducible and independent of
worker scheduling.

Grid searches and test days run in a pool of worker processes, one per
CPU this process may run on (`os.sched_getaffinity`) but no more than
the largest stage has tasks, each with one BLAS thread; run under
`taskset` to use fewer. With one usable CPU, or a stage of fewer than
two tasks, the tasks run in this process instead.
Workers are started with `spawn`, which imports the main module again:
a script that calls `run_experiment` must do so under an
`if __name__ == "__main__":` guard.
"""

import json
import os
import zlib
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .encoding import CodingVars, DayMatrix, _pair_rows, build_training_set, decode, encode_days
from .errors import DaySkipped, EmptyTrainingSet, ExperimentError, ParameterError
from .evaluation import summarize, wilcoxon_signed_rank
from .randnn import METHODS, HyperParams, derive_rng, derive_seed, fit, make_layer, predict
from .timeseries import TimeSeries, exclude_days, load_csv, load_exclusions
from .tuning import Grid, default_grid, grid_search

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_day",
    "run_experiment",
    "seasonal_naive",
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
    config: ExperimentConfig
    test_days: list[date]
    actuals: dict  # date -> (n,) array
    forecasts: dict  # method -> {date -> (trials, n) array}
    summaries: dict  # method -> MetricsSummary
    ape_by_key: dict  # method -> {(date, hour) -> mean APE over trials}
    wilcoxon: dict  # (method_a, method_b) -> WilcoxonResult
    tuned: dict  # method -> {scope label -> HyperParams}
    tune_tables: list  # (method, scope label, TuneResult)
    bands: dict  # method -> {date -> {"p05"|"p50"|"p95": (n,) array}}
    skipped: list  # (date, reason)


def seasonal_naive(days: DayMatrix, day: date,
                   period_days: int = NAIVE_PERIOD_DAYS) -> np.ndarray:
    """Forecast: the same weekday one week earlier, verbatim."""
    ref = days.row(day - timedelta(days=period_days))
    if ref is None:
        raise DaySkipped(f"missing naive reference day {day - timedelta(days=period_days)}")
    return days.values[ref].copy()


def run_day(days: DayMatrix, day: date, hp: HyperParams, trials: int, seed: int,
            tau: int = 1) -> np.ndarray:
    """Train `trials` independently seeded models for one day and return
    the decoded forecasts, shape (trials, n).

    The training set pairs same-weekday history strictly before `day`;
    the query pattern is the day `tau` days earlier. Raises `DaySkipped`
    when the input day is missing/degenerate or no history exists.
    """
    inp = days.row(day - timedelta(days=tau))
    if inp is None:
        raise DaySkipped("missing input pattern")
    if not days.valid[inp]:
        raise DaySkipped("degenerate input pattern")
    try:
        phi = build_training_set(days, day.weekday(), tau, cutoff=day)
    except EmptyTrainingSet:
        raise DaySkipped("empty training set") from None

    coding = CodingVars(float(days.mean[inp]), float(days.dispersion[inp]))
    out = np.empty((trials, phi.y.shape[1]))
    for t in range(trials):
        rng = derive_rng(seed, day.toordinal(), t)
        model = fit(make_layer(hp, phi, rng), phi)
        out[t] = decode(predict(model, days.x[inp]), coding)
    return out


def _load_series(config: ExperimentConfig) -> TimeSeries:
    if config.data_path is None:
        raise ParameterError("config has no data path and no series was passed")
    ts = load_csv(config.data_path)
    if config.exclusions_path:
        ts = exclude_days(ts, load_exclusions(config.exclusions_path))
    return ts


def _screen_day(day: date, days: DayMatrix, config: ExperimentConfig) -> str | None:
    """Reason to skip `day`, or None if every configured method can run it.

    `day`'s training set is empty exactly when the admissibility rule
    (`encoding._pair_rows`) finds no pair for its weekday before it.
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
        if not _pair_rows(days, day.weekday(), config.tau, day)[0].size:
            return "empty training set"
    return None


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_worker_days = None  # a pool worker's copy of the run's day matrix


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _init_worker(days, started) -> None:
    global _worker_days
    _worker_days = days
    started.wait()


def _in_worker(fn, task):
    return fn(_worker_days, task)


class _Stages:
    """Runs each stage's tasks, `fn(days, task)` for a module-level
    `fn`, and returns their results in submission order.

    A stage of at least two tasks runs in a spawn pool of
    `min(usable CPUs, most_tasks)` workers, started on first use and
    reused by later stages; with fewer than two workers or tasks, the
    tasks run in this process. A task's exception reaches the caller
    with its type and message.
    """

    def __init__(self, days, most_tasks: int):
        self.days = days
        self.workers = min(_usable_cpus(), most_tasks)
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def map(self, fn, tasks: list) -> list:
        if self.workers < 2 or len(tasks) < 2:
            return [fn(self.days, task) for task in tasks]
        if self.pool is None:
            self._start_pool()
        return list(self.pool.map(_in_worker, [fn] * len(tasks), tasks))

    def _start_pool(self) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context("spawn")
        self.pool = ProcessPoolExecutor(
            self.workers, mp_context=ctx, initializer=_init_worker,
            initargs=(self.days, ctx.Barrier(self.workers)))
        # Workers inherit the environment they start in. Each submission
        # starts a worker while none is idle, and no worker is idle before
        # all have passed the barrier, so every worker starts here.
        saved = {k: os.environ.get(k) for k in _BLAS_THREADS}
        os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
        try:
            for f in [self.pool.submit(int) for _ in range(self.workers)]:
                f.result()
        finally:
            for k, v in saved.items():
                if v is None:
                    del os.environ[k]
                else:
                    os.environ[k] = v


def _search_weekday(days, task):
    """`once` tuning task: one method's grid search on one weekday's
    history before `cutoff`; None when that history has no pairs."""
    config, method, wd, cutoff = task
    try:
        phi = build_training_set(days, wd, config.tau, cutoff)
    except EmptyTrainingSet:
        return None
    tune_seed = derive_seed(config.seed, _TUNE_STREAM, _method_tag(method), wd)
    return grid_search(phi, method, config.grid_for(method), config.cv_folds, tune_seed,
                       config.trials_per_fold)


def _search_day(days, task):
    """`per-day` tuning task: every model method's grid search on one
    test day's own training set, in config order."""
    config, day = task
    phi = build_training_set(days, day.weekday(), config.tau, cutoff=day)
    return [grid_search(phi, method, config.grid_for(method), config.cv_folds,
                        derive_seed(config.seed, _TUNE_STREAM, _method_tag(method),
                                    day.toordinal()),
                        config.trials_per_fold)
            for method in config.model_methods]


def _forecast_day(days, task):
    """Forecast task: every method's (trials, n) forecasts for one test
    day, given each model method's hyperparameters."""
    config, day, hps = task
    per_method = {}
    for method in config.methods:
        if method == NAIVE:
            per_method[method] = seasonal_naive(days, day)[None, :]
        else:
            per_method[method] = run_day(
                days, day, hps[method], config.trials,
                derive_seed(config.seed, _FORECAST_STREAM, _method_tag(method)),
                tau=config.tau,
            )
    return per_method


def run_experiment(config: ExperimentConfig, ts: TimeSeries | None = None) -> ExperimentReport:
    """Execute the full rolling evaluation and aggregate every reported
    quantity (summaries, paired Wilcoxon decisions, percentile bands).

    `ts` (loaded from `config.data_path` when None) is encoded once into
    a day matrix, which every stage reads. A candidate day is screened
    out, with its reason, when it or its input day is missing, the input
    day is constant, the naive reference is missing, or the
    admissibility rule finds no training pair before it; every training
    set is gathered from the day matrix under that same rule.

    Grid searches and test days run in a pool of spawned worker
    processes, one per usable CPU (the process's affinity mask; restrict
    it with `taskset`) and no more than a stage has tasks, each worker
    with one BLAS thread. On one CPU, or for a stage of fewer than two
    tasks, they run in this process. Results do not depend on which path
    runs them. Because workers are spawned, a script calling this must
    do so under an `if __name__ == "__main__":` guard.
    """
    if ts is None:
        ts = _load_series(config)
    days = encode_days(ts)

    candidates = [config.test_start + timedelta(days=i)
                  for i in range((config.test_end - config.test_start).days + 1)]
    skipped = []
    test_days = []
    for day in candidates:
        reason = _screen_day(day, days, config)
        if reason is None:
            test_days.append(day)
        else:
            skipped.append((day, reason))

    weekday_searches = 0
    if config.tuning == "once":
        weekday_searches = len(config.model_methods) * len({d.weekday() for d in test_days})
    with _Stages(days, max(len(test_days), weekday_searches)) as stages:
        tuned, tune_tables, hp_for = _resolve_tuning(config, test_days, stages)
        # tuning may rule out whole weekdays; re-filter
        runnable = []
        for d in test_days:
            if all(hp_for(m, d) is not None for m in config.model_methods):
                runnable.append(d)
            else:
                skipped.append((d, "empty tuning history"))
        test_days = runnable
        if not test_days:
            raise ExperimentError("all test days were skipped: "
                                  + "; ".join(f"{d}: {r}" for d, r in skipped[:5]))
        tasks = [(config, d, {m: hp_for(m, d) for m in config.model_methods})
                 for d in test_days]
        results = dict(zip(test_days, stages.map(_forecast_day, tasks)))

    actuals = {d: days.values[days.row(d)] for d in test_days}
    forecasts = {m: {d: results[d][m] for d in test_days} for m in config.methods}

    summaries, ape_by_key, ape_mean = {}, {}, {}
    actual = np.stack([actuals[d] for d in test_days])[:, None, :]  # (days, 1, n)
    for method in config.methods:
        block = np.stack([forecasts[method][d] for d in test_days])  # (days, trials, n)
        summaries[method] = summarize(actual, block)
        ape_mean[method] = np.abs(100.0 * (actual - block) / actual).mean(axis=1)
        ape_by_key[method] = {(d, h): v for d, row in zip(test_days, ape_mean[method].tolist())
                              for h, v in enumerate(row)}

    wilcoxon = {}
    for i, ma in enumerate(config.methods):
        for mb in config.methods[i + 1:]:
            wilcoxon[(ma, mb)] = wilcoxon_signed_rank(ape_mean[ma], ape_mean[mb],
                                                      alpha=config.alpha)

    bands = {
        m: {
            d: {
                "p05": np.percentile(forecasts[m][d], 5, axis=0),
                "p50": np.percentile(forecasts[m][d], 50, axis=0),
                "p95": np.percentile(forecasts[m][d], 95, axis=0),
            }
            for d in test_days
        }
        for m in config.methods
    }

    return ExperimentReport(
        config=config, test_days=test_days, actuals=actuals, forecasts=forecasts,
        summaries=summaries, ape_by_key=ape_by_key, wilcoxon=wilcoxon,
        tuned=tuned, tune_tables=tune_tables, bands=bands, skipped=skipped,
    )


def _resolve_tuning(config, test_days, stages):
    """Build the (method, day) -> HyperParams lookup for the tuning mode.

    Returns (tuned, tune_tables, hp_for). In `once` mode hyperparameters
    are tuned per weekday on history before the first test day and
    reused; `per-day` re-tunes on each day's own training set; `fixed`
    bypasses search. A weekday (or day) whose tuning set is empty, or on
    which no gridpoint fits, maps to None and its days are skipped.
    Searches run as `stages` tasks; their results are collected in
    submission order, so tuning.csv does not depend on workers.
    """
    tuned: dict = {m: {} for m in config.model_methods}
    tune_tables: list = []

    if config.tuning == "fixed":
        fixed = config.fixed_params or {}

        def hp_for(method, day):
            return fixed[method]

        for method in config.model_methods:
            tuned[method]["fixed"] = fixed[method]
        return tuned, tune_tables, hp_for

    if config.tuning == "once":
        weekdays = sorted({d.weekday() for d in test_days})
        keys = [(method, wd) for method in config.model_methods for wd in weekdays]
        results = stages.map(_search_weekday, [(config, method, wd, test_days[0])
                                               for method, wd in keys])
        chosen: dict = {}  # a weekday without pairs stays out
        for (method, wd), result in zip(keys, results):
            if result is not None:
                chosen[(method, wd)] = result.best
                tuned[method][f"weekday={wd}"] = result.best
                tune_tables.append((method, f"weekday={wd}", result))

        def hp_for(method, day):
            return chosen.get((method, day.weekday()))

        return tuned, tune_tables, hp_for

    # per-day: strict protocol, a fresh search for every forecasted day
    chosen = {}
    for day, results in zip(test_days, stages.map(_search_day,
                                                  [(config, d) for d in test_days])):
        for method, result in zip(config.model_methods, results):
            chosen[(method, day)] = result.best
            tuned[method][day.isoformat()] = result.best
            tune_tables.append((method, day.isoformat(), result))
    return tuned, tune_tables, lambda method, day: chosen[(method, day)]


def _config_dict(config: ExperimentConfig) -> dict:
    def hp_dict(hp: HyperParams):
        return {"method": hp.method, "m": hp.m, "smoothing": hp.smoothing, "seed": hp.seed}

    return {
        "methods": list(config.methods),
        "test_start": config.test_start.isoformat(),
        "test_end": config.test_end.isoformat(),
        "trials": config.trials,
        "tau": config.tau,
        "seed": config.seed,
        "tuning": config.tuning,
        "fixed_params": {m: hp_dict(hp) for m, hp in (config.fixed_params or {}).items()} or None,
        "grids": {m: {"m_values": list(g.m_values),
                      "smoothing_values": list(g.smoothing_values)}
                  for m, g in (config.grids or {}).items()} or None,
        "cv_folds": config.cv_folds,
        "trials_per_fold": config.trials_per_fold,
        "alpha": config.alpha,
        "data_path": config.data_path,
        "exclusions_path": config.exclusions_path,
    }


def write_report_bundle(report: ExperimentReport, out_dir) -> None:
    """Write report.json, forecasts.csv, ape_records.csv and tuning.csv.

    Row order and float formatting are fixed, so two runs of the same
    configuration produce byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = report.config

    with open(out / "forecasts.csv", "w", newline="") as fh:
        fh.write("method,date,trial,hour,forecast,actual\n")
        for method in config.methods:
            for d in report.test_days:
                prefix = f"{method},{d.isoformat()},"
                actual = [repr(v) for v in report.actuals[d].tolist()]
                for trial, row in enumerate(report.forecasts[method][d].tolist()):
                    head = f"{prefix}{trial},"
                    fh.writelines(f"{head}{h},{v!r},{a}\n"
                                  for h, (v, a) in enumerate(zip(row, actual)))

    with open(out / "ape_records.csv", "w", newline="") as fh:
        fh.write("method,date,hour,ape\n")
        for method in config.methods:
            for (d, h) in sorted(report.ape_by_key[method]):
                fh.write(f"{method},{d.isoformat()},{h},{report.ape_by_key[method][(d, h)]!r}\n")

    with open(out / "tuning.csv", "w", newline="") as fh:
        fh.write("method,scope,m,smoothing,mean_error,std_error,selected\n")
        for method, scope, result in report.tune_tables:
            best = result.best
            for p in result.table:
                sel = int(best is not None and p.m == best.m and p.smoothing == best.smoothing)
                errors = ",".join("" if e is None else repr(e) for e in (p.mean_error, p.std_error))
                fh.write(f"{method},{scope},{p.m},{p.smoothing!r},{errors},{sel}\n")
        for method in report.tuned:
            for scope, hp in report.tuned[method].items():
                if scope == "fixed" and hp is not None:
                    fh.write(f"{method},fixed,{hp.m},{hp.smoothing!r},,,1\n")

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
        "tuned": {
            m: {scope: None if hp is None else
                {"m": hp.m, "smoothing": hp.smoothing}
                for scope, hp in scopes.items()}
            for m, scopes in report.tuned.items()
        },
        "bands": {
            m: {
                d.isoformat(): {k: v.tolist() for k, v in report.bands[m][d].items()}
                for d in report.test_days
            }
            for m in config.methods
        },
        "skipped_days": [{"date": d.isoformat(), "reason": r} for d, r in report.skipped],
        "test_days": [d.isoformat() for d in report.test_days],
    }
    with open(out / "report.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
