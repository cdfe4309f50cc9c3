"""Grid search with K-fold cross-validation over node counts and the
method-specific smoothing parameter.

The validation loss is the mean absolute error in pattern space (between
predicted and true target patterns), which keeps tuning independent of
the coding variables used for decoding.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import TrainingSet
from .errors import ParameterError
from .randnn import METHODS, HyperParams, derive_rng, fit, make_layer, predict

__all__ = [
    "Grid",
    "GridPoint",
    "TuneResult",
    "default_grid",
    "kfold_split",
    "grid_search",
    "write_tuning_csv",
]


@dataclass(frozen=True)
class Grid:
    m_values: tuple[int, ...]
    smoothing_values: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("m_values", self.m_values),
                           ("smoothing_values", self.smoothing_values)):
            if not vals:
                raise ParameterError(f"{name} is empty")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ParameterError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class GridPoint:
    m: int
    smoothing: float
    mean_error: float | None  # None: the gridpoint does not fit the history
    std_error: float | None


@dataclass(frozen=True)
class TuneResult:
    best: HyperParams | None
    table: tuple[GridPoint, ...]


_M_VALUES = tuple(range(5, 55, 5))


def default_grid(method: str) -> Grid:
    """Stock search spaces per method.

    u: 0.02..0.2 step 0.02 then 0.4..1.0 step 0.2 (weight-bound methods);
    alpha_max: 2..40 step 2 then 45..90 step 5 degrees; k: 25..69 step 2.
    """
    if method in ("standard", "ram"):
        u = tuple(round(0.02 * i, 2) for i in range(1, 11)) \
            + tuple(round(0.2 + 0.2 * i, 1) for i in range(1, 5))
        return Grid(_M_VALUES, u)
    if method == "ralpham":
        alpha = tuple(float(a) for a in range(2, 41, 2)) \
            + tuple(float(a) for a in range(45, 91, 5))
        return Grid(_M_VALUES, alpha)
    if method == "ddm":
        return Grid(_M_VALUES, tuple(float(k) for k in range(25, 70, 2)))
    raise ParameterError(f"unknown method {method!r}, expected one of {METHODS}")


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Shuffle 0..n-1 and partition into k folds differing in size by at most 1."""
    if k < 2:
        raise ParameterError(f"need at least 2 folds, got {k}")
    if n < k:
        raise ParameterError(f"cannot split {n} items into {k} folds")
    perm = derive_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def _fold_errors(phi, held, fold_idx, method, m_values, smoothing, seed,
                 trials_per_fold) -> np.ndarray:
    """Held-out errors (len(m_values), len(smoothing)) of one fold: per m,
    one kernel call over every smoothing value, each trial's generator
    drawn once for all of them. The fold's training set, and ddm's slope
    tables with it, lives for this call only."""
    mask = np.ones(len(phi), dtype=bool)
    mask[held] = False
    phi_train = TrainingSet(phi.x[mask], phi.y[mask])
    errors = np.empty((len(m_values), len(smoothing)))
    for i, m in enumerate(m_values):
        rngs = [derive_rng(seed, fold_idx, trial) for trial in range(trials_per_fold)]
        layers = make_layer(method, m, smoothing, phi_train, rngs)
        trials = np.abs(predict(layers, phi.x[held], fit(layers, phi_train)) - phi.y[held])
        # one mean per trial, then over trials: one mean over all sums in another order
        errors[i] = [np.mean([e.mean() for e in t]) for t in np.split(trials, len(smoothing))]
    return errors


def grid_search(phi: TrainingSet, method: str, grid: Grid, k_folds: int, seed: int,
                trials_per_fold: int = 3) -> TuneResult:
    """Evaluate every (m, smoothing) gridpoint; ties prefer the simpler
    model (smaller m, then smaller smoothing value).

    Each gridpoint's error is the mean held-out pattern-space MAE over the
    folds, each fold averaging `trials_per_fold` independently seeded
    layers. The split is drawn once. The search runs fold, then m: one
    draw and one kernel call over every smoothing value that fits, whose
    layers share each trial's draw (bitwise, see `randnn`). A ddm
    gridpoint whose k exceeds the smallest fold training set less one
    cannot be generated: it stays in the table with no error and is never
    selected. With fewer pairs than folds no gridpoint fits. `best` is
    None when nothing fits.
    """
    if trials_per_fold < 1:
        raise ParameterError(f"trials_per_fold must be >= 1, got {trials_per_fold}")
    hps = {(m, s): HyperParams(method, m, s, seed=seed)  # rejects a bad gridpoint
           for m in grid.m_values for s in grid.smoothing_values}
    points = {(m, s): GridPoint(m, s, None, None) for m, s in hps}  # in table order
    # too few pairs to split: no fold, so no gridpoint fits
    helds = kfold_split(len(phi), k_folds, seed) if len(phi) >= k_folds else []
    max_k = len(phi) - max(map(len, helds), default=len(phi)) - 1
    fitting = [s for s in grid.smoothing_values if method != "ddm" or s <= max_k]
    if helds and fitting:
        errors = np.stack([_fold_errors(phi, held, fold_idx, method, grid.m_values, fitting,
                                        seed, trials_per_fold)
                           for fold_idx, held in enumerate(helds)], axis=-1)
        for m, row in zip(grid.m_values, errors):
            for s, e in zip(fitting, row):
                std = float(e.std(ddof=1)) if e.size > 1 else 0.0
                points[m, s] = GridPoint(m, s, float(e.mean()), std)
    table = tuple(points.values())
    best = None
    best_error = np.inf
    for p in table:
        # strict: earlier (simpler) point wins ties
        if p.mean_error is not None and p.mean_error < best_error:
            best_error = p.mean_error
            best = hps[p.m, p.smoothing]
    return TuneResult(best=best, table=table)


def write_tuning_csv(tables, fh) -> None:
    """tuning.csv: a header, then one row per gridpoint of each
    `(method, scope, TuneResult)` in `tables`, in order: m, smoothing,
    the mean and std of the validation error (empty where the gridpoint
    did not fit) and 1 on the selected gridpoint, else 0."""
    fh.write("method,scope,m,smoothing,mean_error,std_error,selected\n")
    for method, scope, result in tables:
        best = result.best
        for p in result.table:
            sel = int(best is not None and p.m == best.m and p.smoothing == best.smoothing)
            errors = ",".join("" if e is None else repr(e) for e in (p.mean_error, p.std_error))
            fh.write(f"{method},{scope},{p.m},{p.smoothing!r},{errors},{sel}\n")
