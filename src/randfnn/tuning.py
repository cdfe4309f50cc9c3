"""Grid search with K-fold cross-validation over node counts and the
method-specific smoothing parameter.

The validation loss is the mean absolute error in pattern space (between
predicted and true target patterns), which keeps tuning independent of
the coding variables used for decoding.

A search returns its error table: `TuneResult.mean_error` and
`std_error` are (len(m_values), len(smoothing_values)) arrays over the
grid, rows by m and columns by smoothing value, NaN where the gridpoint
does not fit the history. The selected gridpoint is the first least
mean error in C order: smaller m first, then smaller smoothing.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import TrainingSet
from .errors import ParameterError
from .randnn import METHODS, HyperParams, derive_rng, fit, make_layer, predict

__all__ = [
    "Grid",
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


@dataclass(frozen=True, eq=False)
class TuneResult:
    best: HyperParams | None
    grid: Grid
    mean_error: np.ndarray  # (len(m_values), len(smoothing_values)); NaN: does not fit
    std_error: np.ndarray


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
        errors[i] = trials.reshape(len(smoothing), trials_per_fold, -1).mean(axis=2).mean(axis=1)
    return errors


def grid_search(phi: TrainingSet, method: str, grid: Grid, k_folds: int, seed: int,
                trials_per_fold: int = 3) -> TuneResult:
    """The error table of `grid`, as the module docstring describes, and
    its selection.

    A gridpoint's mean error is its held-out pattern-space MAE averaged
    over the folds, each fold averaging `trials_per_fold` independently
    seeded layers; its std error is the folds' sample std (ddof=1). The
    split is drawn once. The search runs fold, then m: one draw and one
    kernel call over every smoothing value that fits, whose layers share
    each trial's draw (bitwise, see `randnn`). A ddm k above the smallest
    fold training set less one cannot be generated: its column is NaN.
    With fewer pairs than folds no gridpoint fits. `best` is the first
    least entry in C order (ties prefer smaller m, then smaller
    smoothing), None when nothing fits.
    """
    if trials_per_fold < 1:
        raise ParameterError(f"trials_per_fold must be >= 1, got {trials_per_fold}")
    for m in grid.m_values:
        for s in grid.smoothing_values:
            HyperParams(method, m, s)  # rejects a bad gridpoint
    mean_error = np.full((len(grid.m_values), len(grid.smoothing_values)), np.nan)
    std_error = mean_error.copy()
    best = None
    # too few pairs to split: no fold, so no gridpoint fits
    helds = kfold_split(len(phi), k_folds, seed) if len(phi) >= k_folds else []
    max_k = len(phi) - max(map(len, helds), default=len(phi)) - 1
    # the smoothing values are increasing, so the fitting ones lead each row
    fitting = [s for s in grid.smoothing_values if method != "ddm" or s <= max_k]
    if helds and fitting:
        errors = np.stack([_fold_errors(phi, held, fold_idx, method, grid.m_values, fitting,
                                        seed, trials_per_fold)
                           for fold_idx, held in enumerate(helds)], axis=-1)
        mean_error[:, :len(fitting)] = errors.mean(axis=-1)
        std_error[:, :len(fitting)] = errors.std(axis=-1, ddof=1)
        i, j = np.unravel_index(np.nanargmin(mean_error), mean_error.shape)
        best = HyperParams(method, grid.m_values[i], grid.smoothing_values[j])
    return TuneResult(best, grid, mean_error, std_error)


def write_tuning_csv(tables, fh) -> None:
    """tuning.csv: a header, then one row per gridpoint of each
    `(method, scope, TuneResult)` in `tables`, in order: m, smoothing,
    the mean and std of the validation error (empty where the gridpoint
    did not fit) and 1 on the selected gridpoint, else 0."""
    fh.write("method,scope,m,smoothing,mean_error,std_error,selected\n")
    for method, scope, result in tables:
        best = result.best and (result.best.m, result.best.smoothing)
        grid = result.grid
        for m, means, stds in zip(grid.m_values, result.mean_error.tolist(),
                                  result.std_error.tolist()):
            for s, mean, std in zip(grid.smoothing_values, means, stds):
                errors = "," if np.isnan(mean) else f"{mean!r},{std!r}"
                fh.write(f"{method},{scope},{m},{s!r},{errors},{int((m, s) == best)}\n")
