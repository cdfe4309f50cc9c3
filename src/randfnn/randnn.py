"""Randomized single-hidden-layer feedforward network.

Hidden-node parameters are generated, never trained; only the output
weights are fit, in closed form, as the minimum-norm least-squares
solution for the hidden layer output matrix (`numerics.pinv_solve`).
Four generators are provided:

* ``standard``  - weights and biases i.i.d. uniform on [-u, u].
* ``ram``       - weights uniform on [-u, u]; each bias is set so the
                  sigmoid's inflection point lands exactly on a randomly
                  chosen training pattern (its "anchor").
* ``ralpham``   - per-weight slope angles uniform on (0, alpha_max),
                  converted to weights by a = 4*tan(alpha) with an
                  independent random sign: angle-derived weights alone are
                  non-negative and would only allow sigmoids increasing
                  along every axis. Biases anchored as in ``ram``.
* ``ddm``       - each node picks a random training pattern and a random
                  target component, fits a hyperplane to that component
                  over the pattern and its k nearest neighbors, and takes
                  4x its slopes as weights; biases anchored on the pattern.

All generators draw from a single `numpy.random.Generator` in a fixed
order (weight block first, then per-node index draws), so a layer is
reproducible from its seed alone.

`draw_layers` stacks layers over smoothing values and generators, and
draws each generator's stream once for all the values. This is bitwise
a draw per value: numpy's `uniform(low, high)` is ``low + (high - low)·U``
with U the stream's next double, so with ``d = rng.random(shape)`` each
``-u + (u - -u)·d`` (ralpham: ``0 + alpha·d``) is that value's weight or
angle block, and what follows the block does not depend on the value.
`make_layer` is its one-layer view.

A ddm node's slopes depend only on the training set, k, its anchor and
its target component. So ``ddm`` builds the whole (N, p, n) table of
them once per training set and k, in whole-array passes
(`numerics.neighborhood_slopes`: one stacked kNN over every anchor, one
stacked solve of the neighborhood designs, every component in one
product), and gathers each layer's weights from it with one fancy index.
The tables live in `TrainingSet.memo`, one per k, so a grid search draws
every k of a fold from one stream per trial, as the other methods draw
their smoothing values. A table's row for an anchor is, bit for bit,
`fit_hyperplane` over the anchor's kNN neighborhood with all target
columns as one block.

`trial_predictions` trains a stack of drawn layers at once (one stacked
`H`, one stacked `numerics.pinv_solve`): a forecast day's trials, or a
fold's trials at every smoothing value of a grid. `fit` and `predict`,
one network each, are the reference it matches bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .encoding import TrainingSet
from .errors import ParameterError, ShapeError
from .numerics import neighborhood_slopes, pinv_solve, sigmoid

__all__ = [
    "METHODS",
    "HiddenLayer",
    "RandFnnModel",
    "HyperParams",
    "derive_rng",
    "derive_seed",
    "make_layer",
    "draw_layers",
    "hidden_output",
    "fit",
    "predict",
    "trial_predictions",
]

METHODS = ("standard", "ram", "ralpham", "ddm")

# alpha_max = 90 deg is a legal grid label but tan(90) is singular; layers
# are generated with this effective ceiling instead.
MAX_ALPHA_DEG = 89.9

# the largest u whose weight range u - (-u) is finite
MAX_U = float(np.finfo(float).max) / 2

_SMOOTHING_NAMES = {"standard": "u", "ram": "u", "ralpham": "alpha_max", "ddm": "k"}


def derive_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator from a tuple of non-negative integer keys."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def derive_seed(*keys: int) -> int:
    """Collapse integer keys into one deterministic 32-bit seed."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass(frozen=True)
class HiddenLayer:
    """m hidden-node weight vectors and biases; `anchor_indices` records
    which training pattern each node's bias was anchored to (methods
    other than ``standard``)."""

    method: str
    weights: np.ndarray  # (m, n)
    biases: np.ndarray  # (m,)
    anchor_indices: np.ndarray | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        b = np.array(self.biases, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ShapeError(f"weights {w.shape} and biases {b.shape} disagree")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ParameterError("layer parameters must be finite")
        w.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class RandFnnModel:
    hidden: HiddenLayer
    beta: np.ndarray  # (m, p)

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.shape[0] != self.hidden.m:
            raise ShapeError(f"beta has {beta.shape[0]} rows for {self.hidden.m} nodes")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class HyperParams:
    """Node count plus the method's smoothing knob (u, alpha_max, or k)."""

    method: str
    m: int
    smoothing: float
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        s = self.smoothing
        if not math.isfinite(s):
            raise ParameterError(f"{self.smoothing_name} must be finite, got {s}")
        if self.method in ("standard", "ram") and not s > 0:
            raise ParameterError(f"u must be positive, got {s}")
        if self.method in ("standard", "ram") and s > MAX_U:
            raise ParameterError(f"u must be at most {MAX_U!r}, where u - (-u) is finite, got {s}")
        if self.method == "ralpham" and not 0 < s <= 90:
            raise ParameterError(f"alpha_max must be in (0, 90] degrees, got {s}")
        if self.method == "ddm" and (s < 1 or s != int(s)):
            raise ParameterError(f"k must be a positive integer, got {s}")

    @property
    def smoothing_name(self) -> str:
        return _SMOOTHING_NAMES[self.method]


def _anchored_biases(weights: np.ndarray, anchors: np.ndarray,
                     x_patterns: np.ndarray) -> np.ndarray:
    # b_j = -a_j . x*_j puts each sigmoid's inflection point on its anchor
    return -np.einsum("...j,...j->...", weights, x_patterns[anchors])


def _uniform(d: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    # (S, *d.shape): rng.uniform(low[s], high[s], d.shape) for every s, bitwise,
    # from d = rng.random(d.shape) drawn once (numpy: low + (high - low) * U)
    shape = (-1,) + (1,) * d.ndim
    return low.reshape(shape) + (high - low).reshape(shape) * d


def _stack(draws) -> list[np.ndarray]:
    # per-generator tuples of draws -> one (T, ...) array per draw
    return [np.stack(d) for d in zip(*draws)]


# The _draw_* functions return (S, T, m, n) weights, (S, T, m) biases and
# (T, m) anchors (None for standard) for the S smoothing values `s` and the
# T generators `rngs`.

def _draw_standard(m: int, s: np.ndarray, phi: TrainingSet, rngs):
    unit_w, unit_b = _stack((rng.random((m, phi.n)), rng.random(m)) for rng in rngs)
    return _uniform(unit_w, -s, s), _uniform(unit_b, -s, s), None


def _draw_ram(m: int, s: np.ndarray, phi: TrainingSet, rngs):
    unit, anchors = _stack((rng.random((m, phi.n)), rng.integers(0, len(phi), size=m))
                           for rng in rngs)
    weights = _uniform(unit, -s, s)
    return weights, _anchored_biases(weights, anchors, phi.x), anchors


def _draw_ralpham(m: int, s: np.ndarray, phi: TrainingSet, rngs):
    alpha = np.minimum(s, MAX_ALPHA_DEG)  # the 90-degree label
    shape = (m, phi.n)
    unit, signs, anchors = _stack(
        (rng.random(shape), rng.integers(0, 2, size=shape) * 2 - 1,
         rng.integers(0, len(phi), size=m)) for rng in rngs)
    angles = _uniform(unit, np.zeros_like(alpha), alpha)
    weights = signs * 4.0 * np.tan(np.radians(angles))
    return weights, _anchored_biases(weights, anchors, phi.x), anchors


def _draw_ddm(m: int, s: np.ndarray, phi: TrainingSet, rngs):
    anchors, components = _stack(
        (rng.integers(0, len(phi), size=m), rng.integers(0, phi.y.shape[1], size=m))
        for rng in rngs)
    weights = np.empty((len(s), *anchors.shape, phi.n))
    for i, k in enumerate(map(int, s)):
        slopes = phi.memo.get(("ddm", k))
        if slopes is None:  # knn rejects k past N - 1
            slopes = phi.memo["ddm", k] = neighborhood_slopes(phi.x, phi.y, k)
        weights[i] = 4.0 * slopes[anchors, components]
    return weights, _anchored_biases(weights, anchors, phi.x), anchors


_DRAWS = {"standard": _draw_standard, "ram": _draw_ram, "ralpham": _draw_ralpham,
          "ddm": _draw_ddm}


def draw_layers(method: str, m: int, smoothing, phi: TrainingSet,
                rngs) -> tuple[np.ndarray, np.ndarray]:
    """Hidden layers of `method` with m nodes for every smoothing value
    (outer) and generator in `rngs` (inner): weights (S·T, m, n) and
    biases (S·T, m), entry s·T + t bitwise `make_layer(HyperParams(method,
    m, smoothing[s]), phi, rngs[t])`. Each generator is drawn once for all
    of `smoothing` (see the module docstring). Each value is checked by
    `HyperParams`, and a non-finite weight or bias raises `ParameterError`.
    """
    for s in smoothing:
        HyperParams(method, m, s)
    weights, biases, _ = _DRAWS[method](m, np.asarray(smoothing, dtype=float), phi, rngs)
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(biases))):
        raise ParameterError("layer parameters must be finite")
    return weights.reshape(-1, m, phi.n), biases.reshape(-1, m)


def make_layer(hp: HyperParams, phi: TrainingSet,
               rng: np.random.Generator | None = None) -> HiddenLayer:
    """Generate a hidden layer per `hp`, drawing data from `phi` as needed:
    the one-layer view of `draw_layers`.

    The 90-degree grid label for ``ralpham`` is generated at an effective
    89.9 degrees (tangent singularity); reports keep the original label.
    """
    if rng is None:
        rng = derive_rng(hp.seed)
    s = np.array([hp.smoothing], dtype=float)
    weights, biases, anchors = _DRAWS[hp.method](hp.m, s, phi, [rng])
    return HiddenLayer(hp.method, weights[0, 0], biases[0, 0],
                       None if anchors is None else anchors[0])


def _patterns(layer: HiddenLayer, x_patterns) -> np.ndarray:
    X = np.atleast_2d(np.asarray(x_patterns, dtype=float))
    if X.shape[1] != layer.n_inputs:
        raise ShapeError(f"patterns have length {X.shape[1]}, layer expects {layer.n_inputs}")
    return X


def _rowwise(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    # One 1-row product per row: each row takes the BLAS call a lone row
    # takes, whatever the batch size. A plain X @ M switches kernel (and
    # summation order) between one row and many.
    return np.matmul(X[:, None, :], M)[:, 0, :]


def hidden_output(layer: HiddenLayer, x_patterns) -> np.ndarray:
    """Hidden layer output matrix: H[i, j] = sigmoid(a_j . x_i + b_j).

    This is the training-matrix kernel used by `fit`: one matrix product
    over all rows. Its rows may differ in the last bits with the number
    of rows passed, so forecasts for query patterns go through `predict`.
    """
    X = _patterns(layer, x_patterns)
    return sigmoid(X @ layer.weights.T + layer.biases)


def fit(layer: HiddenLayer, phi: TrainingSet) -> RandFnnModel:
    """Closed-form output weights: the minimum-norm least-squares solution
    of hidden_output(layer, X) @ beta = Y, by `pinv_solve` (QR or SVD);
    the reference of `trial_predictions`."""
    beta = pinv_solve(hidden_output(layer, phi.x), phi.y)
    return RandFnnModel(hidden=layer, beta=beta)


def predict(model: RandFnnModel, x) -> np.ndarray:
    """Multi-output prediction; accepts one pattern or a stack of them.

    Each output row is bitwise independent of the other rows in the
    batch: predicting a stack gives exactly the rows that predicting each
    pattern alone gives. The reference of `trial_predictions`.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    layer = model.hidden
    X = _patterns(layer, x)
    H = sigmoid(_rowwise(X, layer.weights.T) + layer.biases)
    out = _rowwise(H, model.beta)
    return out[0] if single else out


def trial_predictions(weights: np.ndarray, biases: np.ndarray, phi: TrainingSet,
                      queries: np.ndarray) -> np.ndarray:
    """Predictions (L, queries, p) of the L networks with hidden layers
    `weights` (L, m, n) and `biases` (L, m), each trained on `phi`:
    bitwise `predict(fit(layer, phi), queries)` per layer, since each
    stacked product runs, per layer and query, the BLAS call of `fit` or
    `predict`. The (L, N, m) stack of hidden outputs goes through one
    `pinv_solve`, which checks it and routes each matrix to QR or SVD as
    it routes that matrix alone.
    """
    Wt = weights.transpose(0, 2, 1)  # (L, n, m)
    b = biases[:, None, :]  # (L, 1, m)
    Z = phi.x @ Wt
    Z += b
    H = sigmoid(Z)
    del Z  # H alone is held through the solve
    beta = pinv_solve(H, phi.y)
    H = sigmoid(np.matmul(queries[None, :, None, :], Wt[:, None])[:, :, 0, :] + b)
    return np.matmul(H[:, :, None, :], beta[:, None])[:, :, 0, :]
