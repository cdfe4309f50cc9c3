"""Randomized single-hidden-layer feedforward network.

Hidden-node parameters are generated, never trained; only the output
weights are fit, in closed form, through the pseudoinverse of the hidden
layer output matrix. Four generators are provided:

* ``standard``  - weights and biases i.i.d. uniform on [-u, u].
* ``ram``       - weights uniform on [-u, u]; each bias is set so the
                  sigmoid's inflection point lands exactly on a randomly
                  chosen training pattern (its "anchor").
* ``ralpham``   - per-weight slope angles uniform on (0, alpha_max),
                  converted to weights by a = 4*tan(alpha) with an
                  independent random sign; biases anchored as in ``ram``.
* ``ddm``       - weights are 4x the slope coefficients of a hyperplane
                  fitted to a target component over the k-nearest-neighbor
                  neighborhood of a random training pattern; biases
                  anchored on that pattern.

All generators draw from a single `numpy.random.Generator` in a fixed
order (weight block first, then per-node index draws), so a layer is
reproducible from its seed alone.

A ddm node's neighborhood and the SVD of its hyperplane design depend
only on the training set, k and the anchor, and its slopes also on the
target component. So ``ddm`` computes each of them once per training set
and looks them up for every later node, trial and m. The cache lives in
`TrainingSet.memo` and holds one k at a time, which bounds it to one
neighborhood per anchor (grid search visits its gridpoints k by k). A
cached slope equals, bit for bit, what the uncached kNN +
`fit_hyperplane` computation returns: the same kernels run on the same
read-only inputs, and each component is still solved as its own
single-column product.

`trial_predictions` trains a forecast day's or a fold's batch of networks
at once (one stacked `H`, one batched SVD); `fit` and `predict`, one
network each, are the reference it matches bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .encoding import TrainingSet
from .errors import ParameterError, ShapeError
from .numerics import hyperplane_factors, knn, pinv_apply, pinv_solve, sigmoid

__all__ = [
    "METHODS",
    "HiddenLayer",
    "RandFnnModel",
    "HyperParams",
    "derive_rng",
    "derive_seed",
    "gen_standard",
    "gen_ram",
    "gen_ralpham",
    "gen_ddm",
    "make_layer",
    "hidden_output",
    "fit",
    "predict",
    "trial_predictions",
]

METHODS = ("standard", "ram", "ralpham", "ddm")

# alpha_max = 90 deg is a legal grid label but tan(90) is singular; layers
# are generated with this effective ceiling instead.
MAX_ALPHA_DEG = 89.9

_SMOOTHING_NAMES = {"standard": "u", "ram": "u", "ralpham": "alpha_max", "ddm": "k"}


def derive_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator from a tuple of non-negative integer keys."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


def derive_seed(*keys: int) -> int:
    """Collapse integer keys into one deterministic 32-bit seed."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass(frozen=True)
class HiddenLayer:
    """m hidden-node weight vectors and biases, plus generation provenance.

    `anchor_indices` records which training pattern each node's bias was
    anchored to (methods other than ``standard``), `angles` the unsigned
    slope angles for ``ralpham``, and `output_components` the target
    component each ``ddm`` node's hyperplane was fitted to.
    """

    method: str
    weights: np.ndarray  # (m, n)
    biases: np.ndarray  # (m,)
    anchor_indices: np.ndarray | None = None
    angles: np.ndarray | None = None
    output_components: np.ndarray | None = None

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
        if self.method in ("standard", "ram") and not s > 0:
            raise ParameterError(f"u must be positive, got {s}")
        if self.method == "ralpham" and not 0 < s <= 90:
            raise ParameterError(f"alpha_max must be in (0, 90] degrees, got {s}")
        if self.method == "ddm" and (s < 1 or s != int(s)):
            raise ParameterError(f"k must be a positive integer, got {s}")

    @property
    def smoothing_name(self) -> str:
        return _SMOOTHING_NAMES[self.method]


def _anchored_biases(weights: np.ndarray, anchors: np.ndarray, x_patterns: np.ndarray) -> np.ndarray:
    # b_j = -a_j . x*_j puts each sigmoid's inflection point on its anchor
    return -np.einsum("ij,ij->i", weights, x_patterns[anchors])


def gen_standard(m: int, n: int, u: float, rng: np.random.Generator) -> HiddenLayer:
    """Weights and biases i.i.d. uniform on [-u, u] for n-dimensional inputs."""
    if u <= 0:
        raise ParameterError(f"u must be positive, got {u}")
    weights = rng.uniform(-u, u, size=(m, n))
    biases = rng.uniform(-u, u, size=m)
    return HiddenLayer("standard", weights, biases)


def gen_ram(m: int, u: float, x_patterns, rng: np.random.Generator) -> HiddenLayer:
    """Uniform weights on [-u, u]; biases anchored on random training patterns."""
    if u <= 0:
        raise ParameterError(f"u must be positive, got {u}")
    X = np.asarray(x_patterns, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ParameterError("x_patterns must be a nonempty 2-D array")
    weights = rng.uniform(-u, u, size=(m, X.shape[1]))
    anchors = rng.integers(0, X.shape[0], size=m)
    return HiddenLayer("ram", weights, _anchored_biases(weights, anchors, X),
                       anchor_indices=anchors)


def gen_ralpham(m: int, alpha_max: float, x_patterns, rng: np.random.Generator) -> HiddenLayer:
    """Slope angles uniform on (0, alpha_max) degrees; a = +/- 4 tan(alpha).

    Raw angle-derived weights are non-negative, which would only allow
    sigmoids increasing along every axis; an independent random sign per
    weight removes that bias. Biases are anchored as in `gen_ram`.
    """
    if not 0 < alpha_max < 90:
        raise ParameterError(f"alpha_max must be in (0, 90) degrees, got {alpha_max}")
    X = np.asarray(x_patterns, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ParameterError("x_patterns must be a nonempty 2-D array")
    angles = rng.uniform(0.0, alpha_max, size=(m, X.shape[1]))
    signs = rng.integers(0, 2, size=(m, X.shape[1])) * 2 - 1
    anchors = rng.integers(0, X.shape[0], size=m)
    weights = signs * 4.0 * np.tan(np.radians(angles))
    return HiddenLayer("ralpham", weights, _anchored_biases(weights, anchors, X),
                       anchor_indices=anchors, angles=angles)


class _HyperplaneFits:
    """ddm's per-anchor work on one training set for one k, filled on use:
    each anchor's neighborhood with the SVD factors of its [X | 1]
    design, and each (anchor, component) hyperplane's slopes."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, k: int):
        self.X, self.Y, self.k = X, Y, k  # the arrays, not the set: no cycle
        self.hoods: dict = {}  # anchor -> (neighborhood, pinv_factor of its design)
        self.slopes: dict = {}  # (anchor, component) -> slope vector

    def slope(self, anchor: int, component: int) -> np.ndarray:
        key = (anchor, component)
        if key not in self.slopes:
            if anchor not in self.hoods:
                hood = np.concatenate(([anchor], knn(self.X, self.X[anchor], self.k)))
                self.hoods[anchor] = hood, hyperplane_factors(self.X[hood])
            hood, factors = self.hoods[anchor]
            self.slopes[key] = pinv_apply(factors, self.Y[hood, component][:, None])[:-1, 0]
        return self.slopes[key]


def gen_ddm(m: int, k: int, phi: TrainingSet, rng: np.random.Generator) -> HiddenLayer:
    """Weights from local hyperplane slopes, scaled by 4; anchored biases.

    For each node a random training pattern is chosen; a hyperplane is
    fitted to one randomly chosen target component over that pattern and
    its k nearest neighbors, and the node's weights are 4x its slopes.
    The fitted component index is recorded per node.

    Neighborhoods, design factors and slopes are cached on `phi` for the
    last k used, so repeated layers on one set (trials, node counts) reuse
    them; the layer is bitwise the one the uncached fits would give.
    """
    N = len(phi)
    if N < 2:
        raise ParameterError(f"need at least 2 training pairs, got {N}")
    if not 1 <= k <= N - 1:
        raise ParameterError(f"k={k} not in [1, {N - 1}]")
    X, Y = phi.x, phi.y
    anchors = rng.integers(0, N, size=m)
    components = rng.integers(0, Y.shape[1], size=m)
    fits = phi.memo.get("ddm")
    if fits is None or fits.k != k:
        fits = phi.memo["ddm"] = _HyperplaneFits(X, Y, k)
    weights = np.empty((m, X.shape[1]))
    for j in range(m):
        weights[j] = 4.0 * fits.slope(int(anchors[j]), int(components[j]))
    return HiddenLayer("ddm", weights, _anchored_biases(weights, anchors, X),
                       anchor_indices=anchors, output_components=components)


def make_layer(hp: HyperParams, phi: TrainingSet,
               rng: np.random.Generator | None = None) -> HiddenLayer:
    """Generate a hidden layer per `hp`, drawing data from `phi` as needed.

    The 90-degree grid label for ``ralpham`` is generated at an effective
    89.9 degrees (tangent singularity); reports keep the original label.
    """
    if rng is None:
        rng = derive_rng(hp.seed)
    if hp.method == "standard":
        return gen_standard(hp.m, phi.n, hp.smoothing, rng)
    if hp.method == "ram":
        return gen_ram(hp.m, hp.smoothing, phi.x, rng)
    if hp.method == "ralpham":
        return gen_ralpham(hp.m, min(hp.smoothing, MAX_ALPHA_DEG), phi.x, rng)
    return gen_ddm(hp.m, int(hp.smoothing), phi, rng)


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
    of hidden_output(layer, X) @ beta = Y; the reference of `trial_predictions`."""
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


def trial_predictions(hp: HyperParams, phi: TrainingSet, queries: np.ndarray,
                      rngs) -> np.ndarray:
    """Predictions (trials, queries, p) of one network per generator in
    `rngs`, each trained on `phi` under `hp`: bitwise `predict(fit(
    make_layer(hp, phi, rng), phi), queries)` per rng, since each stacked
    product runs, per trial and query, the BLAS call of `fit` or `predict`.
    `phi` and the layers were checked when built, so nothing is checked here.
    """
    layers = [make_layer(hp, phi, rng) for rng in rngs]
    Wt = np.stack([layer.weights for layer in layers]).transpose(0, 2, 1)  # (T, n, m)
    b = np.stack([layer.biases for layer in layers])[:, None, :]  # (T, 1, m)
    Z = phi.x @ Wt
    Z += b
    U, s, Vt = np.linalg.svd(sigmoid(Z), full_matrices=False)
    keep = s > max(len(phi), hp.m) * np.finfo(float).eps * s[:, :1]  # pinv_factor's cutoff
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    beta = Vt.transpose(0, 2, 1) @ (s_inv[:, :, None] * (U.transpose(0, 2, 1) @ phi.y))
    H = sigmoid(np.matmul(queries[None, :, None, :], Wt[:, None])[:, :, 0, :] + b)
    return np.matmul(H[:, :, None, :], beta[:, None])[:, :, 0, :]
