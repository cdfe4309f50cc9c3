"""One-network, one-day and one-query references for the stacked kernels.

The program draws, trains and applies a stack of networks at once
(`randnn.make_layer`, `hidden_output`, `fit` and `predict`), encodes all
of a series' days at once (`encoding.encode_x`) and finds the neighbors
of a stack of queries at once (`numerics.knn`). The functions here do
each for one network, one day or one query, in plain 2-D code. The tests
check that the stacked kernels give their results bit for bit.
"""

from typing import NamedTuple

import numpy as np

from randfnn.encoding import CodingVars
from randfnn.errors import ParameterError
from randfnn.numerics import pinv_solve, sigmoid
from randfnn.randnn import _DRAWS


class Layer(NamedTuple):
    """One hidden layer: weights (m, n), biases (m,) and the training
    pattern each node's bias is anchored to (None for ``standard``)."""

    weights: np.ndarray
    biases: np.ndarray
    anchor_indices: np.ndarray | None

    @property
    def m(self) -> int:
        return len(self.biases)


def make_layer(hp, phi, rng) -> Layer:
    """The layer of `hp` (a `randnn.HyperParams`), drawn from `rng` alone."""
    weights, biases, anchors = _DRAWS[hp.method](hp.m, np.array([hp.smoothing]), phi, [rng])
    return Layer(weights[0, 0], biases[0, 0], None if anchors is None else anchors[0])


def hidden_output(layer: Layer, X) -> np.ndarray:
    """H = sigmoid(X Wᵀ + b): one matrix product over all rows of X."""
    return sigmoid(X @ layer.weights.T + layer.biases)


def fit(layer: Layer, phi) -> np.ndarray:
    """Output weights (m, p): the `pinv_solve` of H beta = Y on `phi`."""
    return pinv_solve(hidden_output(layer, phi.x), phi.y)


def predict(layer: Layer, queries, beta) -> np.ndarray:
    """Predictions (Q, p) for the queries (Q, n): both products one BLAS
    call per query row."""
    H = sigmoid(np.array([x @ layer.weights.T for x in queries]) + layer.biases)
    return np.array([h @ beta for h in H])


class ConstantDay(Exception):
    """A (numerically) constant day, which has no pattern."""


def encode_x(values) -> tuple[np.ndarray, CodingVars]:
    """One day's zero-mean, unit-norm pattern and its coding variables."""
    e = np.asarray(values, dtype=float)
    mean = float(e.mean())
    dispersion = float(np.sqrt(((e - mean) ** 2).sum()))
    if dispersion <= 1e-12 * e.size * max(1.0, abs(mean)):
        raise ConstantDay(f"sequence is constant (dispersion {dispersion:g})")
    return (e - mean) / dispersion, CodingVars(mean, dispersion)


def encode_y(values, coding: CodingVars) -> np.ndarray:
    """A target day coded with the *input* day's coding variables."""
    return (np.asarray(values, dtype=float) - coding.mean) / coding.dispersion


def knn(points, query, k: int) -> np.ndarray:
    """Indices of the `k` nearest points to one query: its first exact
    match among `points` left out, distance ties to the lower index."""
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    d = np.linalg.norm(pts - q, axis=1)
    candidates = np.arange(len(pts))
    self_rows = np.flatnonzero((pts == q).all(axis=1))
    if self_rows.size:
        candidates = np.delete(candidates, self_rows[0])
        d = np.delete(d, self_rows[0])
    if not 1 <= k <= candidates.size:
        raise ParameterError(f"k={k} not in [1, {candidates.size}]")
    return candidates[np.argsort(d, kind="stable")[:k]]
