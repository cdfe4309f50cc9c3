"""Shared numerical kernels: sigmoid, pseudoinverse least squares, kNN,
local hyperplane fitting.

All kernels operate on plain float64 numpy arrays and check their
arguments on every call: 2-D, no NaN/Inf (`as_matrix`). `pinv_factor`
and `pinv_apply` also take a stack (..., N, m) of matrices, one solve
per matrix. `randnn.trial_predictions` solves its stack of hidden
outputs through them, so that stack is checked too and the rank cutoff
lives here alone.
"""

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["as_matrix", "sigmoid", "pinv_factor", "pinv_apply", "pinv_solve",
           "knn", "fit_hyperplane", "hyperplane_factors"]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce `a` to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ParameterError(f"{name} contains non-finite entries")
    return m


def sigmoid(z):
    """Logistic sigmoid 1/(1+exp(-z)), elementwise.

    Accepts scalars or arrays; saturates gracefully for large |z|. Works
    in one new array: on a (trials, N, m) stack, temporaries cost more than
    the arithmetic.
    """
    h = np.empty(np.shape(z))
    np.clip(z, -500.0, 500.0, out=h)  # prevent exp overflow
    np.add(np.exp(np.negative(h, out=h), out=h), 1.0, out=h)
    return np.divide(1.0, h, out=h)[()]


def pinv_factor(H) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor step of `pinv_solve`: (u, s_inv, vt) with pinv(H) =
    vt.T @ diag(s_inv) @ u.T, from the SVD of H, an (N, m) matrix or a
    stack (..., N, m) of them. The rank cutoff: reciprocals of singular
    values up to ``max(N, m) * eps * s_max``, with s_max each matrix's
    own largest, are set to zero (all of them for a zero matrix)."""
    H = np.asarray(H, dtype=float)
    if H.ndim < 2:
        raise ShapeError(f"H must be 2-D or a stack of 2-D, got ndim={H.ndim}")
    if not np.isfinite(H).all():
        raise ParameterError("H contains non-finite entries")
    u, s, vt = np.linalg.svd(H, full_matrices=False)
    keep = s > max(H.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return u, np.divide(1.0, s, out=np.zeros_like(s), where=keep), vt


def pinv_apply(factors, Y) -> np.ndarray:
    """Apply step of `pinv_solve`: B = pinv(H) @ Y from H's factors, one
    B per matrix of a stack."""
    Y = as_matrix(Y, "Y")
    u, s_inv, vt = factors
    if u.shape[-2] != Y.shape[0]:
        raise ShapeError(f"row counts differ: H {u.shape[-2]} vs Y {Y.shape[0]}")
    return vt.swapaxes(-1, -2) @ (s_inv[..., None] * (u.swapaxes(-1, -2) @ Y))


def pinv_solve(H, Y) -> np.ndarray:
    """Minimum-norm least-squares solution B of H @ B ~= Y.

    Computed from the SVD of H: singular values under `pinv_factor`'s
    rank cutoff are treated as zero, which makes B the
    minimum-Frobenius-norm minimizer of ||H B - Y||_F. Runs `pinv_factor`
    then `pinv_apply`; callers that reuse one H call the two steps
    themselves.
    """
    return pinv_apply(pinv_factor(H), Y)


def knn(points, query, k: int) -> np.ndarray:
    """Indices of the `k` nearest points to `query` (Euclidean).

    If `query` itself is one of `points` (exact componentwise match), that
    single occurrence is excluded. Distance ties are broken by lower
    index, so the result is deterministic.
    """
    pts = as_matrix(points, "points")
    q = np.asarray(query, dtype=float).ravel()
    if q.shape[0] != pts.shape[1]:
        raise ShapeError(f"query length {q.shape[0]} != point dim {pts.shape[1]}")
    d = np.linalg.norm(pts - q, axis=1)
    candidates = np.arange(pts.shape[0])
    self_rows = np.flatnonzero((pts == q).all(axis=1))
    if self_rows.size:
        candidates = np.delete(candidates, self_rows[0])
        d = np.delete(d, self_rows[0])
    if not 1 <= k <= candidates.size:
        raise ParameterError(f"k={k} not in [1, {candidates.size}]")
    order = np.argsort(d, kind="stable")  # stable sort → ties go to lower index
    return candidates[order[:k]]


def fit_hyperplane(inputs, targets) -> tuple[np.ndarray, float]:
    """Ordinary least-squares fit of ``targets ~ coeffs . x + intercept``.

    Solved as `pinv_solve` solves it, on the design matrix [X | 1]; with
    fewer points than dimensions the minimum-norm solution is returned.
    """
    X = as_matrix(inputs, "inputs")
    t = np.asarray(targets, dtype=float).ravel()
    if X.shape[0] == 0:
        raise ParameterError("fit_hyperplane needs at least 2 points, got 0")
    if X.shape[0] != t.shape[0]:
        raise ShapeError(f"{X.shape[0]} inputs vs {t.shape[0]} targets")
    if X.shape[0] < 2:
        raise ParameterError("fit_hyperplane needs at least 2 points")
    sol = pinv_apply(hyperplane_factors(X), t[:, None])[:, 0]
    return sol[:-1], float(sol[-1])


def hyperplane_factors(inputs):
    """`pinv_factor` of the design matrix [X | 1] that `fit_hyperplane` solves."""
    X = as_matrix(inputs, "inputs")
    return pinv_factor(np.hstack([X, np.ones((X.shape[0], 1))]))
