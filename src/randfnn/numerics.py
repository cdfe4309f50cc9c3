"""Shared numerical kernels: sigmoid, pseudoinverse least squares, kNN,
local hyperplane fitting.

All kernels operate on plain float64 numpy arrays and check their
arguments on every call: no NaN/Inf, and 2-D (`as_matrix`) except where
a kernel takes a stack. `pinv_factor` takes a stack (..., N, m) of
matrices, one solve per matrix, and `pinv_apply` a stack of right-hand
sides (..., N, p) that broadcasts against it; `randnn.trial_predictions`
solves its stack of hidden outputs through them, so the rank cutoff
lives here alone. `knn` takes a stack (Q, n) of queries, and
`hyperplane_factors` a stack of point sets. `neighborhood_slopes` runs
the three stacked for ddm, every point's local hyperplane fits at once;
the one-query `knn` and `fit_hyperplane` are its bitwise reference.
"""

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["as_matrix", "sigmoid", "pinv_factor", "pinv_apply", "pinv_solve",
           "knn", "fit_hyperplane", "hyperplane_factors", "neighborhood_slopes"]

# queries per block of `knn`'s (queries, points, n) difference array
_KNN_BLOCK = 32


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce `a` to a 2-D float64 array, or with `stack` also a stack
    (..., N, m) of them, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim > 2):
        shape = "2-D or a stack of 2-D" if stack else "2-D"
        raise ShapeError(f"{name} must be {shape}, got ndim={m.ndim}")
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
    H = as_matrix(H, "H", stack=True)
    u, s, vt = np.linalg.svd(H, full_matrices=False)
    keep = s > max(H.shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return u, np.divide(1.0, s, out=np.zeros_like(s), where=keep), vt


def pinv_apply(factors, Y) -> np.ndarray:
    """Apply step of `pinv_solve`: B = pinv(H) @ Y from H's factors, one
    B per matrix of a stack. `Y` is (N, p), shared by every matrix, or a
    stack (..., N, p) that broadcasts against the factors' stack; each
    (N, p) product is the one a lone H and Y get, so a stack of
    single-column Y solves each column as `pinv_solve` solves it alone."""
    Y = as_matrix(Y, "Y", stack=True)
    u, s_inv, vt = factors
    if u.shape[-2] != Y.shape[-2]:
        raise ShapeError(f"row counts differ: H {u.shape[-2]} vs Y {Y.shape[-2]}")
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
    index, so the result is deterministic. A stack of queries (Q, n)
    gives (Q, k): each row is the single query's result, bitwise.
    """
    pts = as_matrix(points, "points")
    q = np.asarray(query, dtype=float)
    if q.ndim == 2:
        return _knn_rows(pts, q, k)
    q = q.ravel()
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


def _knn_rows(pts: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    # The single-query rule per row: the same norm reduction and stable sort
    # over all points, then each row's first exact match dropped from its
    # order (dropping it before a stable sort leaves the others' order).
    N, n = pts.shape
    if queries.shape[1] != n:
        raise ShapeError(f"query length {queries.shape[1]} != point dim {n}")
    d = np.empty((len(queries), N))
    self_row = np.full(len(queries), N)  # N: no exact match
    for lo in range(0, len(queries), _KNN_BLOCK):
        block = queries[lo:lo + _KNN_BLOCK, None, :]
        d[lo:lo + _KNN_BLOCK] = np.linalg.norm(pts - block, axis=2)
        equal = (pts == block).all(axis=2)
        self_row[lo:lo + _KNN_BLOCK] = np.where(equal.any(axis=1), equal.argmax(axis=1), N)
    fewest = N - int((self_row < N).any())
    if not 1 <= k <= fewest:
        raise ParameterError(f"k={k} not in [1, {fewest}]")
    order = np.argsort(d, axis=1, kind="stable")[:, :k + 1]
    keep = order != self_row[:, None]
    keep &= np.cumsum(keep, axis=1) <= k
    return order[keep].reshape(len(queries), k)


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
    """`pinv_factor` of the design matrix [X | 1] that `fit_hyperplane`
    solves, for one point set (N, n) or a stack (..., N, n) of them."""
    X = as_matrix(inputs, "inputs", stack=True)
    return pinv_factor(np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1))


def neighborhood_slopes(points, targets, k: int) -> np.ndarray:
    """Slopes (N, p, n) of every point's local hyperplanes: entry [i, c]
    is bitwise `fit_hyperplane`'s coefficients for target column c over
    point i and its `knn(points, points[i], k)` neighbors.

    Built in three whole-array passes: one stacked `knn`, one stacked
    `hyperplane_factors` of the (N, k+1, n) neighborhoods, and one
    stacked `pinv_apply` in which every (point, column) right-hand side
    is still its own single-column product.
    """
    X = as_matrix(points, "points")
    Y = as_matrix(targets, "targets")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} points vs {Y.shape[0]} targets")
    hoods = np.concatenate((np.arange(X.shape[0])[:, None], knn(X, X, k)), axis=1)
    u, s_inv, vt = hyperplane_factors(X[hoods])
    columns = np.ascontiguousarray(Y[hoods].transpose(0, 2, 1))[..., None]  # (N, p, k+1, 1)
    return pinv_apply((u[:, None], s_inv[:, None], vt[:, None]), columns)[..., :-1, 0]
