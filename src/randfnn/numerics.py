"""Shared numerical kernels: sigmoid, pseudoinverse least squares, kNN,
local hyperplane fitting.

All kernels operate on plain float64 numpy arrays and check their
arguments on every call: no NaN/Inf, and 2-D (`as_matrix`) except where
a kernel takes a stack. `pinv_solve` solves a stack (..., N, m), by QR
where a guard proves a matrix's rank full, by SVD otherwise; the rank
cutoff lives there alone, and `randnn` and the hyperplane fits all solve
through it. `knn` takes a stack (Q, n) of queries. `neighborhood_slopes`
runs `knn` and `fit_hyperplane` stacked for ddm, every point's local fits
at once; their one-query and one-set calls are its bitwise reference.
"""

import numpy as np

from .errors import ParameterError, ShapeError

__all__ = ["as_matrix", "sigmoid", "pinv_solve", "knn", "fit_hyperplane",
           "neighborhood_slopes"]

# queries per block of `knn`'s (queries, points, n) difference array
_KNN_BLOCK = 32
# matrices per block of `pinv_solve`'s QR, which copies its block twice
_SOLVE_BLOCK = 32


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


def pinv_solve(H, Y) -> np.ndarray:
    """Minimum-norm least-squares solution B of H @ B ~= Y, one B per
    matrix of a stack: `H` is (N, m) or (..., N, m), and `Y` is (N, p),
    shared by every matrix, or (..., N, p) with H's leading shape.

    Singular values up to the rank cutoff ``max(N, m) * eps * s_max``,
    with s_max each matrix's own largest, count as zero, which makes B the
    minimum-Frobenius-norm minimizer of ||H B - Y||_F. With N >= m,
    batched QR factors the stack, H = QR, and a matrix takes
    B = R^-1 (Q'Y) if a guard proves all its singular values above the
    cutoff: max|r_ii| / min|r_ii|, a lower bound of cond(R), must stay under
    1 / (max(N, m) * eps), and then so must the upper bound
    ||R||_F ||R^-1||_F. Every other matrix, and every one with N < m, is
    solved from its SVD with the cutoff applied. The two answers agree to
    rounding, and a matrix gets the bits it gets alone, whatever the stack.
    """
    H = as_matrix(H, "H", stack=True)
    Y = as_matrix(Y, "Y", stack=True)
    N, m = H.shape[-2:]
    if Y.shape[-2] != N or Y.ndim > 2 and Y.shape[:-2] != H.shape[:-2]:
        raise ShapeError(f"Y {Y.shape} does not fit H {H.shape}")
    shape = H.shape[:-2] + (m, Y.shape[-1])
    H = H.reshape(-1, N, m)
    Y = Y if Y.ndim == 2 else Y.reshape(-1, N, Y.shape[-1])
    tol = max(N, m) * np.finfo(float).eps
    B = np.empty((len(H), m, Y.shape[-1]))
    full = np.zeros(len(H), dtype=bool)
    for lo in range(0, len(H) if N >= m > 0 else 0, _SOLVE_BLOCK):
        part = slice(lo, lo + _SOLVE_BLOCK)
        q, r = np.linalg.qr(H[part])
        d = np.abs(np.diagonal(r, axis1=1, axis2=2))
        ok = tol * d.max(axis=1) < d.min(axis=1)  # else R may be singular: inv gets I
        r_inv = np.linalg.inv(np.where(ok[:, None, None], r, np.eye(m)))
        ok &= tol * np.linalg.norm(r, axis=(1, 2)) * np.linalg.norm(r_inv, axis=(1, 2)) < 1.0
        full[part] = ok
        B[part] = r_inv @ (q.swapaxes(1, 2) @ (Y if Y.ndim == 2 else Y[part]))
    if not full.all():
        u, s, vt = np.linalg.svd(H[~full], full_matrices=False)
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tol * s[:, :1])
        uty = u.swapaxes(1, 2) @ (Y if Y.ndim == 2 else Y[~full])
        B[~full] = vt.swapaxes(1, 2) @ (s_inv[..., None] * uty)
    return B.reshape(shape)


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


def fit_hyperplane(inputs, targets) -> tuple[np.ndarray, np.ndarray | float]:
    """Least-squares fit of ``targets ~ coeffs . x + intercept``: the
    `pinv_solve` of the design [X | 1], minimum-norm with fewer points than
    dimensions. Points (K, n) with targets (K,) give coefficients (n,) and
    a float; a block (K, p) gives (p, n) and (p,), every column in one
    product. A stack (..., K, n) of point sets gives a stack of fits.

    If every row of X sums to zero (|sum x| <= n * eps * sum |x|), as
    encoded patterns do, [X | 1] has the null vector (1, ..., 1, 0). The
    fit then solves [X Q | 1], Q an orthonormal basis of the zero-sum
    vectors, and maps back with Q w: the same minimum-norm solution, to
    rounding, from a design of full rank.
    """
    X = as_matrix(inputs, "inputs", stack=True)
    Y = np.asarray(targets, dtype=float)
    block = Y.ndim == X.ndim
    Y = Y if block else Y[..., None]
    if Y.shape[:-1] != X.shape[:-1]:
        raise ShapeError(f"inputs {X.shape} vs targets {np.shape(targets)}")
    if X.shape[-2] < 2:
        raise ParameterError(f"fit_hyperplane needs at least 2 points, got {X.shape[-2]}")
    n = X.shape[-1]
    centred = np.all(np.abs(X.sum(axis=-1)) <= n * np.finfo(float).eps * np.abs(X).sum(axis=-1))
    design = np.ones(X.shape[:-1] + (n if centred else n + 1,))  # [X Q | 1] or [X | 1]
    if centred:
        basis = np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:]
        np.matmul(X, basis, out=design[..., :-1])
    else:
        design[..., :-1] = X
    sol = pinv_solve(design, Y)
    coeffs = (basis @ sol[..., :-1, :] if centred else sol[..., :-1, :]).swapaxes(-1, -2)
    return (coeffs, sol[..., -1, :]) if block else (coeffs[..., 0, :], sol[..., -1, 0][()])


def neighborhood_slopes(points, targets, k: int) -> np.ndarray:
    """Slopes (N, p, n) of every point's local hyperplanes: entry [i] is
    bitwise `fit_hyperplane(points[hood], targets[hood])[0]` over point i
    and its `knn(points, points[i], k)` neighbors, whenever that
    neighborhood meets `fit_hyperplane`'s zero-sum condition exactly when
    all of `points` do (always, for encoded patterns).

    Built in two whole-array passes: one stacked `knn`, and one stacked
    `fit_hyperplane` of the (N, k+1) neighborhoods and their target blocks.
    """
    X = as_matrix(points, "points")
    Y = as_matrix(targets, "targets")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"{X.shape[0]} points vs {Y.shape[0]} targets")
    hoods = np.concatenate((np.arange(X.shape[0])[:, None], knn(X, X, k)), axis=1)
    return fit_hyperplane(X[hoods], Y[hoods])[0]
