"""Independent numpy references for the benchmark's output checks.

Nothing here calls knnrates.  Distances are full scans; means use a matrix
product, so they sum in another order than the package does.  Callers
therefore compare means within a tolerance, never bit for bit, and a later
move to a correctly rounded mean still passes.
"""

import numpy as np

# Elements per distance block: 2^22 float64 values is 32 MiB.
_BLOCK = 1 << 22


def _rows_per_block(n: int, dim: int) -> int:
    return max(1, _BLOCK // max(1, n * dim))


def _as_2d(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a.reshape(len(a), -1)


def knn_mean_radius(X, y, Q, k: int):
    """Tie-inclusive k-NN mean, radius and member count at each query row.

    The neighbor set is every sample within the k-th smallest distance,
    so it may hold more than k points; the mean divides by its size.
    """
    X, Q = _as_2d(X), _as_2d(Q)
    y = np.asarray(y, dtype=np.float64)
    means = np.empty(len(Q))
    radii = np.empty(len(Q))
    counts = np.empty(len(Q), dtype=np.int64)
    step = _rows_per_block(len(X), X.shape[1])
    for lo in range(0, len(Q), step):
        diff = Q[lo:lo + step, None, :] - X[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        mask = d2 <= kth[:, None]
        cnt = mask.sum(axis=1)
        means[lo:lo + step] = (mask.astype(np.float64) @ y) / cnt
        radii[lo:lo + step] = np.sqrt(kth)
        counts[lo:lo + step] = cnt
    return means, radii, counts


def directed_hausdorff(A, B) -> float:
    A, B = _as_2d(A), _as_2d(B)
    best = 0.0
    step = _rows_per_block(len(B), B.shape[1])
    for lo in range(0, len(A), step):
        diff = A[lo:lo + step, None, :] - B[None, :, :]
        best = max(best, float((diff * diff).sum(axis=2).min(axis=1).max()))
    return float(np.sqrt(best))


def hausdorff(A, B) -> float:
    return max(directed_hausdorff(A, B), directed_hausdorff(B, A))


def close(a, b, scale: float, rtol: float = 1e-12) -> bool:
    """|a - b| <= rtol * scale elementwise, NaN-free."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))
