"""Exact Euclidean k-nearest-neighbor search with tie-inclusive semantics.

The k-NN radius of a query x is the smallest radius whose closed ball
captures at least k sample points; the neighbor set is *every* point within
that radius, so ties at the boundary may push its size above k.

Two query paths are provided: a kd-tree backed index for speed and a
brute-force full scan as the correctness oracle.  Both decide membership
with the same squared-distance routine and exact float comparisons (no
epsilon), so their answers agree bit for bit.  The tree is used only to
produce candidate supersets; the final radius and member set always come
from the shared arithmetic.

Batch queries (`knn_radii`, and `predict_batch` in the regression module)
run one chunked kernel.  In D >= 2 it takes a k+1 tree query per chunk.
In D = 1 a tie-free neighbor set is a contiguous window of the points
sorted by coordinate, so the kernel binary-searches each row's window
start instead and accepts the window only when both points just outside
it are strictly farther than its farther end; that test is exact.  In
either dimension, rows the fast step cannot settle take the single-query
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.spatial import cKDTree

# Candidate windows from the kd-tree are widened by this relative slack
# before exact refinement.  The tree's internal distance sums and ours can
# disagree by at most ~D*eps ~ 2e-15 in relative terms, so 1e-9 is a safe
# superset margin while adding essentially no spurious candidates.
_REL_SLACK = 1e-9

# Rows whose k-th distance is shared (or nearly shared) by more than this
# many candidates fall back to the exact single-query path.
_TAIL_CAP = 8

# Tree-query entries (rows x (k+1)) per batch chunk.  A chunk peaks near
# 32 bytes per entry (tree distances and indices plus the reductions'
# temporaries), so a batch call stays near 32 MiB whatever k is.
_CHUNK_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class PointSet:
    """Immutable, index-addressable collection of n points in R^D."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError(f"points must be a (n, D) array, got ndim={pts.ndim}")
        if pts.shape[0] < 1:
            raise ValueError("point set must contain at least one point")
        if pts.shape[1] < 1:
            raise ValueError("points must have at least one coordinate")
        if not np.isfinite(pts).all():
            raise ValueError("point set contains non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class NeighborSet:
    """All points within the k-NN radius of a query (ties included)."""

    radius: float
    member_indices: np.ndarray  # sorted ascending
    count: int


@dataclass(frozen=True)
class SpatialIndex:
    """Immutable query structure over a PointSet; safe for concurrent reads.

    In D = 1 it also holds the stable argsort of the coordinate, which the
    batch kernel searches for neighbor windows.
    """

    source: PointSet
    _tree: cKDTree = field(repr=False)
    _order: Optional[np.ndarray] = field(default=None, repr=False)


def as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def _sq_dists(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from q to each row of pts.

    Every membership/tie decision in this package routes through this one
    function so that the index, the oracle, and the batch paths share
    identical floating-point arithmetic.
    """
    diff = pts - q
    return (diff * diff).sum(axis=1)


def _check_query(q, dim: int) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if q.shape[0] != dim:
        raise ValueError(f"query has dimension {q.shape[0]}, index has {dim}")
    if not np.isfinite(q).all():
        raise ValueError("query contains non-finite coordinates")
    return q


def _check_k(k: int, n: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    return k


def build_index(points) -> SpatialIndex:
    """Build the kd-tree index.  Deterministic given the input order."""
    ps = as_point_set(points)
    order = None
    if ps.dim == 1:
        order = np.argsort(ps.points[:, 0], kind="stable")
        order.setflags(write=False)
    return SpatialIndex(source=ps, _tree=cKDTree(ps.points), _order=order)


def brute_force_knn(points, query, k: int) -> NeighborSet:
    """Full-scan oracle: the reference answer for knn_query."""
    ps = as_point_set(points)
    q = _check_query(query, ps.dim)
    k = _check_k(k, ps.n)
    d2 = _sq_dists(ps.points, q)
    r2 = np.partition(d2, k - 1)[k - 1]
    members = np.flatnonzero(d2 <= r2)
    return NeighborSet(radius=float(np.sqrt(r2)), member_indices=members,
                       count=int(members.size))


def knn_query(index: SpatialIndex, query, k: int) -> NeighborSet:
    """Tie-inclusive k-NN query, exactly equivalent to brute_force_knn."""
    ps = index.source
    q = _check_query(query, ps.dim)
    k = _check_k(k, ps.n)
    dists = np.atleast_1d(index._tree.query(q, k=k)[0])
    r_safe = float(dists[-1]) * (1.0 + _REL_SLACK)
    cand = np.asarray(index._tree.query_ball_point(q, r_safe), dtype=np.intp)
    # The ball holds at least the tree's own k nearest.
    assert cand.size >= k
    d2 = _sq_dists(ps.points[cand], q)
    r2 = np.partition(d2, k - 1)[k - 1]
    members = np.sort(cand[d2 <= r2])
    return NeighborSet(radius=float(np.sqrt(r2)), member_indices=members,
                       count=int(members.size))


def range_query(index: SpatialIndex, query, r: float) -> np.ndarray:
    """Indices of all points at distance <= r, sorted ascending.

    Membership compares the correctly-rounded distance sqrt(d2) against r,
    which is monotone in the shared squared-distance arithmetic; in
    particular a range query at the k-NN radius always covers the k-NN
    member set.
    """
    ps = index.source
    q = _check_query(query, ps.dim)
    r = float(r)
    if not np.isfinite(r):
        raise ValueError("range radius must be finite")
    if r < 0.0:
        raise ValueError("range radius must be nonnegative")
    r_safe = r * (1.0 + _REL_SLACK)
    cand = np.asarray(index._tree.query_ball_point(q, r_safe), dtype=np.intp)
    if cand.size == 0:
        return cand
    dist = np.sqrt(_sq_dists(ps.points[cand], q))
    return np.sort(cand[dist <= r])


def _windows(xs: np.ndarray, q: np.ndarray, k: int):
    """Neighbor windows of 1-D queries over sorted coordinates `xs`.

    A binary search finds, for each query, the start a of the window
    xs[a:a+k] that a tie-free k-NN set must occupy.  Its squared radius r2
    is the larger squared distance of the window's two ends, built with
    diff * diff as in _sq_dists.  The row is `fast` only when both points
    just outside the window, a-1 and a+k, are strictly farther than r2:
    then the window is exactly the tie-inclusive neighbor set.  Returns
    (a, r2, fast).
    """
    n = xs.shape[0]
    last = n - k

    def sq(j):
        diff = xs[j] - q
        return diff * diff

    # The window moves right past a while xs[a+k] lies left of the query or
    # is strictly nearer than xs[a].  That test is monotone in a, so the
    # search reaches the tie-free window whenever one exists.
    a = np.zeros(q.shape[0], dtype=np.intp)
    step = 1 << (last.bit_length() - 1) if last else 0
    while step:
        c = a + step
        j = np.minimum(c, last) - 1
        right = (xs[j + k] < q) | (sq(j) > sq(j + k))
        a = np.where((c <= last) & right, c, a)
        step >>= 1
    r2 = np.maximum(sq(a), sq(a + k - 1))
    fast = ((a == 0) | (sq(np.maximum(a - 1, 0)) > r2)) & \
        ((a == last) | (sq(np.minimum(a + k, n - 1)) > r2))
    return a, r2, fast


def _batch(index: SpatialIndex, queries, k: int, tree_rows, window_rows,
           exact_row) -> np.ndarray:
    """The chunked loop under knn_radii and predict_batch.

    In D >= 2 each chunk takes one k+1 tree query.  `tree_rows(qc, d, idx,
    gap)` reduces the rows with a clear distance gap after the k-th
    neighbor: it returns the mask of rows it resolved (a subset of `gap`)
    and their values.  In D = 1 each chunk takes the window search of
    _windows instead, and `window_rows(r2, members)` reduces its fast rows
    from their squared radii and `members()`, the (rows, k) array of their
    member indices, built only when called.  Every other row falls back to
    the exact knn_query path and is reduced by `exact_row(neighbor_set)`,
    so the result matches a scalar loop bit for bit.  A chunk holds
    _CHUNK_ENTRIES entries of k+1, or one row when k+1 alone exceeds that.
    """
    ps = index.source
    Q = np.asarray(queries, dtype=np.float64)
    if Q.ndim == 1:
        Q = Q.reshape(-1, ps.dim)
    if Q.shape[1] != ps.dim:
        raise ValueError(f"queries have dimension {Q.shape[1]}, index has {ps.dim}")
    if not np.isfinite(Q).all():
        raise ValueError("query contains non-finite coordinates")
    k = _check_k(k, ps.n)
    out = np.empty(Q.shape[0], dtype=np.float64)
    rows = max(1, _CHUNK_ENTRIES // (k + 1))
    order = index._order
    if order is not None:
        xs = ps.points[order, 0]
        windows = sliding_window_view(order, k)
    for lo in range(0, Q.shape[0], rows):
        qc = Q[lo:lo + rows]
        if order is None:
            d, idx = index._tree.query(qc, k=k + 1)
            gap = d[:, k] > d[:, k - 1] * (1.0 + _REL_SLACK)
            fast, values = tree_rows(qc, d, idx, gap)
        else:
            a, r2, fast = _windows(xs, qc[:, 0], k)
            starts = a[fast]
            values = window_rows(r2[fast], lambda: windows[starts])
        block = out[lo:lo + rows]
        block[fast] = values
        for row in np.flatnonzero(~fast):
            block[row] = exact_row(knn_query(index, qc[row], k))
    return out


def knn_radii(index: SpatialIndex, queries, k: int) -> np.ndarray:
    """Exact k-NN radii for a batch of queries.

    In D >= 2, rows with a clear gap after the k-th neighbor and few
    candidates near it take the max exact distance over those candidates;
    in D = 1, rows whose window passes the exact gap test take sqrt(r2).
    The rest take the single-query path, so the result matches a
    knn_query loop bit for bit.
    """
    pts = index.source.points

    def tree_rows(qc, d, idx, gap):
        k = d.shape[1] - 1
        dk = d[:, k - 1]
        tail = (d[:, :k] >= (dk * (1.0 - _REL_SLACK))[:, None]).sum(axis=1)
        fast = gap & (tail <= _TAIL_CAP)
        if not fast.any():
            return fast, 0.0
        t = int(tail[fast].max())
        diff = pts[idx[fast, k - t:k]] - qc[fast][:, None, :]
        return fast, np.sqrt((diff * diff).sum(axis=2).max(axis=1))

    return _batch(index, queries, k, tree_rows,
                  lambda r2, members: np.sqrt(r2), lambda ns: ns.radius)
