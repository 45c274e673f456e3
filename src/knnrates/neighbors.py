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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
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
    """Immutable query structure over a PointSet; safe for concurrent reads."""

    source: PointSet
    _tree: cKDTree = field(repr=False)


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
    return SpatialIndex(source=ps, _tree=cKDTree(ps.points))


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


def _batch(index: SpatialIndex, queries, k: int, fast_rows,
           exact_row) -> np.ndarray:
    """The chunked loop under knn_radii and predict_batch.

    Each chunk takes one k+1 tree query.  `fast_rows(qc, d, idx, gap)`
    reduces the rows with a clear distance gap after the k-th neighbor: it
    returns the mask of rows it resolved (a subset of `gap`) and their
    values.  Every other row falls back to the exact knn_query path and is
    reduced by `exact_row(neighbor_set)`, so the result matches a scalar
    loop bit for bit.  A chunk holds _CHUNK_ENTRIES tree entries, or one
    row when k+1 alone exceeds that.
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
    for lo in range(0, Q.shape[0], rows):
        qc = Q[lo:lo + rows]
        d, idx = index._tree.query(qc, k=k + 1)
        gap = d[:, k] > d[:, k - 1] * (1.0 + _REL_SLACK)
        fast, values = fast_rows(qc, d, idx, gap)
        block = out[lo:lo + rows]
        block[fast] = values
        for row in np.flatnonzero(~fast):
            block[row] = exact_row(knn_query(index, qc[row], k))
    return out


def knn_radii(index: SpatialIndex, queries, k: int) -> np.ndarray:
    """Exact k-NN radii for a batch of queries.

    Rows with a clear gap after the k-th neighbor and few candidates near
    it take the max exact distance over those candidates; the rest take
    the single-query path, so the result matches a knn_query loop bit for
    bit.
    """
    pts = index.source.points

    def fast_rows(qc, d, idx, gap):
        k = d.shape[1] - 1
        dk = d[:, k - 1]
        tail = (d[:, :k] >= (dk * (1.0 - _REL_SLACK))[:, None]).sum(axis=1)
        fast = gap & (tail <= _TAIL_CAP)
        if not fast.any():
            return fast, 0.0
        t = int(tail[fast].max())
        diff = pts[idx[fast, k - t:k]] - qc[fast][:, None, :]
        return fast, np.sqrt((diff * diff).sum(axis=2).max(axis=1))

    return _batch(index, queries, k, fast_rows, lambda ns: ns.radius)
