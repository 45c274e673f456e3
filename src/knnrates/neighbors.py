"""Exact Euclidean k-nearest-neighbor search with tie-inclusive semantics.

The k-NN radius of a query x is the smallest radius whose closed ball
captures at least k sample points; the neighbor set is *every* point within
that radius, so ties at the boundary may push its size above k.

Two query paths are provided: an index for speed and a brute-force full
scan as the correctness oracle.  Both decide membership with the same
squared-distance arithmetic and exact float comparisons (no epsilon), so
their answers agree bit for bit.  That arithmetic (`_sq_dists`) is one
whole-array operation per coordinate, with the squares added in numpy's
own pairwise order, so it has the bits of numpy's sum over the
coordinates at a fraction of its cost in low dimensions.

In D = 1 the index is the stable sorted order of the coordinate and holds
no tree, so no 1-D path loads scipy.  The neighbor set of a query is a
contiguous run of that order: a binary search finds the query's k-point
window, which is the whole set when both points just outside it are
strictly farther than its farther end (an exact test), and otherwise two
more binary searches widen it over the tied runs at both ends.  Scalar
and batch queries run the same searches, so every row, a row whose
squared distances overflow included, gets the oracle's answer.

In D >= 2 the index is a scipy kd-tree, imported when the first one is
built, and used only to produce candidate supersets; the final radius and
member set always come from the shared arithmetic.  Batch queries (`knn_radii`, and `predict_batch` in the
regression module) run one chunked kernel that takes a k+1 tree query per
chunk; rows with a clear gap after the k-th neighbor are settled from it,
and the rows that tie there are settled together, grouped by the size of
their candidate balls.  Only rows whose tree k-th distance is not finite
take the single-query path.

The mean of observations over a neighbor set (`predict_batch`, and
`predict` in the regression module) is correctly rounded: the exact sum
divided by the member count, rounded once, so it does not depend on the
order of the members.  The exact sums come from int64 limbs of the
observations (`_limbs`); in D = 1 a row's sum is the difference of two
prefix sums over the sorted order, so no row is gathered or sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

# Candidate windows from the kd-tree are widened by this relative slack
# before exact refinement.  The tree's internal distance sums and ours can
# disagree by at most ~D*eps ~ 2e-15 in relative terms, so 1e-9 is a safe
# superset margin while adding essentially no spurious candidates.
_REL_SLACK = 1e-9

# knn_radii settles a D >= 2 row from its tree query only when at most this
# many candidates share (or nearly share) its k-th distance; the others are
# settled with the tied rows.
_TAIL_CAP = 8

# Tied D >= 2 rows are settled in sub-batches of at most this many
# (row, candidate) coordinates.  A D = 2 sub-batch peaks near 80 bytes a
# candidate, about 0.6 MiB, so settling ties adds little to the peak
# memory of a batch call.
_TIE_ENTRIES = 2 ** 14

# Tree-query entries (rows x (k+1)) per D >= 2 batch chunk.  A chunk peaks
# near 32 bytes per entry (tree distances and indices plus the reductions'
# temporaries), so a batch call stays near 2 MiB whatever k is.  A study
# runs one trial per usable CPU at once, each with its own chunks, so the
# chunk is kept small enough that those working sets add little to a
# process's peak memory.
_CHUNK_ENTRIES = 2 ** 16

# Rows per D = 1 batch chunk.  A window row holds a few scalars whatever k
# is, so the chunk is sized by rows alone.
_CHUNK_ROWS_1D = 2 ** 16


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

    In D = 1 it holds the stable argsort of the coordinate and the
    coordinate in that order, which every query searches for its neighbor
    window, and `_tree` is None.  In D >= 2 it holds the kd-tree and
    `_order` and `_xs` are None.
    """

    source: PointSet
    _tree: Optional[cKDTree] = field(repr=False)
    _order: Optional[np.ndarray] = field(default=None, repr=False)
    _xs: Optional[np.ndarray] = field(default=None, repr=False)


def as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def _pairwise_sum(term, lo: int, m: int) -> np.ndarray:
    """term(lo) + ... + term(lo + m - 1) in numpy's own pairwise order.

    This is the order of numpy's sum over a contiguous axis: left to right
    for fewer than 8 terms; up to 128 terms, eight running sums over
    strides of 8, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    remainder left to right; above 128, the sum of two halves split at a
    multiple of 8.  numpy starts from zero, which changes no bit of a sum
    of terms that are never -0.0.  Each term must be a fresh array, since
    the sums accumulate in place.
    """
    if m > 128:
        half = m // 2 - m // 2 % 8
        out = _pairwise_sum(term, lo, half)
        out += _pairwise_sum(term, lo + half, m - half)
        return out
    if m < 8:
        out = term(lo)
        for j in range(lo + 1, lo + m):
            out += term(j)
        return out
    r = [term(lo + j) for j in range(8)]
    end = lo + m - m % 8
    for i in range(lo + 8, end, 8):
        for j, acc in enumerate(r):
            acc += term(i + j)
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    for j in range(end, lo + m):
        r[0] += term(j)
    return r[0]


def _sq_dists(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from q to each row of pts, reduced over the last
    (coordinate) axis.

    q is one point, or a block of points that broadcasts against pts, such
    as (rows, 1, D) queries against (n, D) points, which gives (rows, n).
    Every membership/tie decision in this package routes through this one
    function, or in D = 1 through its one-coordinate form diff * diff, so
    that the index, the oracle, and the batch paths share identical
    floating-point arithmetic.

    The result has the bits of (diff * diff).sum(axis=-1), but is built
    from D whole-array column operations, since numpy's reduction over a
    short trailing axis costs several times more than the same arithmetic
    done a column at a time.  Rounding depends on the order of the
    additions, so the squares are added in numpy's own order
    (_pairwise_sum).
    """
    def square(j):
        diff = np.subtract(pts[..., j], q[..., j])
        return np.multiply(diff, diff, out=diff)

    return _pairwise_sum(square, 0, pts.shape[-1])


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
    """Build the index: the stable sorted order in D = 1, a kd-tree in
    D >= 2.  Deterministic given the input order."""
    ps = as_point_set(points)
    if ps.dim == 1:
        order = np.argsort(ps.points[:, 0], kind="stable")
        xs = ps.points[order, 0]
        order.setflags(write=False)
        xs.setflags(write=False)
        return SpatialIndex(source=ps, _tree=None, _order=order, _xs=xs)
    # scipy loads here, so that importing the package and every 1-D path
    # run without it.
    from scipy.spatial import cKDTree
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
    """Tie-inclusive k-NN query, exactly equivalent to brute_force_knn.

    In D = 1 it is one row of the batch kernel: the window of _windows,
    widened over ties by _widen.  In D >= 2 a tree query for the k-th
    distance bounds a ball query, whose candidates are refined exactly.
    """
    ps = index.source
    q = _check_query(query, ps.dim)
    k = _check_k(k, ps.n)
    order, xs = index._order, index._xs
    if order is not None:
        a, r2, _ = _windows(xs, q, k)
        lo, hi = _widen(xs, q, r2, a, k)
        r2, members = r2[0], np.sort(order[lo[0]:hi[0]])
    else:
        dists = np.atleast_1d(index._tree.query(q, k=k)[0])
        r_safe = float(dists[-1]) * (1.0 + _REL_SLACK)
        cand = np.asarray(index._tree.query_ball_point(q, r_safe),
                          dtype=np.intp)
        # The ball holds at least the tree's own k nearest.
        assert cand.size >= k
        d2 = _sq_dists(ps.points[cand], q)
        r2 = np.partition(d2, k - 1)[k - 1]
        members = np.sort(cand[d2 <= r2])
    return NeighborSet(radius=float(np.sqrt(r2)), member_indices=members,
                       count=int(members.size))


def _windows(xs: np.ndarray, q: np.ndarray, k: int):
    """Neighbor windows of 1-D queries over sorted coordinates `xs`.

    A binary search finds, for each query, the start a of the window
    xs[a:a+k] that a tie-free k-NN set must occupy.  Its squared radius r2
    is the larger squared distance of the window's two ends, built with
    diff * diff as in _sq_dists; it is the row's k-th smallest squared
    distance, ties or not.  The row is `fast` only when both points just
    outside the window, a-1 and a+k, are strictly farther than r2: then the
    window is exactly the tie-inclusive neighbor set.  Returns
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


def _widen(xs: np.ndarray, q: np.ndarray, r2: np.ndarray, a: np.ndarray,
           k: int):
    """Tie-inclusive runs of 1-D rows whose window xs[a:a+k] has squared
    radius r2.

    Subtraction and diff * diff are monotone, so the set {d2 <= r2} is a
    contiguous run [lo, hi) of the sorted order that holds the window.  Two
    binary searches from the window's ends find lo in [0, a] and hi in
    [a+k, n].  A row whose r2 overflowed to inf gets the whole order [0, n),
    as the oracle does.
    """
    n = xs.shape[0]

    def inside(j):
        diff = xs[j] - q
        return diff * diff <= r2

    lo, last = a, a + (k - 1)
    step = 1 << (n.bit_length() - 1)
    while step:
        c = lo - step
        lo = np.where((c >= 0) & inside(np.maximum(c, 0)), c, lo)
        c = last + step
        last = np.where((c < n) & inside(np.minimum(c, n - 1)), c, last)
        step >>= 1
    return lo, last + 1


def _limbs(y: np.ndarray):
    """Exact int64 limbs of the observations y.

    Each y is M * 2**s with |M| < 2**53.  Scaled to the smallest exponent e
    of the nonzero y, every y is the integer M << (s - e), split here into
    limbs of `bits` bits with M's sign: y[i] = 2**e * sum over l of
    parts[l, i] << (bits * l).  Since len(y) << bits < 2**63, any sum of
    at most len(y) entries of a limb, prefix sums included, is exact in
    int64.  The number of limbs follows from the exponent range of y, so
    any finite y, subnormals included, is covered.  Returns
    (parts, bits, e).
    """
    frac, s = np.frexp(y)
    mant = np.ldexp(frac, 53).astype(np.int64)
    nonzero = mant != 0
    e = int(s[nonzero].min()) - 53 if nonzero.any() else 0
    shift = np.where(nonzero, s.astype(np.int64) - 53 - e, 0)
    bits = 63 - y.size.bit_length()
    mag = np.abs(mant)
    parts = np.empty(((int(shift.max(initial=0)) + 52) // bits + 1, y.size),
                     dtype=np.int64)
    for limb, part in enumerate(parts):
        # The limb holds bits [bits*l, bits*(l+1)) of mag << shift.  numpy
        # shifts by 64 bits or more give 0.  (np.clip costs more than the
        # rest of the loop on a small set.)
        up = np.minimum(np.maximum(shift - bits * limb, 0), bits)
        down = np.maximum(bits * limb - shift, 0)
        part[:] = ((mag >> down) & ((1 << (bits - up)) - 1)) << up
    parts *= np.sign(mant)
    return parts, bits, e


def _means(sums: np.ndarray, counts, bits: int, e: int) -> np.ndarray:
    """Correctly rounded means from exact limb sums.

    `sums` is the (limbs, rows) array of each row's limb sums over its
    members, in the scale of _limbs(y) (bits, e), and `counts` the member
    count of each row (or one count for all).  Each row's exact sum S is
    rebuilt as a Python int (in an object array) and divided with
    int / int, which is correctly rounded; for e < 0, 2**-e goes into the
    divisor so that a subnormal result is rounded once.
    """
    total = sums[-1].astype(object)
    for part in sums[-2::-1]:
        total = (total << bits) + part.astype(object)
    counts = np.asarray(counts).astype(object)
    if e >= 0:
        quotient = (total << e) / counts
    else:
        quotient = total / (counts << -e)
    return quotient.astype(np.float64)


def _exact_mean(values: np.ndarray) -> float:
    """The correctly rounded mean of the 1-D array `values`."""
    parts, bits, e = _limbs(values)
    return float(_means(parts.sum(axis=1, keepdims=True), values.size, bits,
                        e)[0])


def _tied_rows(index: SpatialIndex, qs: np.ndarray, r: np.ndarray, k: int,
               limbs) -> np.ndarray:
    """Radii (limbs None) or means, from the _limbs of y, for D >= 2 rows
    settled together.

    `r` holds each row's tree k-th distance widened by _REL_SLACK, the
    radius knn_query searches.  One counting ball query gives each row's
    ball size; a row's that-many nearest tree neighbors are its ball, so a
    tree query for width >= size neighbors returns a superset of it.  Rows
    are grouped by width, the size rounded up to three significant bits
    (at most a quarter more candidates, and few groups), and each group
    takes one tree query: a dense (rows, width) block of candidates.
    _sq_dists over the block gives each row's k-th value r2 and its
    members d2 <= r2, the arithmetic of knn_query; one reduceat per limb
    over the flat members sums every row.  A tree query holds at most
    _TIE_ENTRIES candidate coordinates, or one row.
    """
    tree, pts = index._tree, index.source.points
    n, dim = pts.shape
    sizes = tree.query_ball_point(qs, r, return_length=True)
    # The ball holds at least the tree's own k nearest.
    assert (sizes >= k).all()
    step = 2 ** np.maximum(np.frexp(sizes)[1] - 3, 0)
    widths = np.minimum(-(-sizes // step) * step, n)
    out = np.empty(qs.shape[0], dtype=np.float64)
    for m in np.unique(widths).tolist():
        group = np.flatnonzero(widths == m)
        rows = max(1, _TIE_ENTRIES // (m * dim))
        for i in range(0, group.size, rows):
            sub = group[i:i + rows]
            q = qs[sub]
            cand = tree.query(q, k=m)[1].reshape(sub.size, m)
            d2 = _sq_dists(pts[cand], q[:, None, :])
            r2 = np.partition(d2, k - 1, axis=1)[:, k - 1]
            if limbs is None:
                out[sub] = np.sqrt(r2)
            else:
                parts, bits, e = limbs
                keep = d2 <= r2[:, None]
                counts = keep.sum(axis=1)
                flat, starts = cand[keep], np.cumsum(counts) - counts
                sums = np.stack([np.add.reduceat(part[flat], starts)
                                 for part in parts])
                out[sub] = _means(sums, counts, bits, e)
    return out


def _batch(index: SpatialIndex, queries, k: int, y=None) -> np.ndarray:
    """The chunked kernel under knn_radii (y None) and predict_batch (the
    mean of y over each row's neighbor set).

    In D = 1 each chunk takes the window search of _windows: every row's
    squared radius is its window's r2, a fast row's members are its window,
    and any other row's members are the run _widen finds, an infinite r2
    included; either way a row's limb sums are the differences of the
    prefix sums at the ends of its run.  In D >= 2 each chunk takes one k+1
    tree query.  Rows with a clear distance gap after the k-th neighbor are
    settled from it: a mean over their k tree neighbors (summed one limb at
    a time), or, for radii, the max exact distance over the few candidates
    near the k-th (at most _TAIL_CAP).  The other rows with a finite tree
    k-th distance are settled together by _tied_rows, and only rows whose
    tree k-th distance is not finite (it bounds no candidate set) take
    knn_query.  Every mean is the correctly rounded one (_means), and every
    row gets the bits of a scalar loop.  A D = 1 chunk holds _CHUNK_ROWS_1D
    rows; a D >= 2 chunk holds _CHUNK_ENTRIES (2^16) entries of k+1, about
    2 MiB at its peak, or one row when k+1 alone exceeds that.  Rows are
    settled independently, so the chunk size changes no bit of the output.
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
    limbs = None
    order, xs = index._order, index._xs
    if order is not None:
        rows = _CHUNK_ROWS_1D
        if y is not None:
            # A permutation keeps the limbs' scale, so take the limbs of y
            # in sorted order and keep only their prefix sums.
            parts, bits, e = _limbs(y[order])
            prefix = np.zeros((parts.shape[0], ps.n + 1), dtype=np.int64)
            np.cumsum(parts, axis=1, out=prefix[:, 1:])
            del parts
    else:
        rows = max(1, _CHUNK_ENTRIES // (k + 1))
        if y is not None:
            limbs = _limbs(y)
            parts, bits, e = limbs
    for lo in range(0, Q.shape[0], rows):
        qc = Q[lo:lo + rows]
        block = out[lo:lo + rows]
        if order is not None:
            a, r2, fast = _windows(xs, qc[:, 0], k)
            if y is None:
                block[:] = np.sqrt(r2)
            else:
                run_lo, run_hi = a, a + k
                tied = np.flatnonzero(~fast)
                if tied.size:
                    run_lo[tied], run_hi[tied] = _widen(
                        xs, qc[tied, 0], r2[tied], a[tied], k)
                block[:] = _means(prefix[:, run_hi] - prefix[:, run_lo],
                                  run_hi - run_lo, bits, e)
        else:
            d, idx = index._tree.query(qc, k=k + 1)
            dk = d[:, k - 1]
            fast = d[:, k] > dk * (1.0 + _REL_SLACK)
            if limbs is None:
                tail = (d[:, :k] >= (dk * (1.0 - _REL_SLACK))[:, None]).sum(axis=1)
                fast &= tail <= _TAIL_CAP
                if fast.any():
                    t = int(tail[fast].max())
                    d2 = _sq_dists(ps.points[idx[fast, k - t:k]],
                                   qc[fast][:, None, :])
                    block[fast] = np.sqrt(d2.max(axis=1))
            else:
                members = idx[fast, :k]
                block[fast] = _means(np.stack([part[members].sum(axis=1)
                                               for part in parts]),
                                     k, bits, e)
            tied = np.flatnonzero(~fast & np.isfinite(dk))
            if tied.size:
                block[tied] = _tied_rows(index, qc[tied],
                                         dk[tied] * (1.0 + _REL_SLACK), k,
                                         limbs)
            for row in np.flatnonzero(~fast & ~np.isfinite(dk)):
                ns = knn_query(index, qc[row], k)
                block[row] = ns.radius if y is None else \
                    _exact_mean(y[ns.member_indices])
    return out


def knn_radii(index: SpatialIndex, queries, k: int) -> np.ndarray:
    """Exact k-NN radii for a batch of queries.

    In D = 1 every row takes sqrt(r2) of its sorted window, infinite when
    its squared distances overflow.  In D >= 2, rows with a clear gap after
    the k-th neighbor and few candidates near it take the max exact
    distance over those candidates, and the other rows the k-th exact
    distance over their grouped candidate blocks (_tied_rows).  Only D >= 2
    rows whose tree k-th distance is not finite take knn_query.  The result
    matches a knn_query loop bit for bit.
    """
    return _batch(index, queries, k)
