"""Exact Euclidean k-nearest-neighbor search with tie-inclusive semantics.

The k-NN radius of a query x is the smallest radius whose closed ball
captures at least k sample points; the neighbor set is *every* point within
that radius, so ties at the boundary may push its size above k.

Two query paths are provided: an index for speed and a brute-force full
scan as the correctness oracle.  Both decide membership with the same
squared-distance arithmetic and exact float comparisons (no epsilon), so
their answers agree bit for bit.  That arithmetic (`_sq_dists`) is one
whole-array operation per coordinate, with the squares added left to
right in coordinate order, so its bits depend on no library's reduction
order.

In D = 1 the index is the sorted order of the coordinate and holds no
tree, so no 1-D path loads scipy.  The neighbor set of a query is a
contiguous run of that order around the query's k-point window, which is
the whole set when both points just outside it are strictly farther than
its farther end (an exact test), and otherwise two binary searches widen
it over the tied runs at both ends.  A batch takes each window's start
from one search of its queries over the midpoints of the points k apart,
and keeps the start only where the exact window test certifies it; the
other rows, and every scalar query, binary-search for it with that test.
Both give the one start the test admits, so every row, a row whose
squared distances overflow included, gets the oracle's answer.

In D >= 2 the index is a scipy kd-tree, imported when the first one is
built, and used only to produce candidate supersets; the final radius and
member set always come from the shared arithmetic.  Batch queries
(`knn_radii`, and `predict_batch` in the regression module) run one
chunked kernel that takes a k+1 tree query per chunk; a row with a clear
gap after the k-th neighbor has its k tree neighbors as its whole set,
and the rows that tie there are settled together, grouped by the size of
their candidate balls.  Only rows whose tree k-th distance is not finite
take the single-query path.

The mean of observations over a neighbor set (`predict_batch`, and
`predict` in the regression module) is correctly rounded: the exact sum
divided by the member count, rounded once, so it does not depend on the
order of the members.  The exact sums come from int64 limbs of the
observations (`_limbs`); in D = 1 a row's sum is the difference of two
prefix sums over the sorted order, taken over the span of its chunk's
runs alone, so no row is gathered or sorted.  Every path rounds in one
place (`_means`): a row's sum is rebuilt as a Python int and divided by
its count with int / int, for one scalar mean and for a batch's rows
alike; each batch chunk rounds its own rows, at most 4,096 of them, as
a row counts at least 16 entries (`_chunks`).  The estimators at the
sample points start from float means with a proven error bound
(`_sample_bounds`) and round only the rows it leaves undecided.
"""

from __future__ import annotations

import contextvars
import os
import threading
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

# Tied D >= 2 rows are settled in sub-batches of at most this many
# (row, candidate) coordinates.  A D = 2 sub-batch peaks near 80 bytes a
# candidate, about 0.6 MiB, so settling ties adds little to the peak
# memory of a batch call.
_TIE_ENTRIES = 2 ** 14

# Entries per chunk of a batch call or of the 1-D bound pass (_chunks).  A
# D >= 2 row counts its k+1 tree-query entries, a D = 1 row one, and every
# row at least 16: whatever k is, a 1-D row's search, run and bounds hold
# near 80 bytes of temporaries, and a row's exact sum and mean as Python
# ints near 210 bytes, so a chunk's 4,096 rows at most hold under 1 MiB.
# A D >= 2 chunk keeps the tree's indices, 8 bytes per entry, once its gap
# test has read the tree's distances; predict_batch adds one limb gather
# (8 bytes per entry, near 1 MiB a chunk in all), and knn_radii the
# coordinates of its gap rows' neighbors and their squared distances
# (8 * D + 8 bytes per entry, near 2 MiB a chunk in D = 2).  At most one
# chunk per usable CPU is live at once (_map_on_cpus), so those working
# sets add little to a process's peak memory.
_CHUNK_ENTRIES = 2 ** 16


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

    In D = 1 it holds an argsort of the coordinate and the coordinate in
    that order, which every query searches for its neighbor window, and
    `_tree` is None.  In D >= 2 it holds the kd-tree and `_order` and `_xs`
    are None.
    """

    source: PointSet
    _tree: Optional[cKDTree] = field(repr=False)
    _order: Optional[np.ndarray] = field(default=None, repr=False)
    _xs: Optional[np.ndarray] = field(default=None, repr=False)


def as_point_set(points) -> PointSet:
    return points if isinstance(points, PointSet) else PointSet(points)


def _sq_dists(pts: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances from q to each row of pts, over the last
    (coordinate) axis.

    q is one point, or a block of points that broadcasts against pts, such
    as (rows, 1, D) queries against (n, D) points, which gives (rows, n).
    Every membership/tie decision in this package routes through this one
    function, or in D = 1 through its one-coordinate form diff * diff, so
    that the index, the oracle, and the batch paths share identical
    floating-point arithmetic.

    The squares are added left to right, coordinate 0 first, one
    whole-array column operation each: the sum has the (D - 1) u relative
    error bound of recursive summation that _REL_SLACK assumes, its bits
    depend on no library's reduction order, and it costs far less than
    numpy's reduction over a short trailing axis.
    """
    out = np.subtract(pts[..., 0], q[..., 0])
    np.multiply(out, out, out=out)
    for j in range(1, pts.shape[-1]):
        diff = np.subtract(pts[..., j], q[..., j])
        out += np.multiply(diff, diff, out=diff)
    return out


def _check_queries(queries, dim: int, one: bool = False) -> np.ndarray:
    """The query rows as an (m, dim) float array, or with `one` the one row
    as a (dim,) array.  It takes (m, dim) and flat (m * dim,) arrays or
    lists, and a 0-d query on a 1-D index; any other shape, or a non-finite
    coordinate, is a ValueError."""
    Q = np.asarray(queries, dtype=np.float64)
    if Q.ndim < 2 and Q.size % dim == 0:
        Q = Q.reshape(-1, dim)
    if Q.ndim != 2 or Q.shape[1] != dim or (one and Q.shape[0] != 1):
        raise ValueError(f"query array of shape {np.shape(queries)} does "
                         f"not fit an index of dimension {dim}")
    if not np.isfinite(Q).all():
        raise ValueError("query contains non-finite coordinates")
    return Q[0] if one else Q


def _check_k(k: int, n: int) -> int:
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    return k


def build_index(points) -> SpatialIndex:
    """Build the index: the sorted order in D = 1, a kd-tree in D >= 2.
    No output depends on the order of equal coordinates: a fast window
    never splits them, _widen takes whole tied runs, the limb sums are
    exact and knn_query sorts its members."""
    ps = as_point_set(points)
    if ps.dim == 1:
        order = np.argsort(ps.points[:, 0])
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
    q = _check_queries(query, ps.dim, one=True)
    k = _check_k(k, ps.n)
    d2 = _sq_dists(ps.points, q)
    r2 = np.partition(d2, k - 1)[k - 1]
    members = np.flatnonzero(d2 <= r2)
    return NeighborSet(radius=float(np.sqrt(r2)), member_indices=members,
                       count=int(members.size))


def knn_query(index: SpatialIndex, query, k: int) -> NeighborSet:
    """Tie-inclusive k-NN query, exactly equivalent to brute_force_knn.

    In D = 1 it is one row of the batch kernel, the run of _runs.  In
    D >= 2 a tree query for the k-th distance bounds a ball query, whose
    candidates are refined exactly.
    """
    ps = index.source
    q = _check_queries(query, ps.dim, one=True)
    k = _check_k(k, ps.n)
    order, xs = index._order, index._xs
    if order is not None:
        lo, hi, r2 = _runs(xs, q, k)
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


def _windows(xs: np.ndarray, q: np.ndarray, k: int, start=None):
    """Neighbor windows of 1-D queries over sorted coordinates `xs`.

    Each query's window xs[a:a+k] is the one a tie-free k-NN set must
    occupy.  The window moves right past a while xs[a+k] lies left of the
    query or is strictly nearer than xs[a]; that test is monotone in a, so
    a is the one start at which it holds at a-1 and fails at a.  `start`,
    when given, is a guess at a (the midpoint search of _batch): a row
    keeps its guess when the test certifies it, and every other row, or
    every row without `start`, binary-searches for a.  The squared radius
    r2 is the larger squared distance of the window's two ends, built with
    diff * diff as in _sq_dists; it is the row's k-th smallest squared
    distance, ties or not.  The row is `fast` only when both points just
    outside the window, a-1 and a+k, are strictly farther than r2: then the
    window is exactly the tie-inclusive neighbor set.  Returns
    (a, r2, fast); `a` is `start` itself when given.
    """
    n = xs.shape[0]
    last = n - k

    def sq(j, q):
        diff = xs[j] - q
        return diff * diff

    def search(q):
        a = np.zeros(q.shape[0], dtype=np.intp)
        step = 1 << (last.bit_length() - 1) if last else 0
        while step:
            c = a + step
            j = np.minimum(c, last) - 1
            right = (xs[j + k] < q) | (sq(j, q) > sq(j + k, q))
            a = np.where((c <= last) & right, c, a)
            step >>= 1
        return a

    def ends(a, q):
        # Squared distances to xs[a-1], xs[a], xs[a+k-1] and xs[a+k], the
        # outer two clamped into the order.
        return (sq(np.maximum(a - 1, 0), q), sq(a, q), sq(a + k - 1, q),
                sq(np.minimum(a + k, n - 1), q))

    a = search(q) if start is None else start
    before, first, end, after = ends(a, q)
    if start is not None:
        held = (a == 0) | (xs[a + k - 1] < q) | (before > end)
        fails = (a == last) | ~((xs[np.minimum(a + k, n - 1)] < q) |
                                (first > after))
        wrong = np.flatnonzero(~(held & fails))
        if wrong.size:
            a[wrong] = search(q[wrong])
            for got, fixed in zip((before, first, end, after),
                                  ends(a[wrong], q[wrong])):
                got[wrong] = fixed
    r2 = np.maximum(first, end)
    fast = ((a == 0) | (before > r2)) & ((a == last) | (after > r2))
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


def _runs(xs: np.ndarray, q: np.ndarray, k: int, start=None):
    """Tie-inclusive runs [lo, hi) of 1-D queries q, and their squared
    radii: _windows's windows, widened by _widen where they are not fast."""
    a, r2, fast = _windows(xs, q, k, start)
    lo, hi = a, a + k
    tied = np.flatnonzero(~fast)
    if tied.size:
        lo[tied], hi[tied] = _widen(xs, q[tied], r2[tied], a[tied], k)
    return lo, hi, r2


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
    # Temporaries go once used: this pass sets a large 1-D batch's peak.
    frac, s = np.frexp(y)
    mag = np.ldexp(frac, 53).astype(np.int64)
    del frac
    nonzero = mag != 0
    e = int(s[nonzero].min()) - 53 if nonzero.any() else 0
    shift = s.astype(np.int64)
    del s
    shift -= 53 + e
    shift *= nonzero
    bits = 63 - y.size.bit_length()
    neg = mag < 0
    np.abs(mag, out=mag)
    parts = np.empty(((int(shift.max(initial=0)) + 52) // bits + 1, y.size),
                     dtype=np.int64)
    for limb, part in enumerate(parts):
        # The limb holds bits [bits*l, bits*(l+1)) of mag << shift.  numpy
        # shifts by 64 bits or more give 0.  (np.clip costs more than the
        # rest of the loop on a small set.)
        up = np.minimum(np.maximum(shift - bits * limb, 0), bits)
        down = np.maximum(bits * limb - shift, 0)
        part[:] = ((mag >> down) & ((1 << (bits - up)) - 1)) << up
    np.negative(parts, out=parts, where=neg)
    return parts, bits, e


def _means(sums: np.ndarray, counts, bits: int, e: int) -> np.ndarray:
    """Correctly rounded means from exact limb sums.

    `sums` is the (limbs, rows) array of each row's limb sums over its
    members, in the scale of _limbs(y) (bits, e), and `counts` the member
    count m of each row (or one count for all): a row's mean is 2**e * S / m
    with S the sum over l of sums[l] << (bits * l).  S is rebuilt as a
    Python int, top limb first, and divided with int / int, which is
    correctly rounded (to nearest even, subnormals and signed zeros
    included); for e < 0, 2**-e goes into the divisor so that a subnormal
    result is rounded once.
    """
    m = np.full(sums.shape[1], counts).tolist()
    total = sums[-1].tolist()
    for limb in sums[-2::-1].tolist():
        total = [(s << bits) + v for s, v in zip(total, limb)]
    if e >= 0:
        means = [(s << e) / c for s, c in zip(total, m)]
    else:
        means = [s / (c << -e) for s, c in zip(total, m)]
    return np.array(means, dtype=np.float64)


def _tied_rows(index: SpatialIndex, qs: np.ndarray, r: np.ndarray, k: int,
               parts=None):
    """Radii (parts None), or limb sums and member counts over the limbs
    `parts` of y, for D >= 2 rows settled together.

    `r` holds each row's tree k-th distance widened by _REL_SLACK, the
    radius knn_query searches.  One counting ball query gives each row's
    ball size; a row's that-many nearest tree neighbors are its ball, so a
    tree query for width >= size neighbors returns a superset of it.  Rows
    are grouped by width, the size rounded up to three significant bits
    (at most a quarter more candidates, and few groups), and each group
    takes one tree query: a dense (rows, width) block of candidates.
    _sq_dists over the block gives each row's k-th value r2 and its
    members d2 <= r2, the arithmetic of knn_query; one reduceat per limb
    over the flat members sums every row, and the caller rounds the sums
    with its other rows'.  A tree query holds at most _TIE_ENTRIES
    candidate coordinates, or one row.
    """
    tree, pts = index._tree, index.source.points
    n, dim = pts.shape
    sizes = tree.query_ball_point(qs, r, return_length=True)
    # The ball holds at least the tree's own k nearest.
    assert (sizes >= k).all()
    step = 2 ** np.maximum(np.frexp(sizes)[1] - 3, 0)
    widths = np.minimum(-(-sizes // step) * step, n)
    if parts is None:
        radii = np.empty(qs.shape[0], dtype=np.float64)
    else:
        sums = np.empty((parts.shape[0], qs.shape[0]), dtype=np.int64)
        counts = np.empty(qs.shape[0], dtype=np.int64)
    for m in np.unique(widths).tolist():
        group = np.flatnonzero(widths == m)
        rows = max(1, _TIE_ENTRIES // (m * dim))
        for i in range(0, group.size, rows):
            sub = group[i:i + rows]
            q = qs[sub]
            cand = tree.query(q, k=m)[1].reshape(sub.size, m)
            d2 = _sq_dists(pts[cand], q[:, None, :])
            r2 = np.partition(d2, k - 1, axis=1)[:, k - 1]
            if parts is None:
                radii[sub] = np.sqrt(r2)
            else:
                keep = d2 <= r2[:, None]
                counts[sub] = keep.sum(axis=1)
                flat = cand[keep]
                starts = np.cumsum(counts[sub]) - counts[sub]
                sums[:, sub] = np.stack([np.add.reduceat(part[flat], starts)
                                         for part in parts])
    return radii if parts is None else (sums, counts)


# Set on the caller and the helpers of a _map_on_cpus call while they run
# its items, so that pools never nest.
_in_pool = threading.local()


def _map_on_cpus(fn, items) -> list:
    """[fn(item) for item in items], run at once on the usable CPUs (the
    affinity set where the platform reports one, else every CPU), since
    the tree queries and numpy's large kernels release the GIL.

    The calling thread is one of the workers: it starts one helper thread
    per further CPU, at most one per further item, and the caller and the
    helpers take the next item index from one counter under a lock.  Each
    item runs in a copy of the caller's context, so that its np.errstate
    holds.  With one item or CPU, or inside a worker of such a call, it is
    a plain loop that starts no thread.  Once an item fails no further
    index is handed out; the call joins every helper, so none outlives it,
    and raises the failure of the smallest index, which is the loop's: each
    smaller index was handed out before it.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if len(items) <= 1 or cpus <= 1 or getattr(_in_pool, "worker", False):
        return [fn(item) for item in items]
    context = contextvars.copy_context()
    results = [None] * len(items)
    failures = {}
    lock = threading.Lock()
    handed = 0

    def work():
        nonlocal handed
        _in_pool.worker = True
        try:
            while True:
                with lock:
                    if failures or handed == len(items):
                        return
                    i, handed = handed, handed + 1
                try:
                    results[i] = context.copy().run(fn, items[i])
                except BaseException as e:
                    with lock:
                        failures[i] = e
        finally:
            _in_pool.worker = False

    helpers = []
    try:
        for _ in range(min(len(items), cpus) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _chunks(rows: int, entries: int) -> range:
    """The first row of each chunk of a pass over `rows` rows of `entries`
    entries each; the range's step is the chunk's size.  A row counts at
    least 16 entries, and the pass takes the fewest chunks of at most
    _CHUNK_ENTRIES entries (or of one row), of balanced sizes."""
    cap = max(1, _CHUNK_ENTRIES // max(16, entries))
    return range(0, rows, -(-rows // -(-rows // cap)) if rows else 1)


def _batch(index: SpatialIndex, queries, k: int, y=None) -> np.ndarray:
    """The chunked kernel under knn_radii (y None) and predict_batch (the
    mean of y over each row's neighbor set), in one phase: the chunks of
    _chunks (one entry per D = 1 row, k+1 per D >= 2 row) run at once on
    the usable CPUs (_map_on_cpus), or in a loop inside a worker of another
    such call, and each writes its rows' final values, a predict_batch
    chunk rounding its own rows' sums with _means, the rounding of a
    scalar predict.  Rows are settled independently, so neither chunks nor
    threads change a bit.

    In D = 1 the call sorts its queries once and each chunk is a slice of
    that order.  A row's window start comes from one search over the
    midpoints 0.5 * xs[j] + 0.5 * xs[j+k] (a form that cannot overflow);
    _windows certifies each start with its exact test, and only the rows
    it fails binary-search.  Every row's squared radius is its window's
    r2, a fast row's members are its window, and any other row's members
    are the run _widen finds, an infinite r2 included.  A chunk's limbs of
    the observations over the span of its own runs, and their prefix sums,
    give each row's limb sums as the differences at the ends of its run;
    sorted chunks span little, so a call reads each observation about once.

    In D >= 2 the call takes the limbs of y once, and each chunk takes one
    k+1 tree query and drops its distances once the gap test has read
    them.  A row with a clear distance gap after the k-th neighbor has its
    k tree neighbors as its whole set (a view of the tree's indices when
    every row of the chunk has the gap): its radius is the max exact
    distance over them, and its limb sums are theirs, summed one limb at a
    time.  The other rows with a finite tree k-th distance are settled
    together by _tied_rows, and only rows whose tree k-th distance is not
    finite (it bounds no candidate set) take knn_query.
    """
    ps = index.source
    Q = _check_queries(queries, ps.dim)
    k = _check_k(k, ps.n)
    order, xs = index._order, index._xs
    out = np.empty(Q.shape[0], dtype=np.float64)
    if order is not None:
        mids = 0.5 * xs[:ps.n - k] + 0.5 * xs[k:]
        # searchsorted runs several times faster over sorted keys.
        by = np.argsort(Q[:, 0])
        chunks = _chunks(Q.shape[0], 1)
    else:
        if y is not None:
            parts, bits, e = _limbs(y)
        chunks = _chunks(Q.shape[0], k + 1)
    rows = chunks.step

    def line(i):
        into = by[i:i + rows]
        qx = Q[into, 0]
        start = np.searchsorted(mids, qx)
        if y is None:
            out[into] = np.sqrt(_windows(xs, qx, k, start)[1])
            return
        lo, hi, _ = _runs(xs, qx, k, start)
        # Only the span of the chunk's runs, from a, is read: its limbs, in
        # sorted order, and their prefix sums, since a correctly rounded
        # mean does not depend on the limbs' scale.
        a = int(lo.min())
        lo -= a
        hi -= a
        span, bits, e = _limbs(y[order[a:a + int(hi.max())]])
        prefix = np.zeros((span.shape[0], span.shape[1] + 1), dtype=np.int64)
        np.cumsum(span, axis=1, out=prefix[:, 1:])
        del span
        out[into] = _means(prefix[:, hi] - prefix[:, lo], hi - lo, bits, e)

    def tree(i):
        qc = Q[i:i + rows]
        if y is None:
            block = out[i:i + rows]
        else:
            sums = np.empty((parts.shape[0], qc.shape[0]), dtype=np.int64)
            counts = np.empty(qc.shape[0], dtype=np.int64)
        d, idx = index._tree.query(qc, k=k + 1)
        # Only the gap test reads the distances; they go before the gathers.
        dk = d[:, k - 1].copy()
        fast = d[:, k] > dk * (1.0 + _REL_SLACK)
        del d
        members = idx[:, :k] if fast.all() else idx[fast, :k]
        if y is None:
            d2 = _sq_dists(ps.points[members], qc[fast][:, None, :])
            block[fast] = np.sqrt(d2.max(axis=1))
        else:
            for limb, part in enumerate(parts):
                sums[limb, fast] = part[members].sum(axis=1)
            counts[fast] = k
        tied = np.flatnonzero(~fast & np.isfinite(dk))
        if tied.size:
            got = _tied_rows(index, qc[tied], dk[tied] * (1.0 + _REL_SLACK),
                             k, None if y is None else parts)
            if y is None:
                block[tied] = got
            else:
                sums[:, tied], counts[tied] = got
        for row in np.flatnonzero(~fast & ~np.isfinite(dk)):
            ns = knn_query(index, qc[row], k)
            if y is None:
                block[row] = ns.radius
            else:
                sums[:, row] = parts[:, ns.member_indices].sum(axis=1)
                counts[row] = ns.count
        if y is not None:
            out[i:i + rows] = _means(sums, counts, bits, e)

    _map_on_cpus(line if order is not None else tree, chunks)
    return out


def _sample_bounds(index: SpatialIndex, y: np.ndarray, k: int):
    """Bounds lower <= p <= upper, in source order, on predict_batch's p at
    the index's own points.  In D >= 2 both are _batch's p.

    In D = 1 the queries are xs itself, already sorted, with _runs's runs
    [lo, hi): approx = s^ / m, m = hi - lo, s^ = P[hi] - P[lo] over float
    prefix sums P of y in sorted order.  With u = 2**-53, T = sum |y| and
    g = n u / (1 - n u), every |P^_j - P_j| <= g T in any summation order,
    so |s^ - s| <= 2 g T + u |s^| / (1 - u) for the exact sum s; dividing
    and p = RN(s / m) add u times the quotient or 2**-1075 each, so
    |approx - p| <= (1 + 3u) X + 2**-1073, X = (2 g T + u |s^|) / m +
    2 u |approx|.  The bounds are approx -+ err, err = 2 X + 2**-1000 in
    floats: for n u <= 1/10 the factor 2 covers rounding err, T and
    approx -+ err (at most X / 2 + u err), and 2**-1000 the subnormals.
    A row with a non-finite err (an overflowed sum) gets (-inf, inf).

    The prefix sums, the window midpoints, both bounds and, while they are
    summed, the observations in sorted order are whole arrays, 8 bytes a
    point each; the runs and the bounds' temporaries, near 80 bytes a row,
    take the chunks of _chunks (at most 4,096 rows, about 0.3 MiB) one at
    a time, so the pass peaks near 40 bytes a point for a large n, and rows
    are independent, so the chunks change no bit.
    """
    order, xs = index._order, index._xs
    if order is None:
        p = _batch(index, index.source.points, k, y)
        return p, p
    n, u = xs.shape[0], 2.0 ** -53
    chunks = _chunks(n, 1)
    step = chunks.step
    mids = 0.5 * xs[:n - k] + 0.5 * xs[k:]
    prefix, lower, upper = np.zeros(n + 1), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(y[order], out=prefix[1:])
        g = n * u / (1 - n * u)
        gT2 = 2 * g * np.abs(y).sum()
        for i in chunks:
            q = xs[i:i + step]
            lo, hi, _ = _runs(xs, q, k, np.searchsorted(mids, q))
            s, m = prefix[hi] - prefix[lo], hi - lo
            approx = s / m
            err = 2 * ((gT2 + u * np.abs(s)) / m +
                       2 * u * np.abs(approx)) + 2.0 ** -1000
            known = np.isfinite(err)
            rows = order[i:i + step]
            lower[rows] = np.where(known, approx - err, -np.inf)
            upper[rows] = np.where(known, approx + err, np.inf)
    return lower, upper


def knn_radii(index: SpatialIndex, queries, k: int) -> np.ndarray:
    """Exact k-NN radii for a batch of queries.

    In D = 1 every row takes sqrt(r2) of its sorted window, infinite when
    its squared distances overflow.  In D >= 2, rows with a clear gap after
    the k-th neighbor take the max exact distance over their k tree
    neighbors, and the other rows the k-th exact distance over their
    grouped candidate blocks (_tied_rows).  Only D >= 2 rows whose tree
    k-th distance is not finite take knn_query.  The result matches a
    knn_query loop bit for bit.
    """
    return _batch(index, queries, k)
