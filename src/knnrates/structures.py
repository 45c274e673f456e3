"""Derived estimators on top of the regressor: level-set recovery with
Hausdorff evaluation, global-maxima estimation, and the empirical
distinct-neighbor-set counter.  The counter is a full scan that counts
every k of a trial from one squared-distance block per probe chunk."""

from __future__ import annotations

import numpy as np

from .neighbors import (as_point_set, build_index, knn_radii, _CHUNK_ENTRIES,
                        _sample_bounds, _sq_dists)
from .regression import Dataset, Regressor, ScalarField, predict_batch


def estimate_level_set(reg: Regressor, level: float,
                       epsilon: float) -> np.ndarray:
    """Ascending indices of the sample points whose prediction clears
    level - epsilon (ties kept).  A row is in (out) when both bounds on its
    prediction (_sample_bounds) clear (miss) the threshold; predict_batch
    settles the rest exactly."""
    epsilon = float(epsilon)
    threshold = float(level) - epsilon
    if not (epsilon >= 0.0 and threshold == threshold):
        raise ValueError("epsilon must be nonnegative and level - epsilon "
                         f"a number, got {level} and {epsilon}")
    points = reg.data.x.points
    lower, upper = _sample_bounds(reg.index, reg.data.y, reg.k)
    inside = lower >= threshold
    unsure = np.flatnonzero(~inside & ~(upper < threshold))
    if unsure.size:
        inside[unsure] = predict_batch(reg, points[unsure]) >= threshold
    return np.flatnonzero(inside)


def true_level_set_grid(fld: ScalarField, level: float, grid) -> np.ndarray:
    """The true super-level region on a grid: the (m, D) grid points where
    the field is at least the level, empty (which the Hausdorff metric
    refuses) when the level is above the grid maximum."""
    ps = as_point_set(grid)
    return ps.points[fld.evaluate(ps.points) >= float(level)]


def _check_clouds(a, b) -> tuple:
    """Both clouds, (m,) or (m, D) arrays or PointSets, as PointSets."""
    if any(np.size(getattr(c, "points", c)) == 0 for c in (a, b)):
        raise ValueError("Hausdorff distance is undefined for empty clouds")
    a, b = as_point_set(a), as_point_set(b)
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a, b


def hausdorff_distance(a, b) -> float:
    """Exact Hausdorff distance between two finite point clouds,
    index-accelerated; equals the double-loop oracle bit for bit."""
    a, b = _check_clouds(a, b)
    d_ab = knn_radii(build_index(b), a.points, 1).max()
    d_ba = knn_radii(build_index(a), b.points, 1).max()
    return float(max(d_ab, d_ba))


def hausdorff_distance_bruteforce(a, b) -> float:
    """Double-loop oracle for hausdorff_distance."""
    a, b = _check_clouds(a, b)

    def directed(src, dst):
        best = 0.0
        for p in src:
            best = max(best, float(np.sqrt(_sq_dists(dst, p).min())))
        return best

    return max(directed(a.points, b.points), directed(b.points, a.points))


def estimate_maxima(reg: Regressor) -> int:
    """Index of the sample point with the highest prediction; ties break to
    the smallest index.  predict_batch settles, in index order, the rows
    whose upper bound (_sample_bounds) reaches the largest lower bound, as
    every maximal row's does, so their first maximum is np.argmax's of all."""
    lower, upper = _sample_bounds(reg.index, reg.data.y, reg.k)
    cand = np.flatnonzero(upper >= lower.max())
    return int(cand[np.argmax(predict_batch(reg, reg.data.x.points[cand]))])


def count_distinct_knn_sets(data: Dataset, ks, probes) -> list:
    """Number of distinct tie-inclusive neighbor sets seen over the probes,
    one count for each k of `ks`, in order.

    Each count is a lower bound on the true count over the continuum.
    Full-scan evaluation, intended for the modest n of the combinatorial
    experiments: each block of probes takes its squared distances once,
    from _sq_dists as the oracle does, and one sort of each row gives every
    k's k-th distance (at these sizes one sort costs less than a partition
    at several kths).  Each k's membership mask, padded to whole bytes, is
    packed by one packbits over the flattened block, which is several times
    faster than packbits along short rows and gives the same bytes; each
    packed row is then one bytes value, compared with its neighbor and
    hashed without a Python loop.  A block holds at most _CHUNK_ENTRIES
    (2^16) coordinate differences, so the counter's peak memory stays near
    a MiB however many probes there are.  Every k is checked before any
    counting.
    """
    ps = as_point_set(probes)
    pts = data.x.points
    if ps.dim != data.x.dim:
        raise ValueError("probe dimension does not match the dataset")
    n = data.n
    ks = [int(k) for k in ks]
    for k in ks:
        if not (1 <= k <= n):
            raise ValueError(f"k={k} outside [1, n={n}]")
    if not ks:
        return []
    seen = [set() for _ in ks]
    width = -(-n // 8)
    # Probes per full-scan block: at most _CHUNK_ENTRIES coordinate
    # differences, n * D per probe (one probe when n * D alone exceeds it).
    chunk = max(1, _CHUNK_ENTRIES // (n * ps.dim))
    for lo in range(0, ps.n, chunk):
        d2 = _sq_dists(pts, ps.points[lo:lo + chunk, None, :])
        ranked = np.sort(d2, axis=1)
        rows = d2.shape[0]
        # Each mask row is padded with zeros to whole bytes, so one packbits
        # over the flat block gives packbits(mask, axis=1)'s bytes.
        mask = np.zeros((rows, 8 * width), dtype=bool)
        for k, sets in zip(ks, seen):
            np.less_equal(d2, ranked[:, k - 1, None], out=mask[:, :n])
            # One opaque `width`-byte value per row, compared and hashed
            # whole.
            packed = np.packbits(mask.reshape(-1)).view(f"V{width}")
            # Neighboring grid probes mostly share a set: hash a row only
            # when it differs from the one before.
            fresh = np.ones(rows, dtype=bool)
            fresh[1:] = packed[1:] != packed[:-1]
            sets.update(packed[fresh].tolist())
    return [len(sets) for sets in seen]
