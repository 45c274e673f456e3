"""Neighbor index tests: frozen hand-computed cases plus randomized
equivalence against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrates import (PointSet, brute_force_knn, build_index, knn_query,
                      knn_radii)


def pts1d(*vals):
    return PointSet(np.asarray(vals, dtype=float))


class TestPointSet:
    def test_construction_echo(self):
        ps = pts1d(0.0, 1.0, 2.0)
        assert ps.n == 3 and ps.dim == 1
        idx = build_index(ps)
        assert idx.source.n == 3

    def test_singleton(self):
        idx = build_index(np.array([[0.0, 0.0]]))
        ns = knn_query(idx, [5.0, 5.0], 1)
        assert list(ns.member_indices) == [0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[0.0], [np.nan]]))

    def test_immutable(self):
        ps = pts1d(0.0, 1.0)
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0


class TestKnnQuery:
    def test_hand_case_interior_query(self):
        # distances from 0.9: 0.1, 0.9, 1.1
        idx = build_index(pts1d(0.0, 1.0, 2.0))
        ns = knn_query(idx, [0.9], 2)
        assert ns.radius == pytest.approx(0.9, abs=0)
        assert list(ns.member_indices) == [0, 1]
        assert ns.count == 2

    def test_tie_at_boundary_included(self):
        ns = knn_query(build_index(pts1d(0.0, 2.0, -2.0)), [0.0], 3)
        assert ns.radius == 2.0
        assert list(ns.member_indices) == [0, 1, 2]

    def test_tie_inflates_count_beyond_k(self):
        ns = knn_query(build_index(pts1d(0.0, 1.0, -1.0)), [0.0], 2)
        assert ns.radius == 1.0
        assert ns.count == 3  # both boundary points kept

    def test_self_query_k1(self):
        ps = pts1d(0.3, 0.7, 0.11)
        idx = build_index(ps)
        for i in range(3):
            ns = knn_query(idx, ps.points[i], 1)
            assert ns.radius == 0.0
            assert i in ns.member_indices

    def test_duplicates_share_radius_zero(self):
        ns = knn_query(build_index(pts1d(0.0, 0.0, 1.0)), [0.0], 1)
        assert ns.radius == 0.0
        assert list(ns.member_indices) == [0, 1]

    def test_k_errors(self):
        idx = build_index(pts1d(0.0, 1.0))
        with pytest.raises(ValueError):
            knn_query(idx, [0.0], 0)
        with pytest.raises(ValueError):
            knn_query(idx, [0.0], 3)

    def test_dimension_mismatch(self):
        idx = build_index(np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            knn_query(idx, [0.0], 1)

    def test_nonfinite_query_rejected(self):
        idx = build_index(pts1d(0.0, 1.0))
        with pytest.raises(ValueError):
            knn_query(idx, [np.inf], 1)


def _random_instance(rng, lattice):
    n = int(rng.integers(1, 41))
    d = int(rng.integers(1, 5))
    if lattice:
        pts = rng.integers(0, 4, size=(n, d)).astype(float)
    else:
        pts = rng.random((n, d))
    q = rng.integers(0, 4, size=d).astype(float) if lattice else rng.random(d)
    k = int(rng.integers(1, n + 1))
    return PointSet(pts), q, k


class TestOracleEquivalence:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_random_instances_match_bruteforce(self, lattice):
        rng = np.random.default_rng(11 + lattice)
        for _ in range(200):
            ps, q, k = _random_instance(rng, lattice)
            idx = build_index(ps)
            a = knn_query(idx, q, k)
            b = brute_force_knn(ps, q, k)
            assert a.radius == b.radius
            assert np.array_equal(a.member_indices, b.member_indices)

    @given(st.lists(st.integers(min_value=-3, max_value=3),
                    min_size=1, max_size=12),
           st.integers(min_value=-3, max_value=3),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_lattice_ties(self, vals, q, data):
        # Integer coordinates force frequent exact ties.
        ps = pts1d(*[float(v) for v in vals])
        k = data.draw(st.integers(min_value=1, max_value=len(vals)))
        a = knn_query(build_index(ps), [float(q)], k)
        b = brute_force_knn(ps, [float(q)], k)
        assert a.radius == b.radius
        assert np.array_equal(a.member_indices, b.member_indices)

    def test_radius_monotone_in_k(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.random((50, 2)))
        idx = build_index(ps)
        q = rng.random(2)
        radii = [knn_query(idx, q, k).radius for k in range(1, 51)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))

    def test_tie_semantics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ps, q, k = _random_instance(rng, lattice=True)
            ns = knn_query(build_index(ps), q, k)
            assert ns.count >= k
            if ns.count > k:
                d = np.linalg.norm(ps.points[ns.member_indices] - q, axis=1)
                assert (np.abs(d - ns.radius) < 1e-12).sum() >= 2

    def test_determinism(self):
        rng = np.random.default_rng(13)
        ps = PointSet(rng.random((100, 3)))
        q = rng.random(3)
        r1 = knn_query(build_index(ps), q, 17)
        r2 = knn_query(build_index(ps), q, 17)
        assert r1.radius == r2.radius
        assert np.array_equal(r1.member_indices, r2.member_indices)


class TestBatchRadii:
    def test_matches_scalar_loop_exactly(self):
        rng = np.random.default_rng(19)
        ps = PointSet(rng.random((200, 2)))
        idx = build_index(ps)
        Q = rng.random((64, 2))
        for k in (1, 3, 17, 199, 200):
            batch = knn_radii(idx, Q, k)
            scalar = np.array([knn_query(idx, q, k).radius for q in Q])
            assert np.array_equal(batch, scalar)

    def test_matches_scalar_on_lattice_ties(self):
        rng = np.random.default_rng(23)
        pts = rng.integers(0, 3, size=(40, 2)).astype(float)
        ps = PointSet(pts)
        idx = build_index(ps)
        Q = rng.integers(0, 3, size=(30, 2)).astype(float)
        for k in (1, 2, 5, 39):
            batch = knn_radii(idx, Q, k)
            scalar = np.array([knn_query(idx, q, k).radius for q in Q])
            assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_gap_rows_sharing_the_kth_distance(self, dim):
        # The 12 integer points at distance 5 from the origin and four
        # farther ones: at k = 12 every query below has a clear gap after
        # its k-th distance, which all 12 neighbors share, exactly at the
        # origin and within _REL_SLACK at the tiny offsets.  D = 3 embeds
        # the plane; D = 8 holds four copies of the halved coordinates,
        # since the kd-tree may add its squares in another order than
        # _sq_dists, so its k-th column need not hold the largest exact
        # distance.
        from knnrates.neighbors import _REL_SLACK, _sq_dists

        plane = np.array([(5, 0), (-5, 0), (0, 5), (0, -5), (3, 4), (3, -4),
                          (-3, 4), (-3, -4), (4, 3), (4, -3), (-4, 3),
                          (-4, -3), (7, 0), (0, 8), (-9, 1), (6, 6)],
                         dtype=float)
        pts = {2: plane, 3: np.column_stack([plane, np.zeros(16)]),
               8: np.tile(plane / 2, 4)}[dim]
        rng = np.random.default_rng(dim)
        Q = np.vstack([np.zeros((1, dim))] +
                      [rng.standard_normal((20, dim)) * 2.0 ** e
                       for e in (-52, -48, -44)])
        idx = build_index(pts)
        radii = []
        for q in Q:
            ns, oracle = knn_query(idx, q, 12), brute_force_knn(pts, q, 12)
            d2 = _sq_dists(pts, q)
            assert d2[:12].min() >= d2[:12].max() * (1.0 - _REL_SLACK) ** 2
            assert np.array_equal(ns.member_indices, np.arange(12))
            assert np.array_equal(oracle.member_indices, np.arange(12))
            assert np.float64(ns.radius).tobytes() == \
                np.float64(oracle.radius).tobytes()
            radii.append(ns.radius)
        assert knn_radii(idx, Q, 12).tobytes() == np.array(radii).tobytes()


class TestSqDists:
    # _sq_dists adds its squares a column at a time, left to right in
    # coordinate order; its bits must equal a per-row reference that adds
    # Python floats in that order, on every shape its callers pass: points
    # against one query (the oracle), a query block against the points (the
    # set counter) and candidate blocks against their own queries (the
    # D >= 2 batch paths).  The test keeps its first name, from when the
    # reference was numpy's own reduction.
    @pytest.mark.parametrize("dim", [*range(1, 41), 129, 300])
    def test_bits_equal_numpy_reduction(self, dim):
        from knnrates.neighbors import _sq_dists

        rng = np.random.default_rng(dim)

        def draw(shape):
            # Normal draws at one magnitude (squares near 1e+300, which can
            # overflow when summed, near 1e-300, subnormal or flushed to 0),
            # with about a tenth of the coordinates set to +0.0 or -0.0.
            scale = rng.choice([1.0, 1e150, 1e153, 1e-150, 1e-160, 1e-310])
            x = rng.standard_normal(shape) * scale
            zeros = rng.random(shape) < 0.1
            x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
            return x

        def left_to_right(p, q):
            # Python floats are IEEE doubles; a plain loop, since sum() may
            # compensate its rounding.
            total = (p[0] - q[0]) * (p[0] - q[0])
            for a, b in zip(p[1:], q[1:]):
                total += (a - b) * (a - b)
            return total

        for pts_shape, q_shape in [((37, dim), (dim,)),
                                   ((37, dim), (9, 1, dim)),
                                   ((9, 11, dim), (9, 1, dim))]:
            for _ in range(6):
                pts, q = draw(pts_shape), draw(q_shape)
                shape = np.broadcast_shapes(pts.shape, q.shape)
                rows_p = np.broadcast_to(pts, shape).reshape(-1, dim).tolist()
                rows_q = np.broadcast_to(q, shape).reshape(-1, dim).tolist()
                want = np.array([left_to_right(p, r)
                                 for p, r in zip(rows_p, rows_q)])
                with np.errstate(over="ignore", under="ignore"):
                    got = _sq_dists(pts, q)
                assert got.shape == shape[:-1]
                assert got.tobytes() == want.tobytes()

    def test_leaves_no_reference_to_its_inputs(self):
        # Callers pass gathered candidate blocks; they must be freed when
        # the call returns, not kept alive until a cyclic collection.
        import gc
        import weakref

        from knnrates.neighbors import _sq_dists

        rng = np.random.default_rng(3)
        gc.disable()
        try:
            for dim in (2, 10, 129):
                pts, q = rng.random((20, dim)), rng.random((4, 1, dim))
                refs = [weakref.ref(pts), weakref.ref(q)]
                _sq_dists(pts, q)
                del pts, q
                assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestBatchMemory:
    def test_scalar_1d_query_copies_no_coordinates(self):
        import tracemalloc

        n = 2 ** 16
        idx = build_index(np.random.default_rng(31).random((n, 1)))
        tracemalloc.start()
        try:
            ns = knn_query(idx, [0.5], 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ns.count == 8
        # A copy of the n sorted coordinates alone would take n * 8 bytes.
        assert peak < n
    @pytest.mark.parametrize("k", [4095, 4096])
    def test_large_k_peak_bounded(self, k):
        import tracemalloc

        X = np.random.default_rng(29).random((4096, 1))
        idx = build_index(X)
        tracemalloc.start()
        try:
            knn_radii(idx, X, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
