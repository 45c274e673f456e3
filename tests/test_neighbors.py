"""Neighbor index tests: frozen hand-computed cases plus randomized
equivalence against the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrates import (PointSet, brute_force_knn, build_index, knn_query,
                      knn_radii, range_query)


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


class TestRangeQuery:
    def test_hand_case(self):
        idx = build_index(pts1d(0.0, 1.0, 2.0))
        assert list(range_query(idx, [1.0], 1.0)) == [0, 1, 2]

    def test_zero_radius_off_points(self):
        idx = build_index(pts1d(0.0, 1.0, 2.0))
        assert list(range_query(idx, [0.5], 0.0)) == []

    def test_zero_radius_on_point(self):
        idx = build_index(pts1d(0.0, 1.0, 2.0))
        assert list(range_query(idx, [1.0], 0.0)) == [1]

    def test_large_radius_returns_all(self):
        idx = build_index(pts1d(0.0, 1.0, 2.0))
        assert list(range_query(idx, [0.5], 1e9)) == [0, 1, 2]

    def test_infinite_radius_rejected(self):
        idx = build_index(pts1d(0.0))
        with pytest.raises(ValueError):
            range_query(idx, [0.0], np.inf)

    def test_negative_radius_rejected(self):
        idx = build_index(pts1d(0.0))
        with pytest.raises(ValueError):
            range_query(idx, [0.0], -1.0)

    def test_contains_knn_members(self):
        rng = np.random.default_rng(5)
        pts = PointSet(rng.random((60, 3)))
        idx = build_index(pts)
        for _ in range(25):
            q = rng.random(3)
            k = int(rng.integers(1, 61))
            ns = knn_query(idx, q, k)
            covered = set(range_query(idx, q, ns.radius))
            assert set(ns.member_indices) <= covered


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


class TestBatchMemory:
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
