"""Regressor tests: hand-computed predictions, exact batch/scalar agreement,
arithmetic-exact equivariances on dyadic data, and input validation."""


import dataclasses
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knnrates.neighbors as neighbors
from knnrates import (Dataset, PointSet, Regressor,
                      brute_force_knn, estimate_level_set, estimate_maxima,
                      hausdorff_distance,
                      hausdorff_distance_bruteforce, knn_query, knn_radii,
                      make_field, make_regressor, predict, predict_batch,
                      sup_error)


def data1d(xs, ys):
    return Dataset(PointSet(np.asarray(xs, dtype=float)),
                   np.asarray(ys, dtype=float))


def exact_mean(values):
    """The oracle mean: the exact rational sum over its count, rounded once."""
    return float(sum(map(Fraction, np.asarray(values).tolist()))
                 / len(values))


def dyadic_dataset(rng, n, dim, denom=1024.0):
    """Random dataset whose observations are exact dyadic rationals, so sums
    and power-of-two divisions incur no rounding at all."""
    x = PointSet(rng.random((n, dim)))
    y = rng.integers(-2 ** 20, 2 ** 20, size=n) / denom
    return Dataset(x, y.astype(float))


class TestPredict:
    def test_constant_observations(self):
        reg = make_regressor(data1d([0.0, 0.3, 1.7, 5.0], [4.5] * 4), 3)
        for q in ([0.0], [2.2], [99.0]):
            assert predict(reg, q) == 4.5

    def test_hand_case(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [0.0, 10.0, 20.0]), 2)
        assert predict(reg, [0.9]) == 5.0

    def test_k_equals_n_gives_global_mean(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(20)
        reg = make_regressor(Dataset(PointSet(rng.random((20, 2))), y), 20)
        expect = exact_mean(y)
        for q in rng.random((10, 2)):
            assert predict(reg, q) == expect

    def test_tie_divides_by_member_count(self):
        # neighbors of 0 at k=2: {0, 1, -1} by the boundary tie
        reg = make_regressor(data1d([0.0, 1.0, -1.0], [3.0, 6.0, 9.0]), 2)
        assert predict(reg, [0.0]) == (3.0 + 6.0 + 9.0) / 3

    def test_dimension_mismatch(self):
        reg = make_regressor(data1d([0.0, 1.0], [0.0, 1.0]), 1)
        with pytest.raises(ValueError):
            predict(reg, [0.0, 1.0])

    @given(st.integers(min_value=1, max_value=15), st.data())
    @settings(max_examples=60, deadline=None)
    def test_prediction_within_neighbor_range(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ds = Dataset(PointSet(rng.random((n, 2))), rng.standard_normal(n))
        reg = make_regressor(ds, k)
        q = rng.random(2)
        members = knn_query(reg.index, q, k).member_indices
        lo, hi = ds.y[members].min(), ds.y[members].max()
        assert lo - 1e-12 <= predict(reg, q) <= hi + 1e-12


class TestBatchAgreement:
    @pytest.mark.parametrize("lattice", [False, True])
    def test_batch_equals_scalar_bitwise(self, lattice):
        rng = np.random.default_rng(17 + lattice)
        if lattice:
            pts = rng.integers(0, 4, size=(60, 2)).astype(float)
            Q = rng.integers(0, 4, size=(40, 2)).astype(float)
        else:
            pts = rng.random((60, 2))
            Q = rng.random((40, 2))
        ds = Dataset(PointSet(pts), rng.standard_normal(60))
        for k in (1, 2, 7, 59, 60):
            reg = make_regressor(ds, k)
            batch = predict_batch(reg, Q)
            scalar = np.array([predict(reg, q) for q in Q])
            assert np.array_equal(batch, scalar)


    def test_large_k_peak_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(31)
        X = rng.random((4096, 1))
        reg = make_regressor(Dataset(PointSet(X), rng.standard_normal(4096)),
                             4095)
        tracemalloc.start()
        try:
            predict_batch(reg, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_wide_exponent_range_peak_bounded(self):
        # Observations from 2**-1074 to 2**1000 need 47 limbs each.
        import tracemalloc

        rng = np.random.default_rng(53)
        n = 2 ** 16
        X = rng.random((n, 1))
        y = np.ldexp(rng.uniform(-2.0, 2.0, n), rng.integers(-1074, 999, n))
        y[:2] = 5e-324, 2.0 ** 1000
        reg = make_regressor(Dataset(PointSet(X), y), 64)
        Q = rng.random((4096, 1))
        tracemalloc.start()
        try:
            out = predict_batch(reg, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        for i in range(0, 4096, 512):
            members = brute_force_knn(X, Q[i], 64).member_indices
            assert bits(out[i]) == bits(exact_mean(y[members]))

    def test_10d_chunk_peak_bounded(self, force_cpus):
        # n = 8192 in R^10 at k = 407 with 512 queries, on one CPU: four
        # chunks of 128 rows in a loop, each of 52,224 tree entries.  A
        # chunk keeps the tree's indices and one limb gather, 16 bytes an
        # entry; traced peak 1.0 MiB with numpy 2.4 and scipy 1.17 on
        # x86-64, against 1.7 MiB when it also kept the tree's distances
        # and a copy of its member indices.
        import tracemalloc

        force_cpus(1)
        rng = np.random.default_rng(67)
        n, k = 8192, 407
        X = rng.random((n, 10))
        reg = make_regressor(Dataset(PointSet(X), rng.standard_normal(n)), k)
        Q = rng.random((512, 10))
        tracemalloc.start()
        try:
            out = predict_batch(reg, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
        for q, got in zip(Q[::128], out[::128]):
            assert bits(got) == bits(predict(reg, q))

    @given(st.sampled_from([2, 3]), st.sampled_from([1, 3, 5, 8]),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None)
    def test_fast_and_mixed_chunks_equal_scalar_bitwise(self, dim, k, seed):
        # Two chunks of eight rows.  The first holds queries among 40
        # random points, which are all fast, so it takes its members as a
        # view of the tree's indices; the second holds four more, shuffled
        # with four interior sites of a far lattice whose every site is
        # doubled, which tie at k = 1 (two copies) and at k = 3..8 (their
        # 4 * dim neighbors at distance 1).
        from unittest import mock

        rng = np.random.default_rng(seed)
        grid = np.stack(np.meshgrid(*[np.arange(4.0)] * dim),
                        axis=-1).reshape(-1, dim) + 10.0
        X = np.vstack([rng.random((40, dim)), grid, grid])
        sites = grid[(grid > 10.0).all(axis=1) & (grid < 13.0).all(axis=1)]
        mixed = np.vstack([rng.random((4, dim)), sites[:4]])
        Q = np.vstack([rng.random((8, dim)), mixed[rng.permutation(8)]])
        reg = make_regressor(Dataset(PointSet(X),
                                     rng.standard_normal(len(X))), k)
        real, tied = neighbors._tied_rows, []

        def spy(index, qs, *args):
            tied.append(qs)
            return real(index, qs, *args)

        # A row counts max(16, k + 1) entries, so chunks of this many hold
        # eight rows.
        with mock.patch.object(neighbors, "_CHUNK_ENTRIES",
                               8 * max(16, k + 1)), \
                mock.patch.object(neighbors, "_tied_rows", spy):
            assert_batch_equals_scalar(reg, Q)
        assert len(tied) == 2
        for qs in tied:
            assert np.array_equal(qs, Q[(Q >= 10.0).all(axis=1)])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def queries_1d(vals):
    """Every sample point, every midpoint between sorted neighbors, both
    zeros, and one point beyond each end of the hull."""
    xs = np.unique(vals)
    return np.concatenate([vals, (xs[:-1] + xs[1:]) / 2,
                           [-0.0, 0.0, xs[0] - 1.5, xs[-1] + 1.5]])


class TestBatchAgreement1D:
    """D = 1 batches take the sorted-window kernel; its answers must be the
    scalar ones bit for bit, ties and signed zeros included."""

    @given(st.lists(st.one_of(st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0,
                                               1.0, 2.0, 3.0]),
                              st.floats(-4.0, 4.0)),
                    min_size=1, max_size=24),
           st.integers(min_value=1, max_value=24),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(vals=[0.0], k_pick=1, seed=0)
    @example(vals=[-0.0, 0.0, 0.0, 1.0, -1.0], k_pick=2, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_scalar_bitwise(self, vals, k_pick, seed):
        n = len(vals)
        k = (k_pick - 1) % n + 1
        y = np.random.default_rng(seed).standard_normal(n)
        reg = make_regressor(data1d(vals, y), k)
        Q = queries_1d(np.asarray(vals))
        scalar = [knn_query(reg.index, [q], k) for q in Q]
        assert np.array_equal(bits(predict_batch(reg, Q)),
                              bits([predict(reg, [q]) for q in Q]))
        assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                              bits([ns.radius for ns in scalar]))
        for q, ns in zip(Q, scalar):
            oracle = brute_force_knn(reg.data.x, [q], k)
            assert bits(ns.radius) == bits(oracle.radius)
            assert np.array_equal(ns.member_indices, oracle.member_indices)

    def test_builds_no_kd_tree(self, monkeypatch):
        import scipy.spatial

        def no_tree(*args, **kwargs):
            raise AssertionError("cKDTree built for 1-D points")

        # build_index imports cKDTree when it builds a tree, so it reads
        # the patched attribute.
        monkeypatch.setattr(scipy.spatial, "cKDTree", no_tree)
        rng = np.random.default_rng(37)
        X = rng.random((500, 1))
        Q = np.vstack([X[:150], rng.uniform(-0.5, 1.5, (150, 1))])
        ds = Dataset(PointSet(X), rng.standard_normal(500))
        for k in (1, 37, 500):
            reg = make_regressor(ds, k)
            scalar = [knn_query(reg.index, q, k) for q in Q]
            assert np.array_equal(bits(predict_batch(reg, Q)),
                                  bits([predict(reg, q) for q in Q]))
            assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                                  bits([ns.radius for ns in scalar]))
            for q, ns in zip(Q[::10], scalar[::10]):
                oracle = brute_force_knn(X, q, k)
                assert bits(ns.radius) == bits(oracle.radius)
                assert np.array_equal(ns.member_indices,
                                      oracle.member_indices)
        assert hausdorff_distance(X, Q) == hausdorff_distance_bruteforce(X, Q)

    def test_chunks_equal_scalar_bitwise(self, monkeypatch):
        # Chunks of 7 rows (a row counts 16 entries): the 200 queries span
        # 29 chunks, the last one short, and tied rows fall in several of
        # them.
        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 7 * 16)
        rng = np.random.default_rng(41)
        X = rng.integers(0, 40, size=(300, 1)).astype(float)
        Q = np.vstack([X[:100], rng.uniform(-5.0, 45.0, (100, 1))])
        reg = make_regressor(Dataset(PointSet(X), rng.standard_normal(300)), 9)
        assert np.array_equal(bits(predict_batch(reg, Q)),
                              bits([predict(reg, q) for q in Q]))
        assert np.array_equal(bits(knn_radii(reg.index, Q, 9)),
                              bits([knn_query(reg.index, q, 9).radius
                                    for q in Q]))

    def test_limbs_span_the_rows_runs(self, monkeypatch):
        # A call takes the limbs of the observations over the span of its
        # rows' runs alone, so a one-row call reads its own run, no more.
        X, y = tie_data()
        real, sizes = neighbors._limbs, []

        def recorder(values):
            sizes.append(values.size)
            return real(values)

        monkeypatch.setattr(neighbors, "_limbs", recorder)
        for k in (1, 5, 150):
            reg = make_regressor(Dataset(PointSet(X), y), k)
            for q in queries_1d(X[:, 0]):
                sizes.clear()
                predict_batch(reg, [q])
                assert sizes == [knn_query(reg.index, [q], k).count]

    @pytest.mark.parametrize("k", [1, 3, 40, 150])
    def test_span_edges_and_ties_equal_scalar_bitwise(self, k):
        # Batches whose span starts at index 0 of the sorted order, ends at
        # n, both or neither, with tied runs at its ends.  Observations of
        # far exponents outside most spans give the full set another limb
        # scale than a span's.
        X, y = tie_data()
        y[np.flatnonzero(X[:, 0] == 40.0)] = 2.0 ** 1000
        y[0] = 5e-324
        reg = make_regressor(Dataset(PointSet(X), y), k)
        left, right, tied = [-7.0, 0.0], [40.0, 47.0], [20.0, 20.5, 0.5]
        for Q in (left, right, tied, [13.0], left + right, tied + right,
                  left + tied):
            Q = np.array(Q).reshape(-1, 1)
            assert np.array_equal(bits(predict_batch(reg, Q)),
                                  bits([predict(reg, q) for q in Q]))

    def test_many_rows_peak_bounded(self):
        # 2^16 rows over 2^16 points, in chunks of 4096 rows that each
        # round their own rows over the limb prefix sums of their own span.
        # A batch that took the limbs of all n observations and held every
        # row's limb sums peaked at 7.6 MiB on this input (numpy 2.4).
        import tracemalloc

        rng = np.random.default_rng(59)
        n = 2 ** 16
        X = rng.random((n, 1))
        reg = make_regressor(Dataset(PointSet(X), rng.standard_normal(n)), 64)
        Q = rng.random((n, 1))
        tracemalloc.start()
        try:
            out = predict_batch(reg, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2 ** 20
        for q, got in zip(Q[::4096], out[::4096]):
            assert bits(got) == bits(predict(reg, q))

    def test_overflow_gets_the_oracle_answer(self):
        # Scaled by 2**600 most squared distances overflow to inf.  A row
        # whose k-th one is inf gets radius inf and every point as a member,
        # as the oracle does; rows among duplicates keep finite radii.
        rng = np.random.default_rng(47)
        vals = np.concatenate([rng.uniform(-1.0, 1.0, 60),
                               rng.integers(-3, 4, 40)])
        X = np.ldexp(vals, 600).reshape(-1, 1)
        Q = queries_1d(X[:, 0]).reshape(-1, 1)
        y = rng.standard_normal(100)
        with np.errstate(over="ignore"):
            for k in (1, 2, 5):
                reg = make_regressor(data1d(X[:, 0], y), k)
                scalar = [knn_query(reg.index, q, k) for q in Q]
                radii = np.array([ns.radius for ns in scalar])
                assert np.isinf(radii).any() and np.isfinite(radii).any()
                for q, ns in zip(Q, scalar):
                    oracle = brute_force_knn(X, q, k)
                    assert bits(ns.radius) == bits(oracle.radius)
                    assert np.array_equal(ns.member_indices,
                                          oracle.member_indices)
                assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                                      bits(radii))
                assert np.array_equal(bits(predict_batch(reg, Q)),
                                      bits([predict(reg, q) for q in Q]))


class TestChunkRounding:
    """Each batch chunk rounds its own rows: no _means call takes more
    than one chunk's rows, and a D = 1 chunk, a slice of the call's sorted
    queries, reads the observations over its own narrow span."""

    @pytest.mark.parametrize("dim, k, rows", [(1, 64, 2 ** 16),
                                              (2, 1, 40_000)])
    def test_no_means_call_rounds_more_than_a_chunk(self, monkeypatch, dim,
                                                    k, rows):
        # A row counts at least 16 entries, so a chunk holds at most
        # 2^16 // 16 = 4096 rows, in D = 1 and at a small D >= 2 k alike.
        real, sizes = neighbors._means, []

        def spy(sums, *args):
            sizes.append(sums.shape[1])
            return real(sums, *args)

        monkeypatch.setattr(neighbors, "_means", spy)
        rng = np.random.default_rng(67)
        reg = make_regressor(Dataset(PointSet(rng.random((4096, dim))),
                                     rng.standard_normal(4096)), k)
        Q = rng.random((rows, dim))
        out = predict_batch(reg, Q)
        assert sum(sizes) == rows
        assert max(sizes) <= neighbors._CHUNK_ENTRIES // 16
        monkeypatch.setattr(neighbors, "_means", real)
        for q, got in zip(Q[::4001], out[::4001]):
            assert bits(got) == bits(predict(reg, q))

    @pytest.mark.parametrize("k", [1, 9, 60])
    def test_sorted_chunks_read_each_observation_about_once(self,
                                                            monkeypatch, k):
        # 3000 shuffled queries over 6000 integer points with up to a few
        # dozen copies each, in chunks of 100 rows.  A chunk's runs start
        # at most one tied run left of its first row's window and end at
        # most one right of its last row's, and the windows of the call's
        # sorted rows move right only, so the chunks pass _limbs at most
        # n + chunks * (k + 2 * run) observations in all, run the longest
        # run of equal points.  Chunks of unsorted rows would each span
        # nearly all n.
        real, sizes = neighbors._limbs, []

        def recorder(values):
            sizes.append(values.size)
            return real(values)

        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 100 * 16)
        monkeypatch.setattr(neighbors, "_limbs", recorder)
        rng = np.random.default_rng(73)
        x = rng.integers(0, 300, 6000).astype(float)
        reg = make_regressor(data1d(x, rng.standard_normal(6000)), k)
        Q = rng.permutation(np.concatenate([x[:2000],
                                            rng.uniform(-5, 305, 1000)]))
        out = predict_batch(reg, Q)
        chunks = len(neighbors._chunks(len(Q), 1))
        run = np.unique(x, return_counts=True)[1].max()
        assert chunks == 30 and len(sizes) == chunks
        assert sum(sizes) <= len(x) + chunks * (k + 2 * run)
        monkeypatch.setattr(neighbors, "_limbs", real)
        for q, got in zip(Q[::97], out[::97]):
            assert bits(got) == bits(predict(reg, [q]))


def tie_data():
    """80 zeros (longer than the 1-D search's first step, 64, plus k), a
    run of integers and 30 duplicates of them: most queries tie."""
    rng = np.random.default_rng(41)
    X = np.concatenate([np.zeros(80), np.arange(1.0, 41.0),
                        rng.integers(1, 41, 30)]).reshape(-1, 1)
    return X, rng.standard_normal(150)


def lattice_queries(X):
    """Every sample point, each shifted by a half-step on the first axis
    and on all axes, and one point beyond each corner of the hull."""
    half = np.zeros(X.shape[1])
    half[0] = 0.5
    return np.vstack([X, X + half, X + 0.5, X.min(axis=0) - 1.5,
                      X.max(axis=0) + 1.5])


def assert_batch_equals_scalar(reg, Q):
    k = reg.k
    assert np.array_equal(bits(predict_batch(reg, Q)),
                          bits([predict(reg, q) for q in Q]))
    assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                          bits([knn_query(reg.index, q, k).radius
                                for q in Q]))


class InfTree:
    """A kd-tree whose query reports every neighbor distance of the
    queries marked by `marked(q)` as infinite."""

    def __init__(self, tree, marked):
        self.tree, self.marked = tree, marked

    def query(self, q, k):
        d, i = self.tree.query(q, k=k)
        d = np.array(d)
        d[self.marked(np.asarray(q))] = np.inf
        return d, i

    def __getattr__(self, name):
        return getattr(self.tree, name)


class TestTiedRows:
    """Rows that tie at the k-th distance are settled together, without a
    single-query call per row, and still get the scalar bits."""

    def test_only_nonfinite_rows_reach_knn_query(self, monkeypatch):
        X, y = tie_data()
        X2 = np.column_stack([X[:, 0], np.arange(150) % 2])
        calls = []
        monkeypatch.setattr(neighbors, "knn_query",
                            lambda *a: calls.append(1) or knn_query(*a))
        for pts, Q in ((X, queries_1d(X[:, 0])), (X2, lattice_queries(X2))):
            reg = make_regressor(Dataset(PointSet(pts), y), 9)
            tied = sum(brute_force_knn(pts, q, 9).count > 9 for q in Q)
            assert 0 < tied < len(Q)
            calls.clear()
            predict_batch(reg, Q)
            knn_radii(reg.index, Q, 9)
            assert calls == []
            assert_batch_equals_scalar(reg, Q)

        # In D >= 2 a row whose tree k-th distance is not finite bounds no
        # candidate set, so it alone takes knn_query.
        marked = lambda q: q[..., 1] == 0.5  # noqa: E731
        reg = make_regressor(Dataset(PointSet(X2), y), 9)
        reg = Regressor(reg.data, dataclasses.replace(
            reg.index, _tree=InfTree(reg.index._tree, marked)), 9)
        Q = lattice_queries(X2)
        calls.clear()
        got = predict_batch(reg, Q), knn_radii(reg.index, Q, 9)
        assert len(calls) == 2 * marked(Q).sum() > 0
        exact = make_regressor(Dataset(PointSet(X2), y), 9)
        assert np.array_equal(bits(got[0]),
                              bits([predict(exact, q) for q in Q]))
        assert np.array_equal(bits(got[1]),
                              bits([knn_query(exact.index, q, 9).radius
                                    for q in Q]))

    @given(st.sampled_from([2, 3]), st.data())
    @example(dim=2, data=None)
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_lattice_batch_equals_scalar_bitwise(self, dim, data):
        # Points drawn from a pool of at most six lattice sites, so
        # duplicates are the rule; the explicit example is n = 24 copies of
        # one point.
        if data is None:
            X, seed = np.zeros((24, dim)), 0
        else:
            site = st.tuples(*[st.integers(-2, 2)] * dim)
            pool = data.draw(st.lists(site, min_size=1, max_size=6))
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=1, max_size=24))
            X = np.asarray([pool[i] for i in picks], dtype=float)
            seed = data.draw(st.integers(0, 2 ** 32 - 1))
        n = X.shape[0]
        y = np.random.default_rng(seed).standard_normal(n)
        Q = lattice_queries(X)
        for k in range(1, n + 1):
            reg = make_regressor(Dataset(PointSet(X), y), k)
            assert_batch_equals_scalar(reg, Q)
            for q in Q:
                ns, oracle = knn_query(reg.index, q, k), brute_force_knn(X, q, k)
                assert bits(ns.radius) == bits(oracle.radius)
                assert np.array_equal(ns.member_indices, oracle.member_indices)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_swapped_coordinates_tie_in_10d(self, k, monkeypatch):
        # Each point a comes with b, a with coordinates 0 and 1 swapped.
        # From a query whose coordinates 0 and 1 are equal, their squared
        # distances, added left to right, start with the same first sum and
        # go on with equal terms, so they tie bit for bit: at odd k every
        # such row ties at the k-th distance and is settled by _tied_rows.
        # The other queries are random.
        rng = np.random.default_rng(k)
        A = rng.random((40, 10))
        X = np.vstack([A, A[:, [1, 0, *range(2, 10)]]])
        y = rng.standard_normal(80)
        Q = rng.random((60, 10))
        Q[:40, 1] = Q[:40, 0]
        reg = make_regressor(Dataset(PointSet(X), y), k)
        real, settled = neighbors._tied_rows, []
        monkeypatch.setattr(neighbors, "_tied_rows", lambda index, qs, *a:
                            settled.append(len(qs)) or real(index, qs, *a))
        scalar = []
        for q in Q:
            ns, oracle = knn_query(reg.index, q, k), brute_force_knn(X, q, k)
            assert bits(ns.radius) == bits(oracle.radius)
            assert np.array_equal(ns.member_indices, oracle.member_indices)
            scalar.append(ns)
        assert sum(ns.count > k for ns in scalar) >= 40
        assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                              bits([ns.radius for ns in scalar]))
        assert np.array_equal(bits(predict_batch(reg, Q)),
                              bits([predict(reg, q) for q in Q]))
        assert sum(settled) >= 2 * 40

    @pytest.mark.parametrize("path", ["predict_batch", "knn_radii"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_tied_peak_bounded(self, dim, path):
        # Every row ties with all n points at k = 1.
        import tracemalloc

        y = np.random.default_rng(43).standard_normal(4096)
        reg = make_regressor(Dataset(PointSet(np.zeros((4096, dim))), y), 1)
        call = {"predict_batch": lambda: predict_batch(reg, reg.data.x.points),
                "knn_radii": lambda: knn_radii(reg.index, reg.data.x.points,
                                               1)}[path]
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        want = exact_mean(y) if path == "predict_batch" else 0.0
        assert np.array_equal(out, np.full(4096, want))


def tie_lattice(dim, side, seed):
    """The integer lattice {0..side-1}^dim with a random half of its points
    three times over: most rows tie at the k-th distance."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(*[np.arange(side, dtype=float)] * dim),
                    axis=-1).reshape(-1, dim)
    twice = grid[rng.permutation(len(grid))[:len(grid) // 2]]
    X = np.vstack([grid, twice, twice])
    return X, rng.standard_normal(len(X))


class TestParallelBatch:
    """A batch call's chunks run at once on the usable CPUs, or in a loop
    on one CPU or inside a pool worker, with the same bits either way."""

    @pytest.fixture
    def chunk_calls(self, monkeypatch):
        """The items of each _map_on_cpus call the batch kernel makes."""
        calls = []
        real = neighbors._map_on_cpus

        def spy(fn, items):
            calls.append(items)
            return real(fn, items)

        monkeypatch.setattr(neighbors, "_map_on_cpus", spy)
        return calls

    @pytest.mark.parametrize("case", ["lattice-2", "lattice-3",
                                      "uniform-2", "uniform-10"])
    def test_every_cpu_count_gives_scalar_bits(self, case, monkeypatch,
                                                force_cpus, thread_starts,
                                                chunk_calls):
        # Chunks of 64 entries hold 4 rows (a row counts at least 16
        # entries), so every call spans many chunks; eight workers switch
        # threads as often as the interpreter allows.
        import sys

        kind, dim = case.split("-")
        dim, k = int(dim), 7
        if kind == "lattice":
            X, y = tie_lattice(dim, {2: 10, 3: 5}[dim], dim)
            Q = lattice_queries(X)
        else:
            rng = np.random.default_rng(dim)
            X, y = rng.random((300, dim)), rng.standard_normal(300)
            Q = rng.random((150, dim))
        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 64)
        reg = make_regressor(Dataset(PointSet(X), y), k)
        want = (bits([predict(reg, q) for q in Q]),
                bits([knn_query(reg.index, q, k).radius for q in Q]))
        if kind == "lattice":
            tied = sum(brute_force_knn(X, q, k).count > k for q in Q)
            assert tied > len(Q) / 2
        interval = sys.getswitchinterval()
        for cpus in (1, 2, 8):
            force_cpus(cpus)
            del thread_starts[:], chunk_calls[:]
            sys.setswitchinterval(1e-6 if cpus == 8 else interval)
            try:
                got = predict_batch(reg, Q), knn_radii(reg.index, Q, k)
            finally:
                sys.setswitchinterval(interval)
            assert [len(items) for items in chunk_calls] == \
                [-(-len(Q) // 4)] * 2
            assert bool(thread_starts) == (cpus > 1)
            assert np.array_equal(bits(got[0]), want[0])
            assert np.array_equal(bits(got[1]), want[1])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_one_chunk_or_none_starts_no_thread(self, dim, force_cpus,
                                                thread_starts, chunk_calls):
        # At k = 16 a D = 2 chunk holds 2^16 // 17 = 3855 rows, a D = 1
        # chunk 2^16 // 16 = 4096 (a row counts at least 16 entries); one
        # row more makes two chunks of balanced sizes.
        force_cpus(2)
        rng = np.random.default_rng(59)
        reg = make_regressor(Dataset(PointSet(rng.random((500, dim))),
                                     rng.standard_normal(500)), 16)
        cap = 3855 if dim == 2 else 2 ** 12
        for rows in (0, 1, cap):
            Q = rng.random((rows, dim))
            got = predict_batch(reg, Q), knn_radii(reg.index, Q, 16)
            assert got[0].shape == got[1].shape == (rows,)
        assert thread_starts == []
        del chunk_calls[:]
        Q = rng.random((cap + 1, dim))
        got = predict_batch(reg, Q)
        assert chunk_calls == [range(0, cap + 1, cap // 2 + 1)]
        # The caller runs one chunk, and one helper the other.
        assert len(thread_starts) == 1
        force_cpus(1)
        assert np.array_equal(bits(predict_batch(reg, Q)), bits(got))

    def test_study_pools_never_nest(self, monkeypatch, force_cpus,
                                    thread_starts, chunk_calls):
        # Four manifold trials on two CPUs, each of whose batch calls spans
        # several chunks: only the trial pool's one helper starts.
        from knnrates import build_config, records_to_csv, run_experiment

        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 2 ** 8)
        cfg = build_config({
            "experiment.kind": "regression", "seed.master": "13",
            "ladder.n": "256", "trial.seeds_per_n": "4",
            "k.values": "16", "probes.cells": "256",
            "noise.kind": "gaussian", "noise.scale": "0.1",
            "manifold.kind": "circle", "manifold.ambient_dim": "4",
            "manifold.radius": "0.15915494309189535",
            "manifold.rotate": "true", "manifold.rotation_seed": "7"})
        force_cpus(1)
        serial = records_to_csv(run_experiment(cfg))
        force_cpus(2)
        del thread_starts[:], chunk_calls[:]
        assert records_to_csv(run_experiment(cfg)) == serial
        assert len(thread_starts) == 1
        assert len(chunk_calls) >= 4
        assert all(len(items) > 1 for items in chunk_calls)

    @pytest.mark.parametrize("path", ["predict_batch", "knn_radii"])
    def test_failing_chunk_raises_as_serial(self, path, monkeypatch,
                                            force_cpus):
        # The last rows, scaled by 2^600, overflow the tree's distances and
        # take knn_query, where scipy raises; the earlier chunks succeed.
        import threading

        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 64)
        rng = np.random.default_rng(61)
        reg = make_regressor(Dataset(PointSet(rng.random((300, 2))),
                                     rng.standard_normal(300)), 7)
        Q = rng.random((100, 2))
        Q[90:] *= 2.0 ** 600
        call = {"predict_batch": lambda: predict_batch(reg, Q),
                "knn_radii": lambda: knn_radii(reg.index, Q, 7)}[path]
        errors = []
        for cpus in (1, 2, 8):
            force_cpus(cpus)
            before = threading.active_count()
            with pytest.raises(Exception) as info:
                call()
            errors.append((type(info.value), str(info.value)))
            assert threading.active_count() == before
        assert errors[0][0] is ValueError
        assert errors[1] == errors[2] == errors[0]

    def test_caller_errstate_holds_in_workers(self, monkeypatch, force_cpus):
        # Squared distances overflow in every chunk of 16 rows of this 1-D
        # call: the caller's np.errstate decides what that does on every
        # thread.
        monkeypatch.setattr(neighbors, "_CHUNK_ENTRIES", 16 * 16)
        xs = np.ldexp(np.arange(-40.0, 40.0), 1000)
        reg = make_regressor(data1d(xs, np.ones(80)), 3)
        for cpus in (1, 2):
            force_cpus(cpus)
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    knn_radii(reg.index, xs, 3)
            with np.errstate(over="ignore"):
                assert np.isinf(knn_radii(reg.index, xs, 3)).all()


@st.composite
def wide_range_data(draw, dim):
    """Points from a pool of at most eight sites (lattice or continuous
    coordinates), so both tie-free and tied rows occur, and observations
    over the whole finite range: subnormals, signed zeros, the largest
    finite values, and pairs y, -y that cancel."""
    coord = st.one_of(st.integers(-2, 2).map(float), st.floats(-2.0, 2.0))
    pool = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=24))
    n = len(picks)
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, 1.0, -3.0]))
    y = draw(st.lists(value, min_size=n, max_size=n))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=n)):
        y[j] = -y[i]
    return np.asarray([pool[i] for i in picks], dtype=float), np.asarray(y)


# Four points on a line with y = 1e308, 1, -1e308, 3: at the query (1, 0)
# k = 3 is a tie-free row and k = 2 a tied one, and a float sum of either
# set cancels the 1 away.  With y reversed the same holds at (2, 0), a
# query the test sends to the knn_query fallback.
LINE = np.column_stack([np.arange(4.0), np.zeros(4)])
LINE_Y = np.array([1e308, 1.0, -1e308, 3.0])


class TestExactMeans:
    """Every prediction path returns the correctly rounded mean of its
    neighbor set's observations: the exact sum over the member count,
    rounded once."""

    @given(st.sampled_from([1, 2, 3]).flatmap(wide_range_data),
           st.integers(min_value=1, max_value=24))
    @example(data=(LINE[:, :1], LINE_Y), k_pick=3)
    @example(data=(LINE[:, :1], LINE_Y), k_pick=2)
    @example(data=(LINE, LINE_Y), k_pick=3)
    @example(data=(LINE, LINE_Y), k_pick=2)
    @example(data=(np.column_stack([LINE, LINE[:, :1]]), LINE_Y), k_pick=2)
    @example(data=(LINE, LINE_Y[::-1]), k_pick=3)
    # 300 examples, ten times that under --hypothesis-profile=deep.
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    def test_every_path_equals_exact_oracle(self, data, k_pick):
        X, y = data
        n, dim = X.shape
        k = (k_pick - 1) % n + 1
        reg = make_regressor(Dataset(PointSet(X), y), k)
        Q = lattice_queries(X)
        want = bits([exact_mean(y[brute_force_knn(X, q, k).member_indices])
                     for q in Q])
        assert np.array_equal(bits([predict(reg, q) for q in Q]), want)
        assert np.array_equal(bits(predict_batch(reg, Q)), want)
        if dim > 1:
            # Rows whose tree k-th distance reads infinite take the
            # knn_query fallback; mark the queries right of the median.
            cut = np.median(Q[:, 0])
            blind = Regressor(reg.data, dataclasses.replace(
                reg.index, _tree=InfTree(reg.index._tree,
                                         lambda q: q[..., 0] > cut)), k)
            assert np.array_equal(bits(predict_batch(blind, Q)), want)


def limb_sums(S, n, L, shuffle=0, seed=0):
    """S as L limb sums of bits = 63 - n.bit_length() bits, the scale of
    _limbs over n observations: the digits of |S| with S's sign, then
    `shuffle` random moves of one unit between neighboring limbs (S is
    unchanged), so the limbs carry mixed signs and values past 2**bits, as
    member sums do."""
    bits = 63 - n.bit_length()
    sign, mag = (1 if S >= 0 else -1), abs(S)
    digits = [sign * ((mag >> (bits * l)) & ((1 << bits) - 1))
              for l in range(L - 1)] + [sign * (mag >> (bits * (L - 1)))]
    rng = np.random.default_rng(seed)
    for _ in range(shuffle if L > 1 and n > 4 else 0):
        l, c = int(rng.integers(0, L - 1)), int(rng.integers(-1, 2))
        digits[l] += c << bits
        digits[l + 1] -= c
    assert all(abs(d) <= n * ((1 << bits) - 1) for d in digits)
    return digits


def fraction_mean(S, m, e):
    return float(Fraction(S) * Fraction(2) ** e / m)


def assert_means(cases, n, L, e):
    """_means over the rows (S, m) equals float(Fraction(S) * 2**e / m) bit
    for bit, from plain and from shuffled limbs.  The counts go in as an
    array, and the rows of each count m also on their own with m as one
    scalar count, as predict passes it."""
    counts = np.array([m for _, m in cases], dtype=np.int64)
    want = bits([fraction_mean(S, m, e) for S, m in cases])
    for shuffle in (0, 3):
        sums = np.array([limb_sums(S, n, L, shuffle, seed=i)
                         for i, (S, _) in enumerate(cases)],
                        dtype=np.int64).T.reshape(L, -1)
        got = neighbors._means(sums, counts, 63 - n.bit_length(), e)
        assert np.array_equal(bits(got), want), (cases, e)
        for m in set(counts.tolist()):
            rows = counts == m
            got = neighbors._means(sums[:, rows], m, 63 - n.bit_length(), e)
            assert np.array_equal(bits(got), want[rows]), (cases, e, m)


class TestMeansRounding:
    """_means, the one rounding of every k-NN mean (scalar predict and
    every batch row), at its rounding edges, against
    float(Fraction(S) / m): ties to even, signed zeros, the subnormal
    boundary and underflow, many limbs and large counts."""

    N = 2 ** 20

    def test_exact_midpoints_round_to_even(self):
        # (2M + 1) / 2 lies half-way between the integers M and M + 1 of
        # the binade [2**52, 2**53): M even stays, M odd rounds up.  Just
        # off the midpoint it rounds to the nearer one.
        cases = []
        for M in (2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1,
                  2 ** 52 + 12345, 2 ** 52 + 12346):
            for m in (1, 3, 1000, self.N - 1):
                cases += [(m * (2 * M + 1), m), (-m * (2 * M + 1), m),
                          (m * (2 * M + 1) + 1, m), (m * (2 * M + 1) - 1, m)]
        assert_means(cases, self.N, 3, -1)
        # The same in the subnormals: (2j + 1) * 2**-1075.
        cases = [(m * (2 * j + 1) << 60, m) for j in (0, 1, 2, 3, 2 ** 51)
                 for m in (1, 7, self.N)]
        assert_means(cases, self.N, 3, -1135)

    def test_cancelling_and_negative_sums(self):
        # S = 0 from nonzero limbs is +0.0; a negative S that underflows
        # keeps its sign.
        bits_ = 63 - self.N.bit_length()
        B = 1 << bits_
        sums = np.array([[B, -1, 0], [-B, 1, 0], [0, B, -1],
                         [B, B - 1, -1], [0, 0, 0]], dtype=np.int64).T
        got = neighbors._means(sums, np.array([1, 3, 7, 9, 11]), bits_, -20)
        assert np.array_equal(bits(got), bits([0.0] * 5))
        cases = [(-S, m) for S in (1, 3, 2 ** 80 + 1, 2 ** 100 - 1)
                 for m in (1, 2, 3, self.N)]
        assert_means(cases, self.N, 3, -10)
        assert_means(cases, self.N, 3, -1140)

    def test_subnormal_boundary_and_underflow(self):
        # 2**e * S / m near 2**-1022 (the smallest normal) and 2**-1074
        # (the smallest subnormal), with e = -1100: 2**-1022 is m * 2**78,
        # 2**-1074 is m * 2**26.
        cases = []
        for m in (1, 3, 1000, self.N):
            for S in (2 ** 78, 2 ** 78 - 1, 2 ** 78 + 1, 2 ** 78 - 2 ** 26,
                      2 ** 78 - 2 ** 25, 2 ** 78 + 2 ** 25, 2 ** 78 + 2 ** 26,
                      2 ** 26, 2 ** 25, 2 ** 25 + 1, 2 ** 25 - 1, 2 ** 24,
                      3 * 2 ** 25, 1):
                cases += [(m * S, m), (m * S + 1, m), (m * S - 1, m),
                          (-m * S, m)]
        assert_means(cases, self.N, 3, -1100)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 7])
    def test_limbs_and_counts(self, L):
        rand = random.Random(L)
        for n in (1, 2, 1000, self.N):
            top = (63 - n.bit_length()) * L
            cases = [(rand.choice([-1, 1]) *
                      rand.getrandbits(rand.randint(1, top)),
                      rand.randint(1, n)) for _ in range(40)]
            for e in (-1200, -1074, -60, 0, 500 - top):
                assert_means(cases, n, L, e)

    def test_zero_rows(self):
        got = neighbors._means(np.zeros((3, 0), dtype=np.int64),
                               np.zeros(0, dtype=np.int64), 42, -5)
        assert got.shape == (0,) and got.dtype == np.float64

    @given(st.sampled_from([1, 2, 100, 2 ** 16, 2 ** 20]), st.data())
    @settings(deadline=None)
    def test_random_rows_equal_fraction(self, n, data):
        L = data.draw(st.integers(1, 5))
        bits_ = 63 - n.bit_length()
        bound = n * ((1 << bits_) - 1)
        rows = data.draw(st.integers(0, 6))
        sums = np.array(data.draw(st.lists(
            st.lists(st.integers(-bound, bound), min_size=rows,
                     max_size=rows), min_size=L, max_size=L)),
            dtype=np.int64).reshape(L, rows)
        counts = np.array(data.draw(st.lists(st.integers(1, n),
                                             min_size=rows, max_size=rows)),
                          dtype=np.int64)
        e = data.draw(st.integers(-1300, 900 - bits_ * L))
        want = [fraction_mean(sum(int(v) << (bits_ * l)
                                  for l, v in enumerate(sums[:, i])),
                              int(counts[i]), e) for i in range(rows)]
        assert np.array_equal(bits(neighbors._means(sums, counts, bits_, e)),
                              bits(want))


@st.composite
def window_data(draw):
    """Sorted-order data for the 1-D window start: small integers with
    duplicates, in unit steps, in subnormal steps, or in steps of one ulp
    below +-1.7e308, where (a + b) / 2 of two points overflows.  Queries
    are the points, the midpoints between neighbors and one point beyond
    each end."""
    ints = np.asarray(draw(st.lists(st.integers(0, 6), min_size=1,
                                    max_size=30)), dtype=float)
    kind = draw(st.sampled_from(["unit", "subnormal", "huge"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if kind == "unit":
        step, base = 1.0, -3.0
    elif kind == "subnormal":
        step, base = draw(st.sampled_from([2.0 ** -1074, 2.0 ** -1071])), 0.0
    else:
        step, base = 2.0 ** 971, 1.7e308
    vals = sign * (base - ints * step)
    xs = np.unique(vals)
    Q = np.concatenate([vals, 0.5 * xs[:-1] + 0.5 * xs[1:],
                        [xs[0] - step, xs[-1] + step]])
    return vals, Q


class TestWindowStart:
    """The 1-D batch kernel's window start from the midpoint search, once
    certified by the exact test, gives the scalar loop's bits, and adds no
    overflow of its own."""

    # The midpoint of 1 and 2**53 + 2 rounds to 2**52 + 2, so the search
    # puts the query 2**52 + 2 left of it, while its squared distance to 1
    # is the larger: the window starts at 1, not 0.
    WRONG_GUESS = (np.array([1.0, 2.0 ** 53 + 2]), np.array([2.0 ** 52 + 2]))

    def test_midpoint_guess_can_be_wrong(self):
        xs, q = self.WRONG_GUESS
        guess = np.searchsorted(0.5 * xs[:1] + 0.5 * xs[1:], q)
        assert guess[0] == 0 and neighbors._windows(xs, q, 1)[0][0] == 1

    @given(window_data(), st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(data=WRONG_GUESS, k_pick=1, seed=0)
    @example(data=(np.full(5, 1.7e308), np.full(2, 1.7e308)), k_pick=2,
             seed=0)
    @settings(deadline=None)
    def test_batch_equals_scalar(self, data, k_pick, seed):
        vals, Q = data
        n = vals.size
        k = (k_pick - 1) % n + 1
        y = np.random.default_rng(seed).standard_normal(n)
        reg = make_regressor(data1d(vals, y), k)
        with np.errstate(over="ignore"):
            quiet = np.isfinite(np.subtract.outer(Q, vals) ** 2).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # Squared distances that overflow warn on the scalar path too;
            # only inputs without one show that the search adds none.
            with np.errstate(over="warn" if quiet else "ignore"):
                got = predict_batch(reg, Q), knn_radii(reg.index, Q, k)
                want = ([predict(reg, [q]) for q in Q],
                        [knn_query(reg.index, [q], k).radius for q in Q])
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(bits(got[1]), bits(want[1]))


def shuffle_ties(index, rng):
    """The 1-D index with its order permuted at random within every run of
    equal coordinates (-0.0 and 0.0 included)."""
    xs, order = index._xs, index._order.copy()
    edges = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    for a, b in zip(edges[:-1], edges[1:]):
        order[a:b] = rng.permutation(order[a:b])
    order.setflags(write=False)
    return dataclasses.replace(index, _order=order)


class TestTieOrder:
    """No 1-D output depends on how the index orders equal coordinates, so
    build_index may take numpy's default (unstable) sort."""

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_ties_change_no_bit(self, seed, monkeypatch):
        import knnrates.regression as regression

        rng = np.random.default_rng(seed)
        X = rng.choice([-2.0, -0.0, 0.0, 1.0, 1.5, 3.0], 60).reshape(-1, 1)
        # Observations of many magnitudes, so float sums depend on order.
        y = rng.standard_normal(60) * 10.0 ** rng.integers(-8, 9, 60)
        shuffled = []

        def build_shuffled(points):
            index = shuffle_ties(neighbors.build_index(points), rng)
            shuffled.append(index._order)
            return index

        monkeypatch.setattr(regression, "build_index", build_shuffled)
        Q = lattice_queries(X)
        for k in (1, 7, 20, 60):
            reg = make_regressor(Dataset(PointSet(X), y), k)
            want = [brute_force_knn(X, q, k) for q in Q]
            assert np.array_equal(
                bits(predict_batch(reg, Q)),
                bits([exact_mean(y[ns.member_indices]) for ns in want]))
            assert np.array_equal(bits(knn_radii(reg.index, Q, k)),
                                  bits([ns.radius for ns in want]))
            for q, ns in zip(Q, want):
                got = knn_query(reg.index, q, k)
                assert got.radius == ns.radius
                assert np.array_equal(got.member_indices, ns.member_indices)
            preds = predict_batch(reg, X)
            level = preds[rng.integers(60)]
            assert np.array_equal(estimate_level_set(reg, level, 0.0),
                                  np.flatnonzero(preds >= level))
            assert estimate_maxima(reg) == np.argmax(preds)
        # The shuffle moved some tied points.
        base = neighbors.build_index(PointSet(X))._order
        assert any(not np.array_equal(o, base) for o in shuffled)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["predict", "predict_batch", "knn_radii"])
def test_nonfinite_query_gets_package_error(path, bad):
    rng = np.random.default_rng(3)
    reg = make_regressor(Dataset(PointSet(rng.random((100, 2))),
                                 rng.standard_normal(100)), 5)
    call = {"predict": lambda q: predict(reg, q[0]),
            "predict_batch": lambda q: predict_batch(reg, q),
            "knn_radii": lambda q: knn_radii(reg.index, q, 5)}[path]
    with pytest.raises(ValueError,
                       match="^query contains non-finite coordinates$"):
        call(np.array([[0.5, bad]]))


# Malformed query arrays on a 1-D and a 2-D index: each path raises the
# package's own ValueError, not an IndexError or a numpy or scipy error.
@pytest.mark.parametrize("dim, shape", [
    (1, (4, 1, 1)), (1, (2, 2)), (1, (1, 1, 1)), (2, ()), (2, (3, 2, 1)),
    (2, (3,)), (2, (2, 1)), (2, (1, 1, 2)), (2, (4, 3))])
@pytest.mark.parametrize("path", ["predict", "predict_batch", "knn_radii",
                                  "knn_query", "brute_force_knn"])
def test_malformed_query_gets_package_error(path, dim, shape):
    rng = np.random.default_rng(5)
    reg = make_regressor(Dataset(PointSet(rng.random((40, dim))),
                                 rng.standard_normal(40)), 3)
    call = {"predict": lambda q: predict(reg, q),
            "predict_batch": lambda q: predict_batch(reg, q),
            "knn_radii": lambda q: knn_radii(reg.index, q, 3),
            "knn_query": lambda q: knn_query(reg.index, q, 3),
            "brute_force_knn": lambda q: brute_force_knn(reg.data.x, q, 3)}
    with pytest.raises(ValueError, match="^query array of shape "):
        call[path](np.full(shape, 0.5))


def test_accepted_query_shapes_agree():
    # (m, D) arrays, flat ones of m * D coordinates and lists give the same
    # rows; on a 1-D index a 0-d query is one row, for predict as for the
    # batch.
    rng = np.random.default_rng(6)
    for dim in (1, 2):
        reg = make_regressor(Dataset(PointSet(rng.random((40, dim))),
                                     rng.standard_normal(40)), 3)
        Q = rng.random((5, dim))
        want = np.array([predict(reg, q) for q in Q])
        for form in (Q, Q.reshape(-1), Q.tolist(), Q.reshape(-1).tolist()):
            assert np.array_equal(predict_batch(reg, form), want)
            assert np.array_equal(knn_radii(reg.index, form, 3),
                                  [knn_query(reg.index, q, 3).radius
                                   for q in Q])
        assert predict(reg, Q[:1]) == predict(reg, Q[0].tolist()) == want[0]
        if dim == 1:
            q = np.float64(Q[0, 0])
            assert predict(reg, q) == want[0]
            assert predict_batch(reg, q).tolist() == [want[0]]


class TestEquivariances:
    def test_scaling_by_power_of_two_exact(self):
        rng = np.random.default_rng(2)
        ds = Dataset(PointSet(rng.random((50, 1))), rng.standard_normal(50))
        reg = make_regressor(ds, 8)
        scaled = make_regressor(Dataset(ds.x, 4.0 * ds.y), 8)
        for q in rng.random((20, 1)):
            assert predict(scaled, q) == 4.0 * predict(reg, q)

    def test_affine_exact_on_dyadic_data(self):
        # Dyadic observations + power-of-two member counts make the whole
        # prediction pipeline exact, so a*y + b must commute exactly.
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = dyadic_dataset(rng, 32, 2)
            k = int(rng.choice([1, 2, 4, 8, 16]))
            a = float(rng.integers(1, 32)) / 16.0
            b = float(rng.integers(-2 ** 10, 2 ** 10)) / 64.0
            reg = make_regressor(ds, k)
            mapped = make_regressor(Dataset(ds.x, a * ds.y + b), k)
            for q in rng.random((10, 2)):
                assert knn_query(reg.index, q, k).count == k  # no ties
                assert predict(mapped, q) == a * predict(reg, q) + b

    def test_permutation_invariance_on_dyadic_data(self):
        rng = np.random.default_rng(4)
        ds = dyadic_dataset(rng, 40, 1)
        perm = rng.permutation(40)
        permuted = Dataset(PointSet(ds.x.points[perm]), ds.y[perm])
        reg, preg = make_regressor(ds, 5), make_regressor(permuted, 5)
        for q in rng.random((25, 1)):
            assert predict(reg, q) == predict(preg, q)


class TestKnnRadius:
    def test_sample_point_k1_is_zero(self):
        ds = data1d([0.1, 0.5, 0.9], [0.0, 0.0, 0.0])
        reg = make_regressor(ds, 1)
        for v in (0.1, 0.5, 0.9):
            assert knn_query(reg.index, [v], 1).radius == 0.0

    def test_hand_case(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [0.0] * 3), 2)
        assert knn_query(reg.index, [0.9], 2).radius == \
            pytest.approx(0.9, abs=0)


class TestSupError:
    def test_zero_noise_constant_field(self):
        fld = make_field("constant", value=2.5, dim=1)
        xs = np.linspace(0, 1, 50)
        reg = make_regressor(data1d(xs, fld.evaluate(xs.reshape(-1, 1))), 7)
        assert sup_error(reg, fld, PointSet(np.linspace(0, 1, 101))) == 0.0

    def test_zero_noise_k1_interpolates_at_samples(self):
        rng = np.random.default_rng(8)
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0)
        for _ in range(10):
            x = rng.random((40, 1))
            reg = make_regressor(Dataset(PointSet(x),
                                         fld.evaluate(x)), 1)
            assert sup_error(reg, fld, PointSet(x)) == 0.0

    def test_probe_subset_never_exceeds_superset(self):
        rng = np.random.default_rng(9)
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0)
        x = rng.random((100, 1))
        reg = make_regressor(Dataset(PointSet(x), fld.evaluate(x)), 5)
        big = np.linspace(0, 1, 201).reshape(-1, 1)
        small = big[::4]
        assert sup_error(reg, fld, PointSet(small)) <= \
            sup_error(reg, fld, PointSet(big))

    def test_bias_bounded_by_lipschitz_radius(self):
        # Zero noise, 1-Lipschitz-scaled field: |f_k - f| <= slope * r_k.
        rng = np.random.default_rng(10)
        fld = make_field("tent", center=(0.4,), slope=3.0, peak=1.0)
        x = rng.random((200, 1))
        reg = make_regressor(Dataset(PointSet(x), fld.evaluate(x)), 9)
        for q in rng.random((50, 1)):
            err = abs(predict(reg, q) - fld.evaluate(q))
            assert err <= 3.0 * knn_query(reg.index, q, 9).radius + 1e-12

    def test_argmax_probe_reported(self):
        # The sup is the largest probe error, taken from the same batch
        # predictions, not the first or the last probe's.
        rng = np.random.default_rng(11)
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0)
        x = rng.random((60, 1))
        reg = make_regressor(Dataset(PointSet(x), rng.standard_normal(60)), 3)
        probes = np.linspace(0, 1, 41).reshape(-1, 1)
        per = np.abs(predict_batch(reg, probes) - fld.evaluate(probes))
        assert 0 < np.argmax(per) < 40
        got = sup_error(reg, fld, PointSet(probes))
        assert type(got) is float and got == per.max()


class TestRegressorValidation:
    def test_k_out_of_range(self):
        ds = data1d([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            make_regressor(ds, 0)
        with pytest.raises(ValueError):
            make_regressor(ds, 3)

    def test_y_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(PointSet(np.array([0.0, 1.0])), np.array([1.0]))

    def test_nonfinite_y_rejected(self):
        with pytest.raises(ValueError):
            Dataset(PointSet(np.array([0.0, 1.0])), np.array([1.0, np.inf]))
