"""Structure estimator tests: level sets, Hausdorff metric (indexed vs
double-loop oracle), maxima, and the distinct-neighbor-set counter."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import knnrates.neighbors as neighbors
import knnrates.structures as structures
from knnrates import (Dataset, PointSet, brute_force_knn,
                      count_distinct_knn_sets, estimate_level_set,
                      estimate_maxima, hausdorff_distance,
                      hausdorff_distance_bruteforce, knn_set_count_bound,
                      make_field, make_regressor, predict_batch, ScalarField,
                      true_level_set_grid, uniform_grid)


def data1d(xs, ys):
    return Dataset(PointSet(np.asarray(xs, dtype=float)),
                   np.asarray(ys, dtype=float))


class TestLevelSet:
    def test_huge_epsilon_takes_all(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [0.0, 5.0, -3.0]), 1)
        assert list(estimate_level_set(reg, 100.0, 1e9)) == [0, 1, 2]

    def test_zero_noise_k1_hand_case(self):
        # f(x) = x at samples {0.1, 0.5, 0.9}: threshold 0.5 keeps the top two
        xs = [0.1, 0.5, 0.9]
        reg = make_regressor(data1d(xs, xs), 1)
        members = estimate_level_set(reg, 0.5, 0.0)
        assert list(members) == [1, 2]
        assert np.allclose(reg.data.x.points[members, 0], [0.5, 0.9])

    def test_very_low_level_takes_all(self):
        reg = make_regressor(data1d([0.0, 1.0], [3.0, -7.0]), 1)
        assert estimate_level_set(reg, -1e12, 0.0).size == 2

    def test_threshold_tie_included(self):
        reg = make_regressor(data1d([0.0, 1.0], [1.0, 0.0]), 1)
        assert list(estimate_level_set(reg, 1.0, 0.0)) == [0]

    def test_monotone_in_level_and_epsilon(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(5, 40))
            ds = Dataset(PointSet(rng.random((n, 2))), rng.standard_normal(n))
            reg = make_regressor(ds, int(rng.integers(1, n + 1)))
            lam1, lam2 = sorted(rng.standard_normal(2))
            eps1, eps2 = sorted(rng.random(2))
            hi = set(estimate_level_set(reg, lam2, eps1))
            lo = set(estimate_level_set(reg, lam1, eps1))
            assert hi <= lo
            small = set(estimate_level_set(reg, lam1, eps1))
            big = set(estimate_level_set(reg, lam1, eps2))
            assert small <= big

    def test_returns_ascending_integer_indices(self):
        rng = np.random.default_rng(10)
        ds = Dataset(PointSet(rng.random((60, 2))), rng.standard_normal(60))
        members = estimate_level_set(make_regressor(ds, 4), 0.0, 0.1)
        assert members.ndim == 1 and members.dtype.kind == "i"
        assert 0 < members.size < 60
        assert (np.diff(members) > 0).all()

    def test_negative_epsilon_rejected(self):
        reg = make_regressor(data1d([0.0, 1.0], [0.0, 1.0]), 1)
        with pytest.raises(ValueError):
            estimate_level_set(reg, 0.0, -0.1)

    @pytest.mark.parametrize("level, epsilon", [
        (np.nan, 0.0), (0.0, np.nan), (np.inf, np.inf)])
    def test_nan_threshold_rejected(self, level, epsilon):
        # level - epsilon is NaN in each case.
        reg = make_regressor(data1d([0.0, 1.0], [0.0, 1.0]), 1)
        with pytest.raises(ValueError):
            estimate_level_set(reg, level, epsilon)


@st.composite
def estimator_data(draw):
    """1-D or 2-D samples on a small lattice (most rows tie) or continuous,
    with observations that are random, constant, subnormal, near 1e300, or
    near the largest float (their prefix sums overflow), and a level that
    is some row's exact prediction, one ulp off it, or at random."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, 4, (n, dim)).astype(float)
    else:
        X = rng.random((n, dim))
    kind = draw(st.sampled_from(["normal", "constant", "subnormal", "1e300",
                                 "huge", "wide"]))
    y = {"normal": rng.standard_normal(n),
         "constant": np.full(n, rng.standard_normal()),
         "subnormal": rng.integers(-5, 6, n) * 5e-324,
         "1e300": 1e300 * rng.standard_normal(n),
         "huge": 1.7e308 * rng.choice([-1.0, 1.0, 1.0], n),
         "wide": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
         }[kind]
    k = draw(st.integers(1, n))
    reg = make_regressor(Dataset(PointSet(X), y), k)
    preds = predict_batch(reg, X)
    level = draw(st.sampled_from(preds.tolist()))
    step = draw(st.sampled_from(["exact", "down", "up", "random"]))
    if step == "random":
        level = draw(st.floats(allow_nan=False))
    elif step != "exact":
        level = float(np.nextafter(level, np.inf if step == "up" else -np.inf))
    return reg, preds, level


def tied_constant():
    """Constant y on a lattice: every prediction ties at the level."""
    reg = make_regressor(data1d([0.0, 1.0, 1.0, 2.0, 3.0], [0.75] * 5), 2)
    return reg, predict_batch(reg, reg.data.x.points), 0.75


class TestFilteredEstimators:
    """The level set and the argmax settled from bounded float means equal
    thresholding and np.argmax over every exact prediction."""

    @given(estimator_data())
    @example(data=tied_constant())
    # 200 examples, ten times that under --hypothesis-profile=deep.
    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    def test_equal_exact_decisions(self, data):
        reg, preds, level = data
        lower, upper = structures._sample_bounds(reg.index, reg.data.y, reg.k)
        assert (lower <= preds).all() and (preds <= upper).all()
        assert np.array_equal(estimate_level_set(reg, level, 0.0),
                              np.flatnonzero(preds >= level))
        assert estimate_maxima(reg) == np.argmax(preds)

    def test_smooth_data_settles_few_rows_exactly(self, monkeypatch):
        # On a smooth 1-D sample the bounds decide almost every row; the
        # maxima still predicts at least one row through predict_batch.
        rng = np.random.default_rng(9)
        x = rng.random(4000)
        reg = make_regressor(data1d(x, np.sin(6 * x) + rng.standard_normal(
            4000)), 200)
        rows = []

        def counting(reg, queries):
            rows.append(len(queries))
            return predict_batch(reg, queries)

        monkeypatch.setattr(structures, "predict_batch", counting)
        preds = predict_batch(reg, reg.data.x.points)
        assert np.array_equal(estimate_level_set(reg, 0.5, 0.0),
                              np.flatnonzero(preds >= 0.5))
        assert estimate_maxima(reg) == np.argmax(preds)
        assert 1 <= rows[-1] and sum(rows) < 40

    def test_bound_pass_in_chunks(self, monkeypatch):
        # n = 2^18 sample points in the default chunks of 4,096 rows.  The
        # pass keeps the prefix sums, the window midpoints, both bounds
        # and, while it sums them, the observations in sorted order, 8
        # bytes a point each: a traced 10.0 MiB with numpy 2.4, against
        # 15.2 MiB with chunks of 2^16 rows and 24.3 MiB when its runs and
        # bounds took every row at once.  The chunked bounds are the
        # one-chunk bounds bit for bit.
        import tracemalloc

        rng = np.random.default_rng(71)
        n = 2 ** 18
        x = rng.random(n)
        y = np.sin(6 * x) + rng.standard_normal(n)
        reg = make_regressor(data1d(x, y), 500)
        with monkeypatch.context() as patch:
            patch.setattr(neighbors, "_CHUNK_ENTRIES", 16 * n)
            whole = structures._sample_bounds(reg.index, y, 500)
        tracemalloc.start()
        try:
            chunked = structures._sample_bounds(reg.index, y, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
        for a, b in zip(whole, chunked):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestTrueLevelSetGrid:
    def test_hand_case(self):
        fld = ScalarField(dim=1, fn=lambda X: X[:, 0])
        grid, _ = uniform_grid((0.0,), (1.0,), 10)
        truth = true_level_set_grid(fld, 0.5, grid)
        assert truth.shape == (6, 1)  # 0.5 .. 1.0 inclusive
        assert np.array_equal(truth, grid.points[5:])

    def test_level_below_min_takes_whole_grid(self):
        fld = ScalarField(dim=1, fn=lambda X: X[:, 0])
        grid, _ = uniform_grid((0.0,), (1.0,), 16)
        assert true_level_set_grid(fld, -5.0, grid).shape == (17, 1)

    def test_level_above_max_gives_empty_cloud(self):
        fld = ScalarField(dim=1, fn=lambda X: X[:, 0])
        grid, _ = uniform_grid((0.0,), (1.0,), 16)
        truth = true_level_set_grid(fld, 2.0, grid)
        assert truth.shape == (0, 1)
        with pytest.raises(ValueError):
            hausdorff_distance(truth, [0.0])


class TestHausdorff:
    def test_identical_clouds(self):
        a = np.array([0.0, 0.4, 1.0])
        assert hausdorff_distance(a, a) == 0.0

    def test_singletons(self):
        assert hausdorff_distance([0.0], [3.0]) == 3.0

    def test_hand_case_asymmetric_parts(self):
        # directed a->b: max(0, 1) = 1; directed b->a: max(0, 3) = 3
        assert hausdorff_distance([0.0, 1.0], [0.0, 4.0]) == 3.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.random((int(rng.integers(1, 20)), 2))
            b = rng.random((int(rng.integers(1, 20)), 2))
            assert hausdorff_distance(a, b) == hausdorff_distance(b, a)

    def test_indexed_equals_bruteforce_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            a = rng.random((int(rng.integers(1, 30)), 3))
            b = rng.random((int(rng.integers(1, 30)), 3))
            assert hausdorff_distance(a, b) == \
                hausdorff_distance_bruteforce(a, b)

    @pytest.mark.parametrize("metric", [hausdorff_distance,
                                        hausdorff_distance_bruteforce])
    def test_array_and_point_set_forms_agree(self, metric):
        # An (m,) array is m points on the line, as an (m, 1) array is, and
        # a PointSet measures as its points do.
        a, b = np.array([0.0, 0.25, 2.0]), np.array([0.5, 1.0])
        for fa in (a, a[:, None], PointSet(a)):
            for fb in (b, b[:, None], PointSet(b[:, None])):
                assert metric(fa, fb) == 1.0
        rng = np.random.default_rng(8)
        a, b = rng.random((7, 2)), rng.random((4, 2))
        assert metric(PointSet(a), PointSet(b)) == metric(a, b) == \
            metric(PointSet(a), b)

    def test_zero_iff_equal_point_sets(self):
        assert hausdorff_distance([0.0, 1.0], [0.0, 1.0, 2.0]) > 0.0

    def test_triangle_inequality_4ulp(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.random((int(rng.integers(1, 12)), 2))
            b = rng.random((int(rng.integers(1, 12)), 2))
            c = rng.random((int(rng.integers(1, 12)), 2))
            ab = hausdorff_distance(a, b)
            bc = hausdorff_distance(b, c)
            ac = hausdorff_distance(a, c)
            assert ac <= ab + bc + 4 * np.spacing(max(ab, bc, ac))

    def test_dimension_mismatch_rejected(self):
        cases = [([0.0], [[0.0, 1.0]]),
                 (np.zeros((3, 2)), np.zeros((2, 3))),
                 (PointSet(np.zeros((3, 2))), np.zeros((1, 1)))]
        for metric in (hausdorff_distance, hausdorff_distance_bruteforce):
            for a, b in cases:
                for x, y in ((a, b), (b, a)):
                    with pytest.raises(ValueError, match="dimension mismatch"):
                        metric(x, y)

    def test_empty_rejected(self):
        # An empty set, of any dimension, is rejected on either side.
        for metric in (hausdorff_distance, hausdorff_distance_bruteforce):
            for empty, one in ((np.empty((0, 1)), [0.0]),
                               (np.empty((0, 3)), np.zeros((1, 3))),
                               (np.empty(0), [0.0])):
                for x, y in ((empty, one), (one, empty)):
                    with pytest.raises(ValueError, match="empty"):
                        metric(x, y)


class TestMaxima:
    def test_zero_noise_k1_interpolates(self):
        fld = make_field("quadratic-peak", center=(0.6,), curvature=1.0)
        rng = np.random.default_rng(4)
        xs = rng.random(100)
        reg = make_regressor(data1d(xs, fld.evaluate(xs.reshape(-1, 1))), 1)
        assert estimate_maxima(reg) == int(np.argmax(fld.evaluate(
            xs.reshape(-1, 1))))

    def test_shift_moves_value_not_argmax(self):
        rng = np.random.default_rng(5)
        ds = Dataset(PointSet(rng.random((50, 1))), rng.standard_normal(50))
        reg = make_regressor(ds, 5)
        moved = make_regressor(Dataset(ds.x, ds.y + 2.0), 5)
        i = estimate_maxima(reg)
        assert estimate_maxima(moved) == i
        assert predict_batch(moved, ds.x.points)[i] == pytest.approx(
            predict_batch(reg, ds.x.points)[i] + 2.0, rel=1e-12)

    def test_returns_python_int(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [1.0, 3.0, 2.0]), 1)
        i = estimate_maxima(reg)
        assert type(i) is int and i == 1

    def test_first_index_tie_break(self):
        reg = make_regressor(data1d([0.0, 10.0, 20.0], [7.0, 7.0, 7.0]), 1)
        assert estimate_maxima(reg) == 0

    def test_affine_invariance_dyadic(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = 40
            x = PointSet(rng.random((n, 1)))
            y = rng.integers(-2 ** 16, 2 ** 16, size=n) / 256.0
            k = int(rng.choice([1, 2, 4, 8]))
            a = float(rng.integers(1, 16)) / 4.0
            b = float(rng.integers(-64, 64)) / 8.0
            base = estimate_maxima(make_regressor(Dataset(x, y), k))
            mapped = estimate_maxima(
                make_regressor(Dataset(x, a * y + b), k))
            assert mapped == base


def oracle_counts(points, ks, probes):
    """Distinct brute_force_knn member sets over the probes, per k."""
    return [len({brute_force_knn(points, q, k).member_indices.tobytes()
                 for q in probes}) for k in ks]


class TestSetCount:
    def test_single_point(self):
        data = data1d([0.5], [0.0])
        grid, _ = uniform_grid((0.0,), (1.0,), 50)
        assert count_distinct_knn_sets(data, [1], grid) == [1]
        assert count_distinct_knn_sets(data, [], grid) == []

    def test_three_cells_in_1d(self):
        # Voronoi cells of {0, 1, 2} at k=1 over a dense probe grid; the odd
        # cell count keeps grid points off the exact bisectors, where the
        # tie-inclusive set would be the union of two cells.
        data = data1d([0.0, 1.0, 2.0], [0.0] * 3)
        grid, _ = uniform_grid((-1.0,), (3.0,), 399)
        assert count_distinct_knn_sets(data, [1], grid) == [3]

    def test_bisector_probe_merges_cells(self):
        data = data1d([0.0, 1.0, 2.0], [0.0] * 3)
        probes = PointSet(np.array([0.2, 0.5, 0.8]))
        assert count_distinct_knn_sets(data, [1], probes) == [3]  # {0},{0,1},{1}

    def test_nondecreasing_under_probe_refinement(self):
        rng = np.random.default_rng(7)
        data = Dataset(PointSet(rng.random((15, 2))), np.zeros(15))
        coarse, _ = uniform_grid((0.0, 0.0), (1.0, 1.0), 20)
        fine, _ = uniform_grid((0.0, 0.0), (1.0, 1.0), 40)
        [c1] = count_distinct_knn_sets(data, [3], coarse)
        [c2] = count_distinct_knn_sets(data, [3], fine)
        assert c1 <= c2

    def test_never_exceeds_bound(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 9):
            data = Dataset(PointSet(rng.random((n, 2))), np.zeros(n))
            grid, _ = uniform_grid((0.0, 0.0), (1.0, 1.0), 60)
            counts = count_distinct_knn_sets(data, [1, 2], grid)
            assert max(counts) <= knn_set_count_bound(n, 2)

    @pytest.mark.parametrize("case", ["lattice-2d", "random-10d"])
    @pytest.mark.parametrize("chunk_probes", [None, 7])
    def test_every_k_equals_oracle(self, case, chunk_probes, monkeypatch):
        import knnrates.structures as structures

        rng = np.random.default_rng(41)
        if case == "lattice-2d":
            # Duplicated integer points probed on a quarter-step grid that
            # hits points and bisectors, so ties decide membership.
            points = rng.integers(0, 4, size=(40, 2)).astype(float)
            probes, _ = uniform_grid((-0.5, -0.5), (3.5, 3.5), 16)
            probes = probes.points
        else:
            points = rng.random((60, 10))
            probes = rng.random((150, 10))
        if chunk_probes is not None:
            # Blocks of 7 probes: the probes span several blocks.
            monkeypatch.setattr(structures, "_CHUNK_ENTRIES",
                                chunk_probes * points.size)
        ks = [5, 1, 12, 5, len(points)]  # unsorted, repeated, and k = n
        data = Dataset(PointSet(points), np.zeros(len(points)))
        assert count_distinct_knn_sets(data, ks, probes) == \
            oracle_counts(points, ks, probes)

    def test_ties_follow_sq_dists_summation_order(self):
        # In D = 16, b holds a's coordinates with 0 and 1 swapped.  Added
        # left to right, the squares of a and of b start with the same
        # first sum and go on with equal terms, so |a|^2 and |b|^2 tie bit
        # for bit; added pairwise over eight running sums (numpy's order
        # for 16 terms), they split at this seed.  The probes see {a, b},
        # {a} and {b} at k = 1.
        a = np.random.default_rng(3).random(16)
        b = a[[1, 0, *range(2, 16)]]

        def pairwise(v):
            t = v * v
            r = [t[j] + t[j + 8] for j in range(8)]
            return ((r[0] + r[1]) + (r[2] + r[3])) + \
                ((r[4] + r[5]) + (r[6] + r[7]))

        assert pairwise(a) != pairwise(b)
        points = np.vstack([a, b, np.full(16, 5.0)])
        probes = np.vstack([np.zeros(16), a, b])
        data = Dataset(PointSet(points), np.zeros(3))
        assert oracle_counts(points, [1], probes) == [3]
        assert count_distinct_knn_sets(data, [1], probes) == [3]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
    def test_packed_rows_equal_oracle_at_byte_edges(self, n):
        # Each row's n mask bits are padded to whole bytes before the block
        # is packed flat; n = 8 and 16 need no padding, the others do.
        rng = np.random.default_rng(n)
        points = rng.integers(0, 3, size=(n, 2)).astype(float)
        probes, _ = uniform_grid((-0.5, -0.5), (2.5, 2.5), 12)
        ks = sorted({1, (n + 1) // 2, n})
        data = Dataset(PointSet(points), np.zeros(n))
        assert count_distinct_knn_sets(data, ks, probes) == \
            oracle_counts(points, ks, probes.points)

    def test_peak_memory_bounded_and_blocks_agree_with_oracle(self):
        # 4096 probes against 4096 plane points: one 4096 x n x D block
        # would take 256 MiB of coordinate differences alone.
        import tracemalloc

        rng = np.random.default_rng(37)
        data = Dataset(PointSet(rng.random((4096, 2))), np.zeros(4096))
        probes = rng.random((4096, 2))
        tracemalloc.start()
        try:
            count_distinct_knn_sets(data, [1, 8], probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        # A few hundred probes span several blocks; the count matches the
        # distinct oracle sets.
        assert count_distinct_knn_sets(data, [8], probes[:300]) == \
            oracle_counts(data.x.points, [8], probes[:300])

    def test_k_validation(self, monkeypatch):
        # Every k is checked before the first distance block is taken.
        import knnrates.structures as structures

        def no_counting(*args):
            raise AssertionError("counted before checking every k")

        monkeypatch.setattr(structures, "_sq_dists", no_counting)
        data = data1d([0.0, 1.0], [0.0, 0.0])
        grid, _ = uniform_grid((0.0,), (1.0,), 10)
        for ks in ([3], [1, 3], [2, 0]):
            with pytest.raises(ValueError, match="outside"):
                count_distinct_knn_sets(data, ks, grid)


class TestCloudFromLevelSet:
    def test_roundtrip(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [0.0, 5.0, 10.0]), 1)
        members = estimate_level_set(reg, 5.0, 0.0)
        assert np.array_equal(members, [1, 2])
        assert np.array_equal(reg.data.x.points[members], [[1.0], [2.0]])
