"""Regressor tests: hand-computed predictions, exact batch/scalar agreement,
arithmetic-exact equivariances on dyadic data, modulus and file format."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrates import (Dataset, PointSet, ScalarField, empirical_modulus,
                      knn_query, knn_radii, knn_radius, make_field,
                      make_regressor, predict, predict_batch, read_dataset,
                      sup_error, write_dataset)


def data1d(xs, ys):
    return Dataset(PointSet(np.asarray(xs, dtype=float)),
                   np.asarray(ys, dtype=float))


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
        expect = float(np.sum(y) / 20)
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
            assert knn_radius(reg, [v]) == 0.0

    def test_hand_case(self):
        reg = make_regressor(data1d([0.0, 1.0, 2.0], [0.0] * 3), 2)
        assert knn_radius(reg, [0.9]) == pytest.approx(0.9, abs=0)

    def test_matches_knn_query_radius_1000_queries(self):
        rng = np.random.default_rng(6)
        ds = Dataset(PointSet(rng.random((300, 3))), np.zeros(300))
        reg = make_regressor(ds, 11)
        for q in rng.random((1000, 3)):
            assert knn_radius(reg, q) == knn_query(reg.index, q, 11).radius


class TestSupError:
    def test_zero_noise_constant_field(self):
        fld = make_field("constant", value=2.5, dim=1)
        xs = np.linspace(0, 1, 50)
        reg = make_regressor(data1d(xs, fld.evaluate(xs.reshape(-1, 1))), 7)
        res = sup_error(reg, fld, PointSet(np.linspace(0, 1, 101)))
        assert res.sup == 0.0

    def test_zero_noise_k1_interpolates_at_samples(self):
        rng = np.random.default_rng(8)
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0)
        for _ in range(10):
            x = rng.random((40, 1))
            reg = make_regressor(Dataset(PointSet(x),
                                         fld.evaluate(x)), 1)
            res = sup_error(reg, fld, PointSet(x))
            assert res.sup == 0.0

    def test_probe_subset_never_exceeds_superset(self):
        rng = np.random.default_rng(9)
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0)
        x = rng.random((100, 1))
        reg = make_regressor(Dataset(PointSet(x), fld.evaluate(x)), 5)
        big = np.linspace(0, 1, 201).reshape(-1, 1)
        small = big[::4]
        assert sup_error(reg, fld, PointSet(small)).sup <= \
            sup_error(reg, fld, PointSet(big)).sup

    def test_bias_bounded_by_lipschitz_radius(self):
        # Zero noise, 1-Lipschitz-scaled field: |f_k - f| <= slope * r_k.
        rng = np.random.default_rng(10)
        fld = make_field("tent", center=(0.4,), slope=3.0, peak=1.0)
        x = rng.random((200, 1))
        reg = make_regressor(Dataset(PointSet(x), fld.evaluate(x)), 9)
        for q in rng.random((50, 1)):
            err = abs(predict(reg, q) - fld.evaluate(q))
            assert err <= 3.0 * knn_radius(reg, q) + 1e-12

    def test_argmax_probe_reported(self):
        fld = make_field("constant", value=0.0, dim=1)
        reg = make_regressor(data1d([0.0, 1.0], [0.0, 1.0]), 1)
        res = sup_error(reg, fld, PointSet(np.array([0.1, 0.9])))
        assert res.per_probe.shape == (2,)
        assert res.sup == res.per_probe[res.argmax_probe]


class TestEmpiricalModulus:
    def test_constant_field_zero(self):
        fld = make_field("constant", value=1.0, dim=2)
        for r in (0.0, 0.5, 10.0):
            m = empirical_modulus(fld, [0.0, 0.0], r)
            assert m.value == 0.0 and m.exact

    def test_linear_closed_form(self):
        fld = make_field("linear", a=(1.0,), b=0.0)
        m = empirical_modulus(fld, [0.3], 0.25)
        assert m.exact and m.value == pytest.approx(0.25, rel=1e-12)

    def test_abs_cusp_sampled_exactly_at_axis_point(self):
        # f(x) = |x| with no declared closed form: the deterministic probe
        # cloud contains x +/- r on each axis, so the sup is hit exactly.
        fld = ScalarField(dim=1, fn=lambda X: np.abs(X[:, 0]))
        m = empirical_modulus(fld, [0.0], 0.5)
        assert not m.exact
        assert m.value == 0.5

    def test_sampled_is_lower_bound_of_closed_form(self):
        fld = make_field("holder-cusp", center=(0.2,), c_alpha=1.0, alpha=0.5)
        bare = ScalarField(dim=1, fn=fld.fn)
        for x, r in [(0.0, 0.3), (0.2, 0.1), (0.7, 0.9)]:
            exact = empirical_modulus(fld, [x], r)
            approx = empirical_modulus(bare, [x], r, resolution=512)
            assert exact.exact and not approx.exact
            assert approx.value <= exact.value + 1e-12
            assert approx.value >= 0.8 * exact.value

    def test_negative_radius_rejected(self):
        fld = make_field("constant", value=0.0, dim=1)
        with pytest.raises(ValueError):
            empirical_modulus(fld, [0.0], -0.1)


class TestDatasetFile:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        ds = Dataset(PointSet(rng.random((30, 3))), rng.standard_normal(30))
        path = tmp_path / "data.txt"
        write_dataset(path, ds)
        back = read_dataset(path)
        assert np.array_equal(back.x.points, ds.x.points)
        assert np.array_equal(back.y, ds.y)

    def test_format_shape(self, tmp_path):
        ds = data1d([0.5, 1.5], [2.0, 3.0])
        path = tmp_path / "data.txt"
        write_dataset(path, ds)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "1 2"
        assert lines[1].split() == ["0.5", "2"]

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n0 0 1\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_reader_consumes_written_header(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 3\n0 1\n0.5 2\n1 3\n")
        ds = read_dataset(path)
        assert ds.n == 3 and ds.x.dim == 1
        assert list(ds.y) == [1.0, 2.0, 3.0]


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
