"""Generator tests: determinism, support containment, and soundness of every
declared constant (checked on large random batches with zero violations)."""

import math

import numpy as np
import pytest

import knnrates.synth as synth
from knnrates import (ManifoldSpec, NoiseSpec, embed_manifold, embed_points,
                      make_field, manifold_field, manifold_probe_grid,
                      sample_noise, sample_points, stream_seed, to_intrinsic,
                      uniform_box, uniform_grid)


class TestDensities:
    def test_box_support_and_determinism(self):
        spec = uniform_box((0.0,), (1.0,))
        a = sample_points(spec, 5, 42)
        b = sample_points(spec, 5, 42)
        assert np.array_equal(a.points, b.points)
        assert ((a.points >= 0.0) & (a.points <= 1.0)).all()
        c = sample_points(spec, 5, 43)
        assert not np.array_equal(a.points, c.points)

    def test_unit_square_declared_constants(self):
        spec = uniform_box((0.0, 0.0), (1.0, 1.0))
        assert spec.p0 == 1.0
        assert spec.gamma == 0.25  # corner worst case
        assert spec.r0 == 0.5

    def test_stream_separation(self):
        spec = uniform_box((0.0,), (1.0,))
        a = sample_points(spec, 10, stream_seed(1, 0, "points"))
        b = sample_points(spec, 10, stream_seed(1, 1, "points"))
        assert not np.array_equal(a.points, b.points)


class TestNoise:
    def test_none_is_zero(self):
        assert (sample_noise(NoiseSpec("none"), 100, 0) == 0.0).all()

    def test_none_builds_no_generator(self, monkeypatch):
        # Noise-free trials draw nothing, so they build no seeded Generator.
        def no_rng(seed):
            raise AssertionError("a Generator was built for 'none' noise")

        monkeypatch.setattr(synth, "_rng", no_rng)
        assert np.array_equal(sample_noise(NoiseSpec("none"), 100, 0),
                              np.zeros(100))

    def test_gaussian_std_window(self):
        xs = sample_noise(NoiseSpec("gaussian", 0.1), 100_000, 123)
        assert 0.098 <= xs.std() <= 0.102

    @pytest.mark.parametrize("kind,scale", [("gaussian", 0.5)])
    def test_mean_zero_battery(self, kind, scale):
        spec = NoiseSpec(kind, scale)
        for seed in range(8):
            n = 4000
            xs = sample_noise(spec, n, seed)
            assert abs(xs.mean()) <= 4.0 * spec.sigma / math.sqrt(n)

    def test_declared_sigma(self):
        assert NoiseSpec("gaussian", 0.2).sigma == 0.2
        assert NoiseSpec("none").sigma == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy", 1.0)


class TestFields:
    def test_constant(self):
        fld = make_field("constant", value=3.0, dim=2)
        assert fld.evaluate([0.5, -1.0]) == 3.0
        assert fld.metadata.c_alpha == 0.0

    def test_tent_evaluation_and_metadata(self):
        fld = make_field("tent", center=(0.5,), slope=2.0, peak=1.0, level=0.5)
        assert fld.evaluate([0.5]) == 1.0
        assert fld.evaluate([0.0]) == 0.0
        md = fld.metadata
        assert md.alpha == 1.0 and md.c_alpha == 2.0
        assert md.beta == 1.0 and md.c_low == 2.0 and md.c_high == 2.0
        assert md.r_m == pytest.approx(0.25)

    def test_tent_level_regularity_is_exact(self):
        # |level - f(x)| == slope * distance-to-boundary, everywhere.
        fld = make_field("tent", center=(0.5, 0.5), slope=3.0, peak=1.0,
                         level=0.4)
        rho = (1.0 - 0.4) / 3.0
        rng = np.random.default_rng(2)
        X = rng.random((2000, 2))
        gap = np.abs(0.4 - fld.evaluate(X))
        dist_boundary = np.abs(
            np.linalg.norm(X - np.array([0.5, 0.5]), axis=1) - rho)
        assert np.allclose(gap, 3.0 * dist_boundary, rtol=1e-12, atol=1e-12)

    def test_quadratic_peak_pinch_equality(self):
        fld = make_field("quadratic-peak", center=(0.5,), curvature=1.0,
                         height=1.0)
        # f(0.5) - f(0.3) = 0.04 = curvature * 0.2^2 exactly
        assert fld.evaluate([0.5]) - fld.evaluate([0.3]) == pytest.approx(
            0.04, rel=1e-12)
        md = fld.metadata
        assert md.c_low == md.c_high == 1.0
        assert np.array_equal(md.argmax, [0.5])

    def test_holder_cusp_declared_inequality_no_violations(self):
        fld = make_field("holder-cusp", center=(0.3,), c_alpha=1.0, alpha=0.5)
        rng = np.random.default_rng(3)
        a = rng.random((100_000, 1))
        b = rng.random((100_000, 1))
        lhs = np.abs(fld.evaluate(a) - fld.evaluate(b))
        rhs = np.abs(a - b)[:, 0] ** 0.5
        assert (lhs <= rhs + 1e-12).all()

    def test_tent_lipschitz_no_violations(self):
        fld = make_field("tent", center=(0.2, 0.8), slope=2.5, peak=1.0)
        rng = np.random.default_rng(4)
        a, b = rng.random((50_000, 2)), rng.random((50_000, 2))
        lhs = np.abs(fld.evaluate(a) - fld.evaluate(b))
        rhs = 2.5 * np.linalg.norm(a - b, axis=1)
        assert (lhs <= rhs + 1e-12).all()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_field("mystery")


class TestManifolds:
    def circle(self, ambient=10, rotate=True):
        return ManifoldSpec(kind="circle", ambient_dim=ambient,
                            radius=1.0 / (2.0 * math.pi), rotate=rotate,
                            rotation_seed=5)

    def test_circle_on_manifold_12_digits(self):
        spec = self.circle()
        sample = embed_manifold(spec, 400, 9)
        # Rotation is orthogonal, so the radius is preserved in ambient space.
        d = np.linalg.norm(sample.points.points, axis=1)
        assert np.allclose(d, spec.radius, rtol=1e-12, atol=1e-15)

    def test_circle_length_and_p0(self):
        spec = self.circle()
        assert spec.length == pytest.approx(1.0, rel=1e-12)
        assert spec.p0 == pytest.approx(1.0, rel=1e-12)
        assert spec.tau == spec.radius

    def test_rotation_is_isometry(self):
        flat = self.circle(rotate=False)
        rot = self.circle(rotate=True)
        s = np.linspace(0.0, 0.9, 25)
        a = embed_points(flat, s)
        b = embed_points(rot, s)
        da = np.linalg.norm(a[:, None, :] - a[None, :, :], axis=2)
        db = np.linalg.norm(b[:, None, :] - b[None, :, :], axis=2)
        assert np.allclose(da, db, rtol=1e-10, atol=1e-12)

    def test_intrinsic_roundtrip(self):
        spec = self.circle()
        s = np.linspace(0.0, spec.length, 50, endpoint=False)
        back = to_intrinsic(spec, embed_points(spec, s))
        assert np.allclose(back, s, rtol=1e-9, atol=1e-12)

    def test_field_depends_only_on_intrinsic_coordinate(self):
        spec = self.circle()
        fld = manifold_field(spec)
        s = spec.length * np.random.default_rng(1).random(200)
        gap = np.abs(s - spec.field_center_s)
        arc = np.minimum(gap, spec.length - gap)
        expect = spec.field_peak - spec.field_slope * arc
        assert np.allclose(fld.evaluate(embed_points(spec, s)), expect,
                           rtol=1e-9, atol=1e-12)

    def test_chord_arc_lipschitz_declaration(self):
        # |f(x)-f(x')| <= slope * (pi/2) * |x-x'| on random pairs.
        spec = self.circle(ambient=3)
        fld = manifold_field(spec)
        rng = np.random.default_rng(13)
        s = spec.length * rng.random((2, 20_000))
        a, b = embed_points(spec, s[0]), embed_points(spec, s[1])
        lhs = np.abs(fld.evaluate(a) - fld.evaluate(b))
        rhs = fld.metadata.c_alpha * np.linalg.norm(a - b, axis=1)
        assert (lhs <= rhs + 1e-9).all()

    def test_probe_grid_on_manifold(self):
        spec = self.circle()
        grid = manifold_probe_grid(spec, 64)
        assert grid.n == 64
        d = np.linalg.norm(grid.points, axis=1)
        assert np.allclose(d, spec.radius, rtol=1e-12)

    def test_determinism(self):
        spec = self.circle()
        a = embed_manifold(spec, 50, 3).points.points
        b = embed_manifold(spec, 50, 3).points.points
        assert np.array_equal(a, b)

    def test_rotation_built_once_and_read_only(self):
        from knnrates.synth import _rotation_matrix

        rot = _rotation_matrix(10, 5)
        assert _rotation_matrix(10, 5) is rot
        with pytest.raises(ValueError, match="read-only"):
            rot[0, 0] = 1.0
        # A build outside the cache gives the same bits.
        assert np.array_equal(_rotation_matrix.__wrapped__(10, 5), rot)

    def test_ambient_dim_validation(self):
        with pytest.raises(ValueError):
            ManifoldSpec(kind="circle", ambient_dim=1)

    @pytest.mark.parametrize("name, value", [
        ("radius", 0.0), ("radius", math.nan), ("field_slope", -1.0)])
    def test_circle_parameters_validated(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: "):
            ManifoldSpec(kind="circle", ambient_dim=2, **{name: value})


class TestUniformGrid:
    def test_1d_grid(self):
        grid, h = uniform_grid((0.0,), (1.0,), 10)
        assert grid.n == 11
        assert h == pytest.approx(0.1)

    def test_2d_grid(self):
        grid, h = uniform_grid((0.0, 0.0), (1.0, 2.0), 4)
        assert grid.n == 25
        assert h == pytest.approx(0.5)
