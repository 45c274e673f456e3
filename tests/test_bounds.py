"""Bound calculator tests: frozen hand evaluations of each closed form,
plus the scaling laws the formulas must obey."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnrates import (BoundParams, Dataset, MissingParameterError, PointSet,
                      holder_bound, k_range_check, knn_set_count_bound,
                      level_set_dh_bound, level_set_epsilon,
                      manifold_radius_bound, maxima_distance_bound, optimal_k,
                      radius_bound, unit_ball_volume, variance_term)

REL = 1e-12


class TestUnitBallVolume:
    def test_low_dims(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=REL)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=REL)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=REL)

    def test_recursion(self):
        # v_D = v_{D-2} * 2*pi/D
        for d in range(3, 25):
            assert unit_ball_volume(d) == pytest.approx(
                unit_ball_volume(d - 2) * 2.0 * math.pi / d, rel=REL)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestVarianceTerm:
    def test_frozen_hand_value(self):
        p = BoundParams(dim=1, sigma=1.0, delta=0.1)
        expect = 2.0 * math.sqrt((math.log(10) + math.log(20)) / 4.0)
        got = variance_term(p, 10, 4)
        assert got == pytest.approx(2.3018074130013653, rel=REL)
        assert got == pytest.approx(expect, rel=REL)

    def test_noiseless_is_zero(self):
        p = BoundParams(dim=3, sigma=0.0, delta=0.5)
        for n, k in [(10, 1), (1000, 30)]:
            assert variance_term(p, n, k) == 0.0

    def test_doubling_k_divides_by_sqrt2(self):
        p = BoundParams(dim=2, sigma=0.7, delta=0.05)
        for k in (1, 4, 64):
            assert variance_term(p, 500, 2 * k) == pytest.approx(
                variance_term(p, 500, k) / math.sqrt(2.0), rel=REL)

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=60, deadline=None)
    def test_sqrt_k_scaling_constant(self, k):
        p = BoundParams(dim=2, sigma=0.3, delta=0.2)
        base = variance_term(p, 5000, 1)
        assert variance_term(p, 5000, k) * math.sqrt(k) == pytest.approx(
            base, rel=REL)

    def test_missing_sigma_named(self):
        p = BoundParams(dim=1, delta=0.1)
        with pytest.raises(MissingParameterError) as e:
            variance_term(p, 10, 2)
        assert "sigma" in str(e.value)


class TestRadiusBound:
    def test_frozen_1d(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0)
        assert radius_bound(p, 1000, 100, check=False) == pytest.approx(
            0.1, rel=REL)

    def test_frozen_2d_disk(self):
        p = BoundParams(dim=2, gamma=1.0, p0=1.0 / math.pi)
        assert radius_bound(p, 1000, 100, check=False) == pytest.approx(
            math.sqrt(0.2), rel=REL)

    def test_constant_when_k_proportional_to_n(self):
        p = BoundParams(dim=3, gamma=0.5, p0=2.0)
        b1 = radius_bound(p, 1000, 100, check=False)
        b2 = radius_bound(p, 8000, 800, check=False)
        assert b2 == pytest.approx(b1, rel=REL)

    def test_inversion_identity_within_8_ulp(self):
        # radius^D * (gamma * p0 * v_D * n) == 2k
        for dim, n, k in [(1, 100, 7), (2, 5000, 431), (5, 2000, 64)]:
            p = BoundParams(dim=dim, gamma=0.25, p0=1.7)
            r = radius_bound(p, n, k, check=False)
            lhs = r ** dim * (p.gamma * p.p0 * unit_ball_volume(dim) * n)
            assert abs(lhs - 2.0 * k) <= 8.0 * np.spacing(2.0 * k)

    def test_warns_outside_window(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, r0=0.5, delta=0.1)
        with pytest.warns(RuntimeWarning):
            radius_bound(p, 1000, 2)

    def test_missing_params_named(self):
        with pytest.raises(MissingParameterError) as e:
            radius_bound(BoundParams(dim=1), 10, 2)
        msg = str(e.value)
        assert "gamma" in msg and "p0" in msg


class TestManifoldRadiusBound:
    def test_frozen_1d(self):
        p = BoundParams(dim=5, d=1, p0=1.0)
        assert manifold_radius_bound(p, 1000, 50) == pytest.approx(0.1, rel=REL)

    def test_independent_of_ambient_dim(self):
        a = BoundParams(dim=2, d=1, p0=0.5)
        b = BoundParams(dim=50, d=1, p0=0.5)
        assert manifold_radius_bound(a, 500, 10) == manifold_radius_bound(
            b, 500, 10)

    def test_quadrupling_n_scaling(self):
        p = BoundParams(dim=10, d=2, p0=1.0)
        assert manifold_radius_bound(p, 4000, 32) == pytest.approx(
            manifold_radius_bound(p, 1000, 32) / 4.0 ** 0.5, rel=REL)


class TestHolderBound:
    def test_degenerate_zero(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, sigma=0.0, delta=0.1,
                        alpha=1.0, c_alpha=0.0)
        assert holder_bound(p, 100, 10) == 0.0

    def test_is_sum_of_its_terms(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, sigma=1.0, delta=0.1,
                        alpha=1.0, c_alpha=1.0)
        got = holder_bound(p, 1000, 100)
        expect = radius_bound(p, 1000, 100, check=False) + variance_term(
            p, 1000, 100)
        assert got == pytest.approx(expect, rel=REL)

    def test_term_monotonicity_in_k(self):
        # Bias term strictly increases with k, variance strictly decreases.
        p = BoundParams(dim=2, gamma=0.25, p0=1.0, sigma=0.5, delta=0.1,
                        alpha=0.7, c_alpha=2.0)
        ks = [10, 40, 160]
        biases = [p.c_alpha * radius_bound(p, 4000, k, check=False) ** p.alpha
                  for k in ks]
        vars_ = [variance_term(p, 4000, k) for k in ks]
        assert biases[0] < biases[1] < biases[2]
        assert vars_[0] > vars_[1] > vars_[2]

    def test_manifold_flag_switches_bias_term(self):
        p = BoundParams(dim=10, d=1, p0=1.0, gamma=0.5, sigma=0.1, delta=0.1,
                        alpha=1.0, c_alpha=2.0)
        got = holder_bound(p, 1000, 64, manifold=True)
        expect = 2.0 * manifold_radius_bound(p, 1000, 64) + variance_term(
            p, 1000, 64)
        assert got == pytest.approx(expect, rel=REL)


class TestKRangeCheck:
    def test_full_window_fails_at_desk_scale(self):
        # The lower constant is ~13594 at n=1000, delta=0.25: conservative.
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, r0=0.5, delta=0.25)
        report = k_range_check(p, 1000, 100, "full")
        lower = next(c for c in report.checks if c.name == "k_lower_full")
        expect = 2.0 ** 8 * 1 * math.log(16.0) ** 2 * math.log(1000.0)
        assert lower.lhs == pytest.approx(expect, rel=REL)
        assert lower.lhs == pytest.approx(13593.93, rel=1e-5)
        assert not lower.passed and not report.passed

    def test_k_above_n_distinct_diagnostic(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, r0=0.5, delta=0.25)
        report = k_range_check(p, 100, 200, "full")
        bad = next(c for c in report.checks if c.name == "k_le_n")
        assert not bad.passed and not report.passed

    def test_maxima_noiseless_denominator(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0, r0=0.5, delta=0.1,
                        sigma=0.0, c_low=1.0, c_high=1.0, r_m=0.25)
        report = k_range_check(p, 1000, 10, "maxima")
        lower = next(c for c in report.checks if c.name == "k_lower_maxima")
        expect = 2.0 ** 10 * 1 * math.log(40.0) ** 2 * math.log(1000.0)
        assert lower.lhs == pytest.approx(expect, rel=REL)

    def test_sides_reproduce_on_recompute(self):
        p = BoundParams(dim=2, gamma=0.25, p0=1.0, r0=0.5, delta=0.1,
                        sigma=0.3, beta=1.0, c_low=2.0, c_high=2.0, r_m=0.25,
                        m2=0.8)
        for setting in ("full", "levelset"):
            a = k_range_check(p, 4096, 256, setting)
            b = k_range_check(p, 4096, 256, setting)
            assert a == b

    def test_manifold_window(self):
        p = BoundParams(dim=10, d=1, p0=1.0, tau=0.159, delta=0.1)
        report = k_range_check(p, 10 ** 6, 100, "manifold")
        upper = next(c for c in report.checks if c.name == "k_upper_manifold")
        expect = 0.25 * min(0.159 / 4.0, 1.0 / 0.159) * 1.0 * 2.0 * 10 ** 6
        assert upper.rhs == pytest.approx(expect, rel=REL)

    def test_missing_params_named(self):
        p = BoundParams(dim=1, gamma=1.0, p0=1.0)
        with pytest.raises(MissingParameterError) as e:
            k_range_check(p, 100, 10, "levelset")
        msg = str(e.value)
        for name in ("sigma", "beta", "m2"):
            assert name in msg

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            k_range_check(BoundParams(dim=1), 10, 2, "nope")


class TestOptimalK:
    def test_regression_hand_case(self):
        assert optimal_k(10 ** 4, 1.0, 2, "regression") == 100

    def test_maxima_hand_case(self):
        assert optimal_k(10 ** 5, None, 1, "maxima") == 10 ** 4

    def test_levelset_beta_through_alpha_slot(self):
        assert optimal_k(4096, 1.0, 1, "levelset_beta") == 256

    @given(st.integers(min_value=2, max_value=10 ** 7))
    @settings(max_examples=60, deadline=None)
    def test_clamped_to_at_least_one(self, n):
        assert optimal_k(n, 0.5, 10, "regression") >= 1
        assert optimal_k(n, None, 10, "maxima") >= 1

    def test_tiny_n(self):
        assert optimal_k(2, 1.0, 3, "regression") >= 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            optimal_k(100, 1.0, 1, "typo")


class TestSetCountBound:
    def test_hand_cases(self):
        assert knn_set_count_bound(10, 2) == 200
        assert knn_set_count_bound(1, 7) == 7

    def test_big_value_exact(self):
        assert knn_set_count_bound(10 ** 6, 3) == 3 * 10 ** 18

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            knn_set_count_bound(0, 1)


def _data(y):
    y = np.asarray(y, dtype=float)
    return Dataset(PointSet(np.arange(len(y), dtype=float)), y)


class TestLevelSetEpsilon:
    def test_frozen_sigma_hat(self):
        # epsilon is 4 * sigma_hat * sqrt((D log n + log(2/delta)) / k), with
        # sigma_hat = sqrt((2/n) * sum(y^2)) = sqrt(18) here.
        r = level_set_epsilon(_data([3.0, -3.0] * 3), 2, 3, 0.1)
        root = math.sqrt((2.0 * math.log(6.0) + math.log(20.0)) / 3.0)
        assert r.epsilon / (4.0 * root) == pytest.approx(math.sqrt(18.0),
                                                         rel=REL)

    def test_frozen_epsilon(self):
        r = level_set_epsilon(_data([1.0, -1.0, 1.0, -1.0]), 1, 4, 0.5)
        expect = 4.0 * math.sqrt(2.0) * math.sqrt(
            (math.log(4.0) + math.log(4.0)) / 4.0)
        assert r.epsilon == pytest.approx(expect, rel=REL)
        assert r.epsilon == pytest.approx(4.709640090061899, rel=REL)

    def test_zero_observations(self):
        r = level_set_epsilon(_data([0.0, 0.0, 0.0]), 2, 2, 0.1)
        assert r.epsilon == 0.0

    @given(st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_scaling_in_y(self, a):
        base = level_set_epsilon(_data([0.5, -1.5, 2.0]), 1, 2, 0.2)
        scaled = level_set_epsilon(_data([0.5 * a, -1.5 * a, 2.0 * a]),
                                   1, 2, 0.2)
        assert scaled.epsilon == pytest.approx(a * base.epsilon,
                                               rel=1e-9, abs=1e-12)


class TestDerivedStructureBounds:
    def test_dh_bound_k_scaling(self):
        p = BoundParams(dim=1, delta=0.1, beta=1.0, c_low=2.0, m2=0.5)
        # k^{-1/(2 beta)} scaling: quadrupling k halves the bound
        assert level_set_dh_bound(p, 4096, 400) == pytest.approx(
            level_set_dh_bound(p, 4096, 100) / 2.0, rel=REL)

    def test_dh_bound_formula(self):
        p = BoundParams(dim=2, delta=0.2, beta=1.0, c_low=3.0, m2=1.5)
        n, k = 1000, 64
        expect = (2.0 * (24.0 * 1.5 / 3.0)
                  * (2.0 * math.log(n) * math.log(10.0)) ** 0.5 * k ** -0.5)
        assert level_set_dh_bound(p, n, k) == pytest.approx(expect, rel=REL)

    def test_maxima_bound_is_sqrt_of_max_term(self):
        p = BoundParams(dim=1, gamma=0.5, p0=1.0, sigma=0.05, delta=0.1,
                        c_low=1.0, c_high=1.0)
        n, k = 4096, 256
        v1 = unit_ball_volume(1)
        t_var = (32.0 * 0.05 / 1.0) * math.sqrt(
            (math.log(n) + math.log(20.0)) / k)
        t_bias = 32.0 * (2.0 * k / (0.5 * 1.0 * v1 * n)) ** 2.0
        assert maxima_distance_bound(p, n, k) == pytest.approx(
            math.sqrt(max(t_var, t_bias)), rel=REL)


class TestBoundParamsValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BoundParams(dim=1, gamma=1.5)
        with pytest.raises(ValueError):
            BoundParams(dim=1, delta=1.0)
        with pytest.raises(ValueError):
            BoundParams(dim=2, d=3)

    def test_purity(self):
        p = BoundParams(dim=2, gamma=0.25, p0=1.0, sigma=0.3, delta=0.1,
                        alpha=0.5, c_alpha=1.0)
        assert holder_bound(p, 777, 33) == holder_bound(p, 777, 33)
