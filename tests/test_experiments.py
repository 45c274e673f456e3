"""Harness tests: config parsing with named errors, k rules, rate fitting,
CSV schema and reproducibility, and tiny end-to-end runner runs."""

import math

import numpy as np
import pytest

from knnrates import (ConfigError, DegenerateFitError, ExperimentRecord,
                      KRule, build_config, fit_rate, holder_bound,
                      knn_set_count_bound, read_records, records_to_csv,
                      run_coverage, run_levelset, run_maxima,
                      run_regression_rate, run_setcount, write_records)
from knnrates.experiments import (bound_params_for, experiment_field,
                                  parse_config_text, probe_set, resolve_k)


def base_pairs(**over):
    pairs = {
        "experiment.kind": "regression",
        "seed.master": "42",
        "ladder.n": "32, 64",
        "trial.seeds_per_n": "2",
        "trial.delta": "0.1",
        "k.rule": "power",
        "k.exponent": "0.6667",
        "probes.cells": "64",
        "density.kind": "uniform-box",
        "density.low": "0.0",
        "density.high": "1.0",
        "noise.kind": "gaussian",
        "noise.scale": "0.1",
        "field.kind": "tent",
        "field.center": "0.5",
        "field.slope": "2.0",
        "field.peak": "1.0",
    }
    pairs.update(over)
    return pairs


class TestConfigParsing:
    def test_comments_and_blanks(self):
        text = "# header\nexperiment.kind = regression  # trailing\n\nseed.master = 7\n"
        pairs = parse_config_text(text)
        assert pairs == {"experiment.kind": "regression", "seed.master": "7"}

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="density.sides"):
            build_config(base_pairs(**{"density.sides": "1"}))

    def test_missing_required_named(self):
        pairs = base_pairs()
        del pairs["seed.master"]
        with pytest.raises(ConfigError, match="seed.master"):
            build_config(pairs)

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="trial.delta"):
            build_config(base_pairs(**{"trial.delta": "lots"}))

    def test_ladder_must_increase(self):
        with pytest.raises(ConfigError, match="ladder.n"):
            build_config(base_pairs(**{"ladder.n": "64, 64"}))

    def test_unknown_density_kind(self):
        with pytest.raises(ConfigError, match="density.kind"):
            build_config(base_pairs(**{"density.kind": "power-law"}))

    def test_full_roundtrip(self):
        cfg = build_config(base_pairs())
        assert cfg.kind == "regression"
        assert cfg.n_ladder == (32, 64)
        assert cfg.density.p0 == 1.0
        assert cfg.noise.sigma == 0.1


class TestKRule:
    def test_power_rule_ceil(self):
        rule = KRule(rule="power", exponent=2.0 / 3.0)
        assert resolve_k(rule, 512, 1, None) == math.ceil(512 ** (2.0 / 3.0))

    def test_fixed_rule(self):
        assert resolve_k(KRule(rule="fixed", fixed=5), 100, 1, None) == 5

    def test_fixed_clamped_to_n(self):
        assert resolve_k(KRule(rule="fixed", fixed=500), 100, 1, None) == 100

    def test_optimal_rule_regression(self):
        rule = KRule(rule="optimal", mode="regression")
        assert resolve_k(rule, 10 ** 4, 2, 1.0) == 100

    def test_optimal_rule_maxima(self):
        rule = KRule(rule="optimal", mode="maxima")
        assert resolve_k(rule, 10 ** 5, 1, None) == 10 ** 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            KRule(rule="sometimes")
        with pytest.raises(ConfigError):
            KRule(rule="fixed")
        with pytest.raises(ConfigError):
            KRule(rule="power", exponent=-1.0)


def rec(n, value, quantity="sup_error", seed=0):
    return ExperimentRecord("regression", n, 1, seed, quantity, value,
                            float("nan"), True, 0)


class TestFitRate:
    def test_exact_power_law_recovered(self):
        records = [rec(n, n ** -0.5) for n in (100, 200, 400, 800, 1600)]
        fit = fit_rate(records, "sup_error")
        assert abs(fit.slope - (-0.5)) <= 1e-10
        assert fit.residual_rms <= 1e-12

    def test_scaled_power_law_intercept(self):
        records = [rec(n, 3.0 * n ** (-1.0 / 3.0)) for n in (64, 128, 256, 512)]
        fit = fit_rate(records, "sup_error")
        assert abs(fit.slope - (-1.0 / 3.0)) <= 1e-10
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)

    def test_median_per_rung(self):
        records = [rec(100, v) for v in (1.0, 2.0, 50.0)]
        records += [rec(n, n * 1.0) for n in (200, 400, 800)]
        fit = fit_rate(records, "sup_error")
        assert dict(fit.medians)[100] == 2.0

    def test_needs_four_rungs(self):
        records = [rec(n, 1.0 / n) for n in (100, 200, 400)]
        with pytest.raises(DegenerateFitError):
            fit_rate(records, "sup_error")

    def test_zero_median_degenerate(self):
        records = [rec(n, 0.0) for n in (100, 200, 400, 800)]
        with pytest.raises(DegenerateFitError):
            fit_rate(records, "sup_error")

    def test_nan_failure_rows_dropped(self):
        records = [rec(n, n ** -1.0) for n in (100, 200, 400, 800)]
        records.append(rec(100, float("nan"), seed=1))
        fit = fit_rate(records, "sup_error")
        assert abs(fit.slope + 1.0) <= 1e-10

    def test_deterministic(self):
        records = [rec(n, n ** -0.7 * (1 + 0.01 * (n % 7)))
                   for n in (64, 128, 256, 512, 1024)]
        assert fit_rate(records, "sup_error") == fit_rate(records, "sup_error")


class TestCsv:
    def test_header_and_sorting(self):
        records = [rec(200, 1.0, seed=1), rec(100, 2.0, seed=0),
                   rec(200, 3.0, seed=0)]
        text = records_to_csv(records)
        lines = text.strip().splitlines()
        assert lines[0] == "experiment,n,k,seed,quantity,value,bound,valid_k,ms"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["100", "200", "200"]

    def test_seventeen_digit_roundtrip(self, tmp_path):
        records = [rec(100, 1.0 / 3.0), rec(200, math.pi),
                   rec(400, float("nan")), rec(800, 1e-300)]
        path = tmp_path / "r.csv"
        write_records(path, records)
        back = read_records(path)
        vals = {r.n: r.value for r in back}
        assert vals[100] == 1.0 / 3.0
        assert vals[200] == math.pi
        assert math.isnan(vals[400])
        assert vals[800] == 1e-300

    def test_ms_column_zeroed_for_reproducibility(self):
        r = ExperimentRecord("regression", 10, 1, 0, "sup_error", 1.0,
                             float("nan"), True, 1234)
        assert records_to_csv([r]).strip().splitlines()[1].endswith(",0")

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,k\n")
        with pytest.raises(ValueError):
            read_records(path)


class TestRunners:
    def test_regression_records_and_determinism(self):
        cfg = build_config(base_pairs())
        a = run_regression_rate(cfg)
        b = run_regression_rate(cfg)
        assert records_to_csv(a) == records_to_csv(b)
        assert len(a) == 4  # 2 rungs x 2 seeds
        assert all(r.quantity == "sup_error" and r.value >= 0.0 for r in a)

    def test_bound_column_recomputable(self):
        cfg = build_config(base_pairs())
        records = run_regression_rate(cfg)
        params = bound_params_for(cfg, experiment_field(cfg))
        for r in records:
            assert r.bound == holder_bound(params, r.n, r.k)

    def test_levelset_and_maxima_bounds_recomputable(self):
        from knnrates import level_set_dh_bound, maxima_distance_bound

        ls = build_config(base_pairs(**{
            "experiment.kind": "levelset", "ladder.n": "128",
            "level.lambda": "0.5", "level.m2": "0.7"}))
        params = bound_params_for(ls, experiment_field(ls))
        for r in run_levelset(ls):
            assert r.bound == level_set_dh_bound(params, r.n, r.k)

        mx = build_config(base_pairs(**{
            "experiment.kind": "maxima", "ladder.n": "128",
            "field.kind": "quadratic-peak", "field.center": "0.5",
            "field.curvature": "1.0", "field.height": "1.0",
            "field.r_m": "0.25"}))
        params = bound_params_for(mx, experiment_field(mx))
        for r in run_maxima(mx):
            assert r.bound == maxima_distance_bound(params, r.n, r.k)

    def test_zero_noise_constant_field_degenerate_fit(self):
        cfg = build_config(base_pairs(**{
            "noise.kind": "none", "noise.scale": "0",
            "field.kind": "constant", "field.value": "1.5",
            "ladder.n": "16, 32, 64, 128"}))
        records = run_regression_rate(cfg)
        assert all(r.value == 0.0 for r in records)
        with pytest.raises(DegenerateFitError):
            fit_rate(records, "sup_error")

    def test_coverage_runner(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "coverage", "ladder.n": "256",
            "trial.seeds_per_n": "5"}))
        res = run_coverage(cfg)
        assert 0.0 <= res.coverage <= 1.0
        assert 0.0 <= res.radius_coverage <= 1.0
        assert len(res.records) == 10  # sup + radius rows per trial
        quantities = {r.quantity for r in res.records}
        assert quantities == {"sup_error", "radius_max"}

    def test_levelset_records(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "levelset", "ladder.n": "128, 256",
            "trial.seeds_per_n": "2", "level.lambda": "0.5",
            "field.peak": "1.0", "k.rule": "optimal",
            "k.mode": "levelset_beta", "level.m2": "0.7"}))
        records = run_levelset(cfg)
        assert len(records) == 4
        assert all(r.quantity == "d_H" for r in records)
        assert all(math.isfinite(r.value) and r.value >= 0 for r in records)
        assert all(math.isfinite(r.bound) for r in records)

    def test_levelset_empty_truth_failure_rows(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "levelset", "ladder.n": "64",
            "level.lambda": "50.0", "field.level": "0.5"}))
        records = run_levelset(cfg)
        assert len(records) == 2
        assert all(math.isnan(r.value) for r in records)

    def test_levelset_epsilon_override_zero_noise_tightens(self):
        common = {
            "experiment.kind": "levelset", "ladder.n": "512",
            "trial.seeds_per_n": "3", "level.lambda": "0.5",
            "noise.kind": "none", "noise.scale": "0",
            "k.rule": "fixed", "k.fixed": "8"}
        noisy = build_config(base_pairs(**common))
        tight = build_config(base_pairs(**dict(
            common, **{"level.epsilon_override": "0.0"})))
        dh_auto = np.median([r.value for r in run_levelset(noisy)])
        dh_zero = np.median([r.value for r in run_levelset(tight)])
        assert dh_zero <= dh_auto

    def test_maxima_zero_noise_k1_nearest_sample(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "maxima", "ladder.n": "64",
            "trial.seeds_per_n": "1", "noise.kind": "none", "noise.scale": "0",
            "k.rule": "fixed", "k.fixed": "1",
            "field.kind": "quadratic-peak", "field.center": "0.4",
            "field.curvature": "1.0", "field.height": "1.0",
            "field.r_m": "0.25"}))
        records = run_maxima(cfg)
        assert len(records) == 1
        from knnrates import sample_points, stream_seed
        x = sample_points(cfg.density, 64,
                          stream_seed(cfg.master_seed, 64, 0, "points"))
        nearest = np.abs(x.points[:, 0] - 0.4).min()
        assert records[0].value == pytest.approx(nearest, rel=1e-12)

    def test_setcount_counts_below_bound(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "setcount", "ladder.n": "4, 8",
            "k.values": "1, 3", "probes.cells": "49",
            "density.kind": "uniform-box", "density.low": "0, 0",
            "density.high": "1, 1", "field.kind": "constant",
            "field.value": "0"}))
        records = run_setcount(cfg)
        assert len(records) == 8  # 2 rungs x 2 seeds x 2 ks
        for r in records:
            assert r.value <= r.bound == knn_set_count_bound(r.n, 2)

    def test_maxima_without_argmax_field_rejected(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "maxima",
            "field.kind": "constant", "field.value": "0"}))
        with pytest.raises(ConfigError, match="field.kind"):
            run_maxima(cfg)


class TestProbes:
    def test_grid_probe_1d(self):
        cfg = build_config(base_pairs(**{"probes.cells": "100"}))
        probes, h = probe_set(cfg)
        assert probes.n == 101
        assert h == pytest.approx(0.01)

    def test_ball_probe_filter_2d(self):
        cfg = build_config(base_pairs(**{
            "density.kind": "uniform-ball", "density.center": "0, 0",
            "density.radius": "1.0", "probes.cells": "40",
            "field.center": "0, 0"}))
        probes, _ = probe_set(cfg)
        assert (np.linalg.norm(probes.points, axis=1) <= 1.0 + 1e-12).all()

    def test_halton_probe_high_dim(self):
        cfg = build_config(base_pairs(**{
            "density.kind": "uniform-box", "density.low": "0, 0, 0",
            "density.high": "1, 1, 1", "probes.count": "256",
            "field.center": "0.5, 0.5, 0.5"}))
        probes, h = probe_set(cfg)
        assert probes.n == 256 and h is None
        assert ((probes.points >= 0) & (probes.points <= 1)).all()

    def test_manifold_probe(self):
        cfg = build_config({
            "experiment.kind": "regression", "seed.master": "1",
            "ladder.n": "32", "manifold.kind": "circle",
            "manifold.ambient_dim": "4", "manifold.radius": "0.1592",
            "probes.cells": "32"})
        probes, h = probe_set(cfg)
        assert probes.n == 32
        assert h == pytest.approx(cfg.manifold.length / 32)


class TestBoundParamsFor:
    def test_density_and_field_constants_propagate(self):
        cfg = build_config(base_pairs())
        params = bound_params_for(cfg, experiment_field(cfg))
        assert params.gamma == 0.5 and params.p0 == 1.0 and params.r0 == 0.5
        assert params.alpha == 1.0 and params.c_alpha == 2.0
        assert params.sigma == 0.1 and params.delta == 0.1

    def test_overrides_win(self):
        cfg = build_config(base_pairs(**{"bounds.gamma": "1.0"}))
        params = bound_params_for(cfg, experiment_field(cfg))
        assert params.gamma == 1.0

    def test_manifold_constants(self):
        cfg = build_config({
            "experiment.kind": "regression", "seed.master": "1",
            "ladder.n": "32", "manifold.kind": "circle",
            "manifold.ambient_dim": "10", "manifold.radius": "0.15915"})
        params = bound_params_for(cfg, experiment_field(cfg))
        assert params.dim == 10 and params.d == 1
        assert params.tau == pytest.approx(0.15915)
        assert params.p0 == pytest.approx(1.0 / cfg.manifold.length)


# One tiny inline config per runner path.  The digests were taken before
# the runners came to share one trial loop; any change to the emitted bytes
# of any kind shows here.
GOLDEN_CONFIGS = {
    "regression-ball-3d": (base_pairs(**{
        "density.kind": "uniform-ball", "density.center": "0, 0, 0",
        "density.radius": "1.0", "field.center": "0, 0, 0",
        "probes.count": "128", "ladder.n": "64, 128"}),
        "3c704159a2dcd993b9957311720721c0c42174a2208368fdf99554a391e244ed"),
    "manifold": ({
        "experiment.kind": "regression", "seed.master": "5",
        "ladder.n": "64, 128", "trial.seeds_per_n": "2",
        "k.rule": "power", "k.exponent": "0.6667", "probes.cells": "64",
        "noise.kind": "gaussian", "noise.scale": "0.1",
        "manifold.kind": "circle", "manifold.ambient_dim": "4",
        "manifold.radius": "0.15915494309189535", "manifold.rotate": "true",
        "manifold.rotation_seed": "3"},
        "3b81eaf645f8575615ec85653189aa32bd1980703d7e560fd302c3c46f34f607"),
    "coverage": (base_pairs(**{
        "experiment.kind": "coverage", "ladder.n": "128, 256",
        "trial.seeds_per_n": "3"}),
        "f6bdc85b4be9edf46bca5a1e2787897205896575c754acac27f27a27755faa11"),
    "levelset": (base_pairs(**{
        "experiment.kind": "levelset", "ladder.n": "128, 256",
        "level.lambda": "0.5", "k.rule": "optimal",
        "k.mode": "levelset_beta", "level.m2": "0.7"}),
        "2a24012db6a2426bc24ca6d8b0284e673e9edcbd07c2f82bcd7da1b28502bc21"),
    "maxima": (base_pairs(**{
        "experiment.kind": "maxima", "ladder.n": "64, 128",
        "k.rule": "optimal", "k.mode": "maxima",
        "field.kind": "quadratic-peak", "field.center": "0.5",
        "field.curvature": "1.5", "field.height": "1.0",
        "field.r_m": "0.5"}),
        "8016529992ba9d43100eae0d17f3d3fbd988627427bdf7c180095cf034d42ce7"),
    "setcount": (base_pairs(**{
        "experiment.kind": "setcount", "ladder.n": "3, 6",
        "k.values": "1, 2, 5", "probes.cells": "29",
        "density.low": "0, 0", "density.high": "1, 1",
        "field.kind": "constant", "field.value": "0"}),
        "c7a888954a137232fd83ffb4f301f41721a3402b479178b26350122a2ce17e22"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_csv_bytes(name):
    import hashlib

    from knnrates import run_experiment

    pairs, digest = GOLDEN_CONFIGS[name]
    csv = records_to_csv(run_experiment(build_config(pairs)))
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest
