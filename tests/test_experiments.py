"""Harness tests: config parsing with named errors, k rules, rate fitting,
CSV schema and reproducibility, and tiny end-to-end runner runs."""

import math
import pathlib

import numpy as np
import pytest

from knnrates import (ConfigError, DegenerateFitError, ExperimentRecord,
                      KRule, build_config, fit_rate, holder_bound,
                      knn_set_count_bound, load_config_file, read_records,
                      records_to_csv, run_coverage, run_levelset, run_maxima,
                      run_regression_rate, run_setcount, write_records)
from knnrates.experiments import (EXPERIMENT_KINDS, bound_params_for,
                                  experiment_field, parse_config_text,
                                  probe_set, resolve_k)


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
    # A kind or k rule rejects the keys it does not read, so overriding the
    # field or density kind or the k rule, or fixing k by k.values, drops
    # the base's keys of that section.
    for section, kind in (("density", "kind"), ("field", "kind"),
                          ("k", "rule"), ("k", "values")):
        if f"{section}.{kind}" in over:
            pairs = {key: value for key, value in pairs.items()
                     if not key.startswith(section + ".")}
    pairs.update(over)
    return pairs


def setcount_pairs(**over):
    """base_pairs for a setcount study, which reads no k rule, noise,
    trial.delta or field.* keys."""
    pairs = base_pairs(**{"experiment.kind": "setcount", **over})
    return {key: value for key, value in pairs.items()
            if not key.startswith(("field.", "noise.", "k.rule", "k.exponent",
                                   "trial.delta"))}


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

    # After a made-up key, the keys a config would use to shape a curve
    # other than the circle, override constants the generators declare,
    # fix the level-set margin, repeat --out, shape a ball or a linear
    # field, or give a constant field its own dimension.
    @pytest.mark.parametrize("key", [
        "density.sides", "manifold.tube_radius", "manifold.winding",
        "manifold.theta0", "manifold.theta1", "manifold.pitch",
        "bounds.gamma", "bounds.p0", "bounds.r0", "bounds.sigma",
        "level.epsilon_override", "output.path", "density.center",
        "density.radius", "field.a", "field.b", "field.dim"])
    def test_unknown_key_named(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
            build_config(base_pairs(**{key: "1"}))

    # Each key in a config whose path does not read it: a power rule reads
    # no k.mode and an optimal rule no k.exponent; k.values leaves every
    # k.rule key unread, and no study reads k.fixed; only levelset reads
    # the level.* keys; manifold.* keys need a manifold.kind; setcount
    # reads no k rule, noise or trial.delta.
    @pytest.mark.parametrize("study, key, value", [
        ("power", "k.fixed", "7"), ("optimal", "k.fixed", "7"),
        ("values", "k.fixed", "7"), ("values", "k.rule", "power"),
        ("values", "k.exponent", "0.5"), ("values", "k.factor", "2"),
        ("values", "k.mode", "regression"),
        ("power", "level.lambda", "0.3"), ("power", "level.m2", "0.3"),
        ("power", "k.mode", "regression"), ("power", "manifold.radius", "0.2"),
        ("optimal", "k.exponent", "0.5"), ("setcount", "k.rule", "power"),
        ("setcount", "k.fixed", "3"), ("setcount", "noise.kind", "gaussian"),
        ("setcount", "noise.scale", "0.1"), ("setcount", "trial.delta", "0.1"),
        ("setcount", "level.m2", "0.3")])
    def test_unread_key_named(self, study, key, value):
        pairs = {"power": base_pairs(),
                 "optimal": base_pairs(**{"k.rule": "optimal"}),
                 "values": base_pairs(**{"k.values": "3, 5"}),
                 "setcount": setcount_pairs(**{
                     "k.values": "1, 3", "density.low": "0, 0",
                     "density.high": "1, 1"})}[study]
        assert key not in pairs
        with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
            build_config({**pairs, key: value})

    @pytest.mark.parametrize("kind, extra", [
        ("levelset", {"level.lambda": "0.0"}), ("maxima", {}),
        ("setcount", {"k.values": "1"})], ids=["levelset", "maxima",
                                                "setcount"])
    def test_manifold_only_for_regression_and_coverage(self, kind, extra):
        with pytest.raises(ConfigError, match=f"^experiment.kind: {kind} "
                           "supports full-dimensional densities only"):
            build_config({
                "experiment.kind": kind, "seed.master": "1",
                "ladder.n": "32", "manifold.kind": "circle",
                "manifold.ambient_dim": "3", **extra})

    def test_levelset_needs_lambda(self):
        with pytest.raises(ConfigError, match="^level.lambda is required"):
            build_config(base_pairs(**{"experiment.kind": "levelset"}))

    def test_setcount_needs_k_values(self):
        with pytest.raises(ConfigError, match="^k.values is required"):
            build_config(setcount_pairs(**{"density.low": "0, 0",
                                           "density.high": "1, 1"}))

    def test_repeated_k_values_rejected(self):
        with pytest.raises(ConfigError, match="^k.values: .*distinct"):
            build_config(setcount_pairs(**{"k.values": "3, 1, 3"}))

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

    @pytest.mark.parametrize("key, kind", [
        ("density.kind", "uniform-ball"), ("field.kind", "linear"),
        ("noise.kind", "rademacher"), ("noise.kind", "uniform-bounded")])
    def test_unused_kinds_rejected(self, key, kind):
        with pytest.raises(ConfigError, match=f"^{key}: .*{kind}"):
            build_config(base_pairs(**{key: kind}))

    def test_only_the_circle_manifold(self):
        with pytest.raises(ConfigError, match="^manifold.kind: .*torus-curve"):
            build_config({
                "experiment.kind": "regression", "seed.master": "1",
                "ladder.n": "32", "manifold.kind": "torus-curve",
                "manifold.ambient_dim": "3"})

    def test_full_roundtrip(self):
        cfg = build_config(base_pairs())
        assert cfg.kind == "regression"
        assert cfg.n_ladder == (32, 64)
        assert cfg.density.p0 == 1.0
        assert cfg.noise.sigma == 0.1


CANNED_CONFIGS = sorted(
    path for root in ("scripts", "perfbench")
    for path in (pathlib.Path(__file__).resolve().parent.parent / root
                 / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CANNED_CONFIGS,
                         ids=lambda p: f"{p.parent.parent.name}/{p.name}")
def test_canned_config_loads(path):
    assert load_config_file(path).kind in EXPERIMENT_KINDS


class TestKRule:
    def test_power_rule_ceil(self):
        rule = KRule(rule="power", exponent=2.0 / 3.0)
        assert resolve_k(rule, 512, 1, None) == math.ceil(512 ** (2.0 / 3.0))

    def test_optimal_rule_regression(self):
        rule = KRule(rule="optimal", mode="regression")
        assert resolve_k(rule, 10 ** 4, 2, 1.0) == 100

    def test_optimal_rule_maxima(self):
        rule = KRule(rule="optimal", mode="maxima")
        assert resolve_k(rule, 10 ** 5, 1, None) == 10 ** 4

    @pytest.mark.parametrize("rule, smoothness", [
        (KRule(rule="power", exponent=200.0), None),
        (KRule(rule="power", exponent=0.5, factor=1e308), None),
        (KRule(rule="optimal", factor=1e308), 1.0),
        (KRule(rule="optimal", mode="maxima", factor=1e308), None)],
        ids=["power-exponent", "power-factor", "optimal-factor",
             "optimal-maxima-factor"])
    def test_k_past_float_range_clips_to_n(self, rule, smoothness):
        # 128 ** 200 overflows a float, and 1e308 times a k above 1.8 is
        # inf; either k is past n, so it is n.
        assert resolve_k(rule, 128, 1, smoothness) == 128

    def test_validation(self):
        with pytest.raises(ConfigError):
            KRule(rule="sometimes")
        with pytest.raises(ConfigError, match="^k.rule: unknown rule"):
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

    def test_rung_with_two_ks_degenerate(self):
        # One median over the records of two ks would mix two estimators'
        # errors; the error names the rung and its ks.
        from dataclasses import replace

        records = [rec(n, n ** -0.5) for n in (100, 200, 400, 800)]
        records.append(replace(rec(200, 1.0, seed=1), k=4))
        with pytest.raises(DegenerateFitError,
                           match=r"rung n=200 .*ks \[1, 4\]"):
            fit_rate(records, "sup_error")
        # A k that changes from rung to rung, as a k rule gives, still
        # fits, and so do other quantities' records at other ks.
        ruled = [replace(rec(n, n ** -0.5), k=n // 100)
                 for n in (100, 200, 400, 800)]
        ruled.append(replace(rec(200, 1.0, quantity="radius_max"), k=9))
        assert abs(fit_rate(ruled, "sup_error").slope + 0.5) <= 1e-10


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

    def test_maxima_zero_noise_k1_nearest_sample(self):
        cfg = build_config(base_pairs(**{
            "experiment.kind": "maxima", "ladder.n": "64",
            "trial.seeds_per_n": "1", "noise.kind": "none", "noise.scale": "0",
            "k.values": "1",
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
        cfg = build_config(setcount_pairs(**{
            "ladder.n": "4, 8", "k.values": "1, 3", "probes.cells": "49",
            "density.kind": "uniform-box", "density.low": "0, 0",
            "density.high": "1, 1"}))
        records = run_setcount(cfg)
        assert len(records) == 8  # 2 rungs x 2 seeds x 2 ks
        for r in records:
            assert r.value <= r.bound == knn_set_count_bound(r.n, 2)
        # Each trial counts both ks at once and carries its time in both.
        for n, s in ((4, 0), (4, 1), (8, 0), (8, 1)):
            assert len({r.ms for r in records if (r.n, r.seed) == (n, s)}) == 1

    def test_setcount_rung_below_every_k_has_no_trials(self):
        cfg = build_config(setcount_pairs(**{
            "ladder.n": "2, 4", "k.values": "3", "probes.cells": "9",
            "density.low": "0, 0", "density.high": "1, 1"}))
        records = run_setcount(cfg)
        assert [(r.n, r.k, r.seed) for r in records] == [(4, 3, 0), (4, 3, 1)]

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

    def test_halton_probe_high_dim(self):
        cfg = build_config(base_pairs(**{
            "density.kind": "uniform-box", "density.low": "0, 0, 0",
            "density.high": "1, 1, 1", "probes.count": "256",
            "field.center": "0.5, 0.5, 0.5"}))
        probes, h = probe_set(cfg)
        assert probes.n == 256 and h is None
        assert ((probes.points >= 0) & (probes.points <= 1)).all()

    @pytest.mark.parametrize("over, key", [
        ({"probes.cells": "100000", "density.low": "0, 0",
          "density.high": "1, 1", "field.center": "0.5, 0.5"},
         "probes.cells"),
        ({"probes.cells": "4194304"}, "probes.cells"),
        ({"experiment.kind": "levelset", "level.lambda": "0.5",
          "probes.cells": "512", "density.low": "0, 0, 0",
          "density.high": "1, 1, 1", "field.center": "0.5, 0.5, 0.5"},
         "probes.cells"),
        ({"probes.count": "4194305"}, "probes.count"),
        ({"manifold.kind": "circle", "manifold.ambient_dim": "4",
          "manifold.radius": "0.1592", "probes.cells": "4194305"},
         "probes.cells")])
    def test_oversized_probe_sets_rejected(self, over, key):
        pairs = base_pairs(**over)
        if "manifold.kind" in over:
            for name in [n for n in pairs
                         if n.startswith(("density.", "field."))]:
                del pairs[name]
        with pytest.raises(ConfigError, match=f"^{key}: .* over the budget"):
            build_config(pairs)

    @pytest.mark.parametrize("over, key", [
        ({"ladder.n": "0, 64"}, "ladder.n"),
        ({"experiment.kind": "setcount", "k.values": "1, 0"}, "k.values"),
        ({"probes.cells": "0"}, "probes.cells"),
        ({"probes.count": "0", "density.low": "0, 0, 0",
          "density.high": "1, 1, 1", "field.center": "0.5, 0.5, 0.5"},
         "probes.count")])
    def test_values_below_one_rejected(self, over, key):
        with pytest.raises(ConfigError, match=f"^{key}: .*must be >= 1"):
            build_config(base_pairs(**over))

    def test_probe_budget_edge_accepted(self):
        # 2048^2 grid points is exactly the budget; a Halton box ignores
        # the grid setting; a manifold lays one probe per cell.
        build_config(base_pairs(**{"probes.cells": "2047", "density.low": "0, 0",
                                   "density.high": "1, 1",
                                   "field.center": "0.5, 0.5"}))
        build_config(base_pairs(**{"probes.cells": "100000",
                                   "probes.count": "4194304",
                                   "density.low": "0, 0, 0",
                                   "density.high": "1, 1, 1",
                                   "field.center": "0.5, 0.5, 0.5"}))
        pairs = base_pairs(**{"manifold.kind": "circle",
                              "manifold.ambient_dim": "4",
                              "manifold.radius": "0.1592",
                              "probes.cells": "4194304"})
        for name in [n for n in pairs if n.startswith(("density.", "field."))]:
            del pairs[name]
        assert build_config(pairs).probe_cells == 4194304

    @pytest.mark.parametrize("over", [
        {},
        {"density.low": "0, 0", "density.high": "1, 1",
         "field.center": "0.5, 0.5"},
        {"manifold.kind": "circle", "manifold.ambient_dim": "4",
         "manifold.radius": "0.1592"}])
    def test_sample_budget_edge(self, over):
        # The largest rung may draw exactly SAMPLE_BUDGET coordinates (n
        # times the ambient D); one point more is a config error that names
        # ladder.n.  Only the config is built: nothing is sampled.
        from knnrates.experiments import SAMPLE_BUDGET

        dim = int(over.get("manifold.ambient_dim",
                           len(over.get("density.low", "0").split(","))))
        edge = SAMPLE_BUDGET // dim
        pairs = base_pairs(**over)
        if "manifold.kind" in over:
            for name in [n for n in pairs
                         if n.startswith(("density.", "field."))]:
                del pairs[name]
        pairs["ladder.n"] = f"32, {edge}"
        assert build_config(pairs).n_ladder[-1] * dim == SAMPLE_BUDGET
        pairs["ladder.n"] = f"32, {edge + 1}"
        with pytest.raises(ConfigError, match=r"^ladder\.n: .* budget"):
            build_config(pairs)

    def test_rotation_matrix_counts_against_sample_budget(self):
        # A rotated circle draws and factors a D x D matrix.  In R^16384 at
        # n = 1,024 the sample is exactly the budget's n * D coordinates,
        # but the matrix would take 2 GiB: a config error that names
        # manifold.ambient_dim.  Only the config is built: nothing is drawn.
        from knnrates.experiments import SAMPLE_BUDGET

        pairs = base_pairs(**{"manifold.kind": "circle",
                              "manifold.ambient_dim": "16384",
                              "manifold.radius": "0.1592"})
        for name in [n for n in pairs if n.startswith(("density.", "field."))]:
            del pairs[name]
        pairs["ladder.n"] = "32, 1024"
        assert not build_config(pairs).manifold.rotate
        pairs["manifold.rotate"] = "true"
        with pytest.raises(ConfigError,
                           match=r"^manifold\.ambient_dim: .* budget"):
            build_config(pairs)
        # 4096 * 4096 entries is exactly the budget; one dimension more is
        # over it.
        pairs["manifold.ambient_dim"] = "4096"
        assert build_config(pairs).manifold.ambient_dim ** 2 == SAMPLE_BUDGET
        pairs["manifold.ambient_dim"] = "4097"
        with pytest.raises(ConfigError, match=r"^manifold\.ambient_dim: "):
            build_config(pairs)

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

    def test_manifold_constants(self):
        cfg = build_config({
            "experiment.kind": "regression", "seed.master": "1",
            "ladder.n": "32", "manifold.kind": "circle",
            "manifold.ambient_dim": "10", "manifold.radius": "0.15915"})
        params = bound_params_for(cfg, experiment_field(cfg))
        assert params.dim == 10 and params.d == 1
        assert params.tau == pytest.approx(0.15915)
        assert params.p0 == pytest.approx(1.0 / cfg.manifold.length)


# One tiny inline config per runner path; any change to the emitted bytes
# of any kind shows here.  The digests are those of correctly rounded
# neighbor means, which are unique: the levelset, maxima and setcount ones
# date from before the runners came to share one trial loop, the manifold
# and coverage ones moved when the means stopped depending on summation
# order, and the 3-D box (the Halton probe path) was first taken after
# that.
GOLDEN_CONFIGS = {
    "regression-box-3d": (base_pairs(**{
        "density.low": "0, 0, 0", "density.high": "1, 1, 1",
        "field.center": "0.5, 0.5, 0.5", "probes.count": "128",
        "ladder.n": "64, 128"}),
        "345ca3256a84827f7e84db362cd82667a5a0d3e75da4f04f9920ca6b61415588"),
    "manifold": ({
        "experiment.kind": "regression", "seed.master": "5",
        "ladder.n": "64, 128", "trial.seeds_per_n": "2",
        "k.rule": "power", "k.exponent": "0.6667", "probes.cells": "64",
        "noise.kind": "gaussian", "noise.scale": "0.1",
        "manifold.kind": "circle", "manifold.ambient_dim": "4",
        "manifold.radius": "0.15915494309189535", "manifold.rotate": "true",
        "manifold.rotation_seed": "3"},
        "72f6124f3d17e8f02ae602ca59b766216e2050d1d369991cb6656838582d309e"),
    "coverage": (base_pairs(**{
        "experiment.kind": "coverage", "ladder.n": "128, 256",
        "trial.seeds_per_n": "3"}),
        "52bb1cc4a4b42e9692f19a7588049351858d5416e4de8c3b59e4307ed547624c"),
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
    "setcount": (setcount_pairs(**{
        "ladder.n": "3, 6", "k.values": "1, 2, 5", "probes.cells": "29",
        "density.low": "0, 0", "density.high": "1, 1"}),
        "c7a888954a137232fd83ffb4f301f41721a3402b479178b26350122a2ce17e22"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_golden_csv_bytes(name):
    import hashlib

    from knnrates import run_experiment

    pairs, digest = GOLDEN_CONFIGS[name]
    csv = records_to_csv(run_experiment(build_config(pairs)))
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest


def test_manifold_bytes_with_cold_and_warm_rotation():
    # The manifold rotation is built once per (dim, seed) and reused: a
    # study run with it built fresh and one run with it reused write the
    # golden bytes.
    import hashlib

    from knnrates import run_experiment
    from knnrates.synth import _rotation_matrix

    pairs, digest = GOLDEN_CONFIGS["manifold"]
    _rotation_matrix.cache_clear()
    for _ in range(2):
        csv = records_to_csv(run_experiment(build_config(pairs)))
        assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == digest
    assert _rotation_matrix.cache_info().misses == 1


@pytest.mark.parametrize("name", ["regression", "manifold", "coverage",
                                  "levelset", "maxima"])
def test_each_k_writes_the_bytes_of_its_own_study(name):
    # Every k of k.values reads the samples of its trial, so a study of
    # two ks writes, for each k, the bytes of the study of that k alone.
    # Rung 32 of the regression ladder is below k = 40: it has no k = 40
    # trials in either study.
    from knnrates import run_experiment

    pairs = base_pairs() if name == "regression" else GOLDEN_CONFIGS[name][0]
    pairs = {key: value for key, value in pairs.items()
             if not key.startswith("k.")}

    def run(ks):
        return run_experiment(build_config({**pairs, "k.values": ks}))

    both = run("3, 40")
    assert {r.k for r in both} == {3, 40}
    for k in (3, 40):
        assert records_to_csv([r for r in both if r.k == k]) == \
            records_to_csv(run(str(k)))


def study_pairs(name, ks):
    """The pairs of a GOLDEN_CONFIGS study (base_pairs for "regression")
    with its k keys replaced by `k.values = ks`."""
    pairs = base_pairs() if name == "regression" else GOLDEN_CONFIGS[name][0]
    return {**{key: value for key, value in pairs.items()
               if not key.startswith("k.")}, "k.values": ks}


STUDY_KINDS = ["regression", "manifold", "coverage", "levelset", "maxima",
               "setcount"]


@pytest.mark.parametrize("name", STUDY_KINDS)
def test_one_index_per_trial(name, monkeypatch):
    # The ks of a trial read copies of one regressor, so a study of three
    # ks builds one sample index per trial; setcount counts neighbor sets
    # from distance blocks and builds none.
    from knnrates import regression, run_experiment

    build, builds = regression.build_index, []

    def counting(points):
        builds.append(points)
        return build(points)

    monkeypatch.setattr(regression, "build_index", counting)
    records = run_experiment(build_config(study_pairs(name, "1, 2, 5")))
    assert {r.k for r in records} == {1, 2, 5}
    trials = {(r.n, r.seed) for r in records}
    assert len(builds) == (0 if name == "setcount" else len(trials))


@pytest.mark.parametrize("name", STUDY_KINDS)
def test_rung_of_one_only_in_setcount(name):
    # Every bound and level_set_epsilon need n >= 2, so a field study's
    # rung of 1 is a config error on its key; setcount counts sets at n = 1.
    pairs = {**study_pairs(name, "1"), "ladder.n": "1, 512"}
    if name == "setcount":
        assert build_config(pairs).n_ladder == (1, 512)
    else:
        with pytest.raises(ConfigError, match="^ladder.n: rungs must be "
                           ">= 2"):
            build_config(pairs)


@pytest.mark.parametrize("name", STUDY_KINDS)
def test_k_values_above_every_rung_rejected(name):
    # No rung would have a trial: a coverage study would divide by zero
    # rows and the others would write a header alone.
    top = build_config(study_pairs(name, "1")).n_ladder[-1]
    build_config(study_pairs(name, f"{top}, 40000"))
    with pytest.raises(ConfigError, match="^k.values: every entry is above "
                       f"the largest rung, n = {top}"):
        build_config(study_pairs(name, f"{top + 1}, 40000"))


# ---------------------------------------------------------------------------
# trials on a thread pool


class TestParallelTrials:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_records_equal_serial(self, name, force_cpus, thread_starts):
        # Every runner path, on one worker and on two: the same records in
        # the same order, and the golden bytes.
        import hashlib

        from knnrates import run_experiment

        pairs, digest = GOLDEN_CONFIGS[name]
        runs = []
        for cpus in (1, 2):
            force_cpus(cpus)
            del thread_starts[:]
            records = run_experiment(build_config(pairs))
            runs.append(([(r.experiment, r.n, r.k, r.seed, r.quantity,
                           repr(r.value), r.bound, r.valid_k)
                          for r in records], records_to_csv(records)))
            # One worker is a plain loop; two run the trials on a pool.
            assert bool(thread_starts) == (cpus == 2)
        assert runs[0] == runs[1]
        assert hashlib.sha256(runs[1][1].encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("name", ["coverage", "manifold", "setcount"])
    def test_more_workers_than_cores(self, name, force_cpus):
        # Eight workers over eight trials that switch threads as often as
        # the interpreter allows: the trials share only read-only state (the
        # config, field, probes and cached rotation), so the records are
        # still the serial ones.
        import sys

        from knnrates import run_experiment
        from knnrates.synth import _rotation_matrix

        pairs = dict(GOLDEN_CONFIGS[name][0], **{"trial.seeds_per_n": "4"})
        force_cpus(1)
        serial = records_to_csv(run_experiment(build_config(pairs)))
        force_cpus(8)
        _rotation_matrix.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = records_to_csv(run_experiment(build_config(pairs)))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == serial

    @pytest.mark.parametrize("name", ["coverage", "setcount"])
    def test_failing_trial_raises_as_serial(self, name, monkeypatch,
                                            force_cpus):
        # Two trials fail, the later one first in time: the pool raises the
        # error of the first failing trial in ladder order, as a serial loop
        # does, and leaves no thread running.
        import threading
        import time

        from knnrates import experiments, run_experiment

        pairs = dict(GOLDEN_CONFIGS[name][0], **{"trial.seeds_per_n": "2"})
        cfg = build_config(pairs)
        first, second = (cfg.n_ladder[0], 1), (cfg.n_ladder[1], 0)
        real = experiments.stream_seed

        def failing(master, n, trial, label):
            if (n, trial) == first:
                time.sleep(0.05)
            if (n, trial) in (first, second):
                raise RuntimeError(f"trial n={n} seed={trial} failed")
            return real(master, n, trial, label)

        monkeypatch.setattr(experiments, "stream_seed", failing)
        errors = []
        for cpus in (1, 2):
            force_cpus(cpus)
            before = threading.active_count()
            with pytest.raises(RuntimeError) as info:
                run_experiment(cfg)
            errors.append((type(info.value), str(info.value)))
            assert threading.active_count() == before
        assert errors[0] == errors[1] == (
            RuntimeError, f"trial n={first[0]} seed=1 failed")

    def test_failure_while_another_item_runs(self, force_cpus):
        # Item 0 fails at once while the other worker sleeps in item 1: no
        # index is handed out after the failure, the call raises item 0's
        # error once item 1 is done, and no thread outlives it.
        import threading
        import time

        from knnrates.neighbors import _map_on_cpus

        called = []

        def item(i):
            called.append(i)
            if i == 0:
                raise RuntimeError("item 0 failed")
            time.sleep(0.05)
            return i

        force_cpus(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="item 0 failed"):
            _map_on_cpus(item, range(8))
        assert threading.active_count() == before
        assert 0 in called and len(called) <= 2

    def test_one_trial_starts_no_thread(self, force_cpus, thread_starts):
        from knnrates import run_experiment

        force_cpus(2)
        cfg = build_config(base_pairs(**{"ladder.n": "64",
                                         "trial.seeds_per_n": "1"}))
        assert len(run_experiment(cfg)) == 1
        assert thread_starts == []

    def test_usable_cpus(self, monkeypatch, force_cpus, thread_starts):
        # One worker per CPU of the affinity set where the platform has one,
        # else of the machine, and a plain loop when even that is unknown;
        # the caller is one of the workers, so one helper thread starts
        # per further CPU.  Each item sleeps, so that no worker is idle
        # while items are handed out and every worker starts.
        import os
        import time

        from knnrates.neighbors import _map_on_cpus

        def square(x):
            time.sleep(0.01)
            return x * x

        for cpus, want in ((3, 2), (5, 4), (None, 0)):
            if cpus == 3:
                force_cpus(3)
            else:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            del thread_starts[:]
            assert _map_on_cpus(square, range(8)) == [x * x for x in range(8)]
            assert len(thread_starts) == want

    def test_two_trials_peak_memory(self, force_cpus):
        # Two manifold trials at once, n = 8192 in R^10 with k = 408 and 512
        # probes.  Each D >= 2 batch chunk holds _CHUNK_ENTRIES = 2^16 tree
        # entries, of which it keeps the indices and one limb gather; traced
        # peaks with numpy 2.4 and scipy 1.17 on x86-64: 3.7-3.8 MiB, against
        # 5.3 MiB with 2^17 entries, 8.4-8.6 MiB with 2^20 (one chunk of all
        # 512 rows), and 4.4-5.3 MiB when a chunk also kept its tree
        # distances and a copy of its member indices.  Six trials give the
        # two workers' chunks many chances to overlap.  scipy's kd-tree is
        # imported before tracing starts, so the peak is the trials' own
        # whatever tests ran before.
        import tracemalloc

        from scipy.spatial import cKDTree  # noqa: F401

        from knnrates import run_experiment

        force_cpus(2)
        cfg = build_config({
            "experiment.kind": "regression", "seed.master": "11",
            "ladder.n": "8192", "trial.seeds_per_n": "6",
            "k.values": "408", "probes.cells": "512",
            "noise.kind": "gaussian", "noise.scale": "0.1",
            "manifold.kind": "circle", "manifold.ambient_dim": "10",
            "manifold.radius": "0.15915494309189535",
            "manifold.rotate": "true", "manifold.rotation_seed": "7"})
        probe_set(cfg)  # the rotation is cached before tracing starts
        tracemalloc.start()
        try:
            records = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 6
        assert peak < 4.25 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
