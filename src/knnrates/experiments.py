"""Config-driven Monte Carlo experiments verifying the convergence theory.

A config is a flat UTF-8 `key = value` file with dotted section prefixes
and `#` comments.  Each experiment walks an n-ladder, runs seeded trials,
and emits records with the measured quantity next to the theoretical bound
recomputable from the config.  Records serialize to a fixed CSV schema
with 17-significant-digit decimals; the wall-time column is zeroed in the
serialized form so that identical (config, seed) runs produce identical
bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import bounds as bnd
from .bounds import (BoundParams, MissingParameterError, k_range_check,
                     knn_set_count_bound, level_set_epsilon, optimal_k)
from .neighbors import PointSet, knn_radii
from .regression import Dataset, ScalarField, make_regressor, sup_error
from .structures import (cloud_from_level_set, count_distinct_knn_sets,
                         estimate_level_set, estimate_maxima,
                         hausdorff_distance, true_level_set_grid)
from .synth import (DensitySpec, ManifoldSpec, NoiseSpec, ball_halton,
                    embed_manifold, halton_probes, make_field, manifold_field,
                    manifold_probe_grid, sample_noise, sample_points,
                    stream_seed, support_box, truncated_mixture, uniform_ball,
                    uniform_box, uniform_grid)


class ConfigError(ValueError):
    pass


EXPERIMENT_KINDS = ("regression", "levelset", "maxima", "coverage", "setcount")

CSV_HEADER = "experiment,n,k,seed,quantity,value,bound,valid_k,ms"


@dataclass(frozen=True)
class KRule:
    """How k is chosen per rung: a fixed value, the rate-optimal power, or
    an explicit power law ceil(factor * n^exponent)."""

    rule: str = "optimal"
    fixed: Optional[int] = None
    mode: str = "regression"
    factor: float = 1.0
    exponent: Optional[float] = None

    def __post_init__(self):
        if self.rule not in ("fixed", "optimal", "power"):
            raise ConfigError(f"k.rule: unknown rule {self.rule!r}")
        if self.rule == "fixed" and (self.fixed is None or self.fixed < 1):
            raise ConfigError("k.fixed: a positive integer is required")
        if self.rule == "power" and (self.exponent is None or self.exponent <= 0):
            raise ConfigError("k.exponent: a positive exponent is required")


def resolve_k(rule: KRule, n: int, rate_dim: int,
              smoothness: Optional[float]) -> int:
    if rule.rule == "fixed":
        k = rule.fixed
    elif rule.rule == "power":
        k = math.ceil(rule.factor * n ** rule.exponent)
    else:
        if rule.mode != "maxima" and smoothness is None:
            raise ConfigError(
                "k.mode: the optimal rule needs a field with a declared "
                "smoothness or regularity exponent")
        k = max(1, round(rule.factor * optimal_k(n, smoothness, rate_dim,
                                                 rule.mode)))
    return min(max(1, int(k)), n)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    master_seed: int
    n_ladder: tuple
    seeds_per_n: int = 1
    delta: float = 0.1
    k_rule: KRule = field(default_factory=KRule)
    k_values: tuple = ()
    probe_cells: int = 512
    probe_count: int = 4096
    density: Optional[DensitySpec] = None
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec("none"))
    field_kind: Optional[str] = None
    field_params: Optional[dict] = None
    manifold: Optional[ManifoldSpec] = None
    level_lambda: Optional[float] = None
    epsilon_override: Optional[float] = None
    m2: Optional[float] = None
    bounds_overrides: Optional[dict] = None
    out_path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment.kind: unknown kind {self.kind!r}")
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder:
            raise ConfigError("ladder.n: at least one rung is required")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("ladder.n: rungs must be strictly increasing")
        object.__setattr__(self, "n_ladder", ladder)
        if self.seeds_per_n < 1:
            raise ConfigError("trial.seeds_per_n: must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("trial.delta: must lie in (0, 1)")
        if self.density is None and self.manifold is None:
            raise ConfigError("density.kind or manifold.kind is required")


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    n: int
    k: int
    seed: int
    quantity: str
    value: float
    bound: float
    valid_k: bool
    ms: int


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    medians: tuple  # ((n, median), ...)
    residual_rms: float
    rungs: int
    slope_stderr: float


class DegenerateFitError(ValueError):
    pass


def fit_rate(records, quantity: str) -> RateFit:
    """OLS of log(per-rung median) on log(n).  Non-finite values (recorded
    failure rows) are dropped; a rung with no finite values, fewer than four
    rungs, or a non-positive median makes the fit degenerate."""
    by_n = {}
    for r in records:
        if r.quantity == quantity and math.isfinite(r.value):
            by_n.setdefault(r.n, []).append(r.value)
    if len(by_n) < 4:
        raise DegenerateFitError(
            f"need >= 4 rungs with finite {quantity!r} values, got {len(by_n)}")
    ns = sorted(by_n)
    medians = [float(np.median(by_n[n])) for n in ns]
    if any(m <= 0.0 for m in medians):
        raise DegenerateFitError(
            f"non-positive per-rung median for {quantity!r}; log-log fit declined")
    x = np.log(np.asarray(ns, dtype=np.float64))
    y = np.log(np.asarray(medians))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    m = len(ns)
    if m > 2:
        s2 = float(resid @ resid) / (m - 2)
        stderr = math.sqrt(s2 / float(((x - x.mean()) ** 2).sum()))
    else:
        stderr = float("nan")
    return RateFit(slope=float(slope), intercept=float(intercept),
                   medians=tuple(zip(ns, medians)), residual_rms=rms,
                   rungs=m, slope_stderr=stderr)


# ---------------------------------------------------------------------------
# shared trial machinery


def experiment_field(cfg: ExperimentConfig) -> ScalarField:
    if cfg.manifold is not None:
        return manifold_field(cfg.manifold)
    if cfg.field_kind is None:
        raise ConfigError("field.kind is required")
    return make_field(cfg.field_kind, **(cfg.field_params or {}))


def bound_params_for(cfg: ExperimentConfig, fld: ScalarField) -> BoundParams:
    md = fld.metadata
    if cfg.manifold is not None:
        base = dict(dim=cfg.manifold.ambient_dim, p0=cfg.manifold.p0,
                    d=cfg.manifold.d, tau=cfg.manifold.tau)
    else:
        ds = cfg.density
        base = dict(dim=ds.dim, gamma=ds.gamma, p0=ds.p0, r0=ds.r0)
    base.update(sigma=cfg.noise.sigma, delta=cfg.delta, alpha=md.alpha,
                c_alpha=md.c_alpha, beta=md.beta, c_low=md.c_low,
                c_high=md.c_high, r_m=md.r_m, m2=cfg.m2)
    base.update(cfg.bounds_overrides or {})
    return BoundParams(**base)


def probe_set(cfg: ExperimentConfig):
    """Deterministic probe cloud over the support: a uniform grid per
    dimension for D <= 2 (and for the arc-length coordinate of manifolds),
    a Halton cloud for D >= 3.  Returns (points, spacing-or-None)."""
    if cfg.manifold is not None:
        spec = cfg.manifold
        return (manifold_probe_grid(spec, cfg.probe_cells),
                spec.length / cfg.probe_cells)
    ds = cfg.density
    lo, hi = support_box(ds)
    if ds.dim <= 2:
        grid, h = uniform_grid(lo, hi, cfg.probe_cells)
        pts = grid.points
        if ds.kind == "uniform-ball":
            c = np.asarray(ds.center)
            keep = ((pts - c) ** 2).sum(axis=1) <= ds.radius ** 2
            pts = pts[keep]
            if pts.shape[0] == 0:
                raise ConfigError("probes.cells: grid too coarse to place "
                                  "probes inside the ball support")
        return PointSet(pts), h
    if ds.kind == "uniform-ball":
        return PointSet(ball_halton(ds.center, ds.radius,
                                    cfg.probe_count)), None
    return halton_probes(lo, hi, cfg.probe_count), None


def _validity(params: BoundParams, n: int, k: int, setting: str) -> bool:
    try:
        return k_range_check(params, n, k, setting).passed
    except (MissingParameterError, ValueError):
        return False


def _try(fn, *args, **kwargs) -> float:
    try:
        return float(fn(*args, **kwargs))
    except MissingParameterError:
        return float("nan")


def _run_trials(cfg: ExperimentConfig, fld: ScalarField, setting: str,
                bounds, measure) -> list:
    """The n-ladder x seed loop shared by the field-based runners.

    Per rung it resolves k, evaluates `bounds(params, n, k)` (a dict from
    quantity to bound) and the k-window validity for `setting`.  Per seed it
    draws the trial dataset from the (master, n, seed, label) streams and
    records every (quantity, value) pair that `measure(data, k)` returns,
    with the trial's wall time.
    """
    params = bound_params_for(cfg, fld)
    dim = cfg.manifold.d if cfg.manifold is not None else cfg.density.dim
    smoothness = fld.metadata.beta if cfg.k_rule.mode == "levelset_beta" \
        else fld.metadata.alpha
    records = []
    for n in cfg.n_ladder:
        k = resolve_k(cfg.k_rule, n, dim, smoothness)
        bound = bounds(params, n, k)
        valid = _validity(params, n, k, setting)
        for s in range(cfg.seeds_per_n):
            t0 = time.perf_counter()
            seed = stream_seed(cfg.master_seed, n, s, "points")
            if cfg.manifold is not None:
                x = embed_manifold(cfg.manifold, n, seed).points
            else:
                x = sample_points(cfg.density, n, seed)
            noise = sample_noise(cfg.noise, n,
                                 stream_seed(cfg.master_seed, n, s, "noise"))
            pairs = measure(Dataset(x, fld.evaluate(x.points) + noise), k)
            ms = int(round(1000.0 * (time.perf_counter() - t0)))
            records.extend(ExperimentRecord(cfg.kind, n, k, s, q, value,
                                            bound[q], valid, ms)
                           for q, value in pairs)
    return records


# ---------------------------------------------------------------------------
# runners


def run_regression_rate(cfg: ExperimentConfig) -> list:
    """Per (n, seed): sample, observe, regress, and record the probe-grid
    sup error next to the closed-form bound."""
    fld = experiment_field(cfg)
    probes, _ = probe_set(cfg)
    manifold = cfg.manifold is not None
    return _run_trials(
        cfg, fld, "manifold" if manifold else "full",
        lambda params, n, k: {"sup_error": _try(
            bnd.holder_bound, params, n, k, manifold=manifold)},
        lambda data, k: [("sup_error",
                          sup_error(make_regressor(data, k), fld, probes).sup)])


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    radius_coverage: float
    sup_violations: tuple
    radius_violations: tuple
    records: list


def run_coverage(cfg: ExperimentConfig) -> CoverageResult:
    """Fraction of trials in which the measured sup error (and separately
    the max probe k-NN radius) stays under its theoretical bound."""
    fld = experiment_field(cfg)
    probes, _ = probe_set(cfg)
    manifold = cfg.manifold is not None

    def bounds(params, n, k):
        err_bound = _try(bnd.holder_bound, params, n, k, manifold=manifold)
        if manifold:
            rad_bound = _try(bnd.manifold_radius_bound, params, n, k)
        else:
            rad_bound = _try(bnd.radius_bound, params, n, k, check=False)
        if not (math.isfinite(err_bound) and math.isfinite(rad_bound)):
            raise ConfigError(
                "coverage requires density and field constants sufficient "
                "for the error and radius bounds")
        return {"sup_error": err_bound, "radius_max": rad_bound}

    def measure(data, k):
        reg = make_regressor(data, k)
        return [("sup_error", sup_error(reg, fld, probes).sup),
                ("radius_max",
                 float(knn_radii(reg.index, probes.points, k).max()))]

    records = _run_trials(cfg, fld, "manifold" if manifold else "full",
                          bounds, measure)

    def tally(quantity):
        rows = [r for r in records if r.quantity == quantity]
        misses = tuple((r.n, r.seed) for r in rows if not r.value <= r.bound)
        return (len(rows) - len(misses)) / len(rows), misses

    coverage, sup_violations = tally("sup_error")
    radius_coverage, radius_violations = tally("radius_max")
    return CoverageResult(coverage, radius_coverage, sup_violations,
                          radius_violations, records)


def run_levelset(cfg: ExperimentConfig) -> list:
    """Per trial: estimate the level set with the data-driven margin and
    record its Hausdorff distance to the grid-discretized truth.  Empty
    estimates or empty truth produce failure rows (NaN value), not crashes."""
    if cfg.manifold is not None:
        raise ConfigError("experiment.kind: levelset supports full-dimensional "
                          "densities only")
    if cfg.level_lambda is None:
        raise ConfigError("level.lambda is required for levelset experiments")
    fld = experiment_field(cfg)
    lam = float(cfg.level_lambda)
    lo, hi = support_box(cfg.density)
    grid, h = uniform_grid(lo, hi, cfg.probe_cells)
    truth = true_level_set_grid(fld, lam, grid, spacing=h)
    D = cfg.density.dim

    def measure(data, k):
        reg = make_regressor(data, k)
        if cfg.epsilon_override is not None:
            eps = float(cfg.epsilon_override)
        else:
            eps = level_set_epsilon(data, D, k, cfg.delta).epsilon
        est = estimate_level_set(reg, lam, eps)
        if truth.size == 0 or est.member_indices.size == 0:
            return [("d_H", float("nan"))]
        return [("d_H", hausdorff_distance(cloud_from_level_set(est, D),
                                           truth))]

    return _run_trials(
        cfg, fld, "levelset",
        lambda params, n, k: {"d_H": _try(bnd.level_set_dh_bound,
                                          params, n, k)},
        measure)


def run_maxima(cfg: ExperimentConfig) -> list:
    """Per trial: record the distance from the sample argmax of the
    regressor to the field's true maximizer, next to the guarantee."""
    if cfg.manifold is not None:
        raise ConfigError("experiment.kind: maxima supports full-dimensional "
                          "densities only")
    fld = experiment_field(cfg)
    if fld.metadata.argmax is None:
        raise ConfigError("field.kind: maxima experiments need a field with "
                          "a declared maximizer")
    x0 = np.asarray(fld.metadata.argmax)

    def measure(data, k):
        est = estimate_maxima(make_regressor(data, k))
        return [("maxima_dist", float(np.linalg.norm(est.location - x0)))]

    return _run_trials(
        cfg, fld, "maxima",
        lambda params, n, k: {"maxima_dist": _try(bnd.maxima_distance_bound,
                                                  params, n, k)},
        measure)


def run_setcount(cfg: ExperimentConfig) -> list:
    """Count distinct neighbor sets over a probe grid and record them next
    to the combinatorial cap."""
    if cfg.manifold is not None:
        raise ConfigError("experiment.kind: setcount supports full-dimensional "
                          "densities only")
    if not cfg.k_values:
        raise ConfigError("k.values is required for setcount experiments")
    probes, _ = probe_set(cfg)
    D = cfg.density.dim
    records = []
    for n in cfg.n_ladder:
        cap = float(knn_set_count_bound(n, D))
        for s in range(cfg.seeds_per_n):
            x = sample_points(cfg.density, n,
                              stream_seed(cfg.master_seed, n, s, "points"))
            data = Dataset(x=x, y=np.zeros(n))
            for k in cfg.k_values:
                if k > n:
                    continue
                t0 = time.perf_counter()
                count = count_distinct_knn_sets(data, k, probes)
                ms = int(round(1000.0 * (time.perf_counter() - t0)))
                records.append(ExperimentRecord(cfg.kind, n, int(k), s,
                                                "set_count", float(count),
                                                cap, k <= n, ms))
    return records


def run_experiment(cfg: ExperimentConfig):
    """Dispatch on the experiment kind; returns the record list."""
    if cfg.kind == "regression":
        return run_regression_rate(cfg)
    if cfg.kind == "coverage":
        return run_coverage(cfg).records
    if cfg.kind == "levelset":
        return run_levelset(cfg)
    if cfg.kind == "maxima":
        return run_maxima(cfg)
    return run_setcount(cfg)


# ---------------------------------------------------------------------------
# CSV serialization


def _fmt(x: float) -> str:
    return "nan" if math.isnan(x) else "%.17g" % x


def records_to_csv(records) -> str:
    """Fixed schema, records sorted by (n, seed, quantity, k); the ms column
    serializes as 0 so identical runs give identical bytes."""
    lines = [CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.n, r.seed, r.quantity, r.k)):
        lines.append(f"{r.experiment},{r.n},{r.k},{r.seed},{r.quantity},"
                     f"{_fmt(r.value)},{_fmt(r.bound)},{int(r.valid_k)},0")
    return "\n".join(lines) + "\n"


def write_records(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(records_to_csv(records))


def read_records(path) -> list:
    records = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            cols = line.split(",")
            if len(cols) != 9:
                raise ValueError(f"{path}: malformed row {line!r}")
            records.append(ExperimentRecord(
                experiment=cols[0], n=int(cols[1]), k=int(cols[2]),
                seed=int(cols[3]), quantity=cols[4], value=float(cols[5]),
                bound=float(cols[6]), valid_k=bool(int(cols[7])),
                ms=int(cols[8])))
    return records


# ---------------------------------------------------------------------------
# config file format


_LIST_KEYS = {"ladder.n", "k.values", "density.low", "density.high",
              "density.center", "density.bump_center", "field.center",
              "field.a"}

_KNOWN_KEYS = {
    "experiment.kind", "seed.master", "trial.seeds_per_n", "trial.delta",
    "ladder.n", "k.rule", "k.fixed", "k.mode", "k.factor", "k.exponent",
    "k.values", "probes.cells", "probes.count",
    "density.kind", "density.low", "density.high", "density.center",
    "density.radius", "density.bump_center", "density.bump_sigma",
    "density.bump_weight",
    "noise.kind", "noise.scale",
    "field.kind", "field.value", "field.dim", "field.a", "field.b",
    "field.center", "field.slope", "field.peak", "field.level",
    "field.c_alpha", "field.alpha", "field.curvature", "field.height",
    "field.r_m",
    "manifold.kind", "manifold.ambient_dim", "manifold.radius",
    "manifold.tube_radius", "manifold.winding", "manifold.theta0",
    "manifold.theta1", "manifold.pitch", "manifold.rotate",
    "manifold.rotation_seed", "manifold.field_slope",
    "manifold.field_center_s", "manifold.field_peak",
    "level.lambda", "level.epsilon_override", "level.m2",
    "bounds.gamma", "bounds.p0", "bounds.r0", "bounds.sigma",
    "output.path",
}


def parse_config_text(text: str) -> dict:
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def load_config_file(path) -> "ExperimentConfig":
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return build_config(parse_config_text(text))


def _get(pairs, key, conv, default=None, required=False):
    if key not in pairs:
        if required:
            raise ConfigError(f"{key}: required key is missing")
        return default
    raw = pairs[key]
    try:
        return conv(raw)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({e})") from e


def _floats(raw: str):
    return tuple(float(v) for v in raw.split(","))


def _ints(raw: str):
    return tuple(int(v) for v in raw.split(","))


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def build_config(pairs: dict) -> ExperimentConfig:
    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError("unknown config key(s): " + ", ".join(unknown))

    kind = _get(pairs, "experiment.kind", str, required=True)
    density = _density_from(pairs)
    manifold = _manifold_from(pairs)
    noise_kind = _get(pairs, "noise.kind", str, default="none")
    noise = NoiseSpec(kind=noise_kind,
                      scale=_get(pairs, "noise.scale", float, default=0.0))

    k_rule = KRule(rule=_get(pairs, "k.rule", str, default="optimal"),
                   fixed=_get(pairs, "k.fixed", int),
                   mode=_get(pairs, "k.mode", str, default="regression"),
                   factor=_get(pairs, "k.factor", float, default=1.0),
                   exponent=_get(pairs, "k.exponent", float))

    field_kind = _get(pairs, "field.kind", str)
    field_params = _field_params_from(pairs, field_kind, density, kind)

    overrides = {}
    for name in ("gamma", "p0", "r0", "sigma"):
        v = _get(pairs, f"bounds.{name}", float)
        if v is not None:
            overrides[name] = v

    try:
        return ExperimentConfig(
            kind=kind,
            master_seed=_get(pairs, "seed.master", int, required=True),
            n_ladder=_get(pairs, "ladder.n", _ints, required=True),
            seeds_per_n=_get(pairs, "trial.seeds_per_n", int, default=1),
            delta=_get(pairs, "trial.delta", float, default=0.1),
            k_rule=k_rule,
            k_values=_get(pairs, "k.values", _ints, default=()),
            probe_cells=_get(pairs, "probes.cells", int, default=512),
            probe_count=_get(pairs, "probes.count", int, default=4096),
            density=density,
            noise=noise,
            field_kind=field_kind,
            field_params=field_params,
            manifold=manifold,
            level_lambda=_get(pairs, "level.lambda", float),
            epsilon_override=_get(pairs, "level.epsilon_override", float),
            m2=_get(pairs, "level.m2", float),
            bounds_overrides=overrides,
            out_path=_get(pairs, "output.path", str),
        )
    except (ValueError, TypeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(str(e)) from e


def _density_from(pairs) -> Optional[DensitySpec]:
    kind = _get(pairs, "density.kind", str)
    if kind is None:
        return None
    if kind == "uniform-box":
        return uniform_box(_get(pairs, "density.low", _floats, required=True),
                           _get(pairs, "density.high", _floats, required=True))
    if kind == "uniform-ball":
        return uniform_ball(
            _get(pairs, "density.center", _floats, required=True),
            _get(pairs, "density.radius", float, required=True))
    if kind == "truncated-mixture":
        return truncated_mixture(
            _get(pairs, "density.low", _floats, required=True),
            _get(pairs, "density.high", _floats, required=True),
            _get(pairs, "density.bump_center", _floats, required=True),
            _get(pairs, "density.bump_sigma", float, required=True),
            _get(pairs, "density.bump_weight", float, required=True))
    raise ConfigError(f"density.kind: unknown kind {kind!r}")


def _manifold_from(pairs) -> Optional[ManifoldSpec]:
    kind = _get(pairs, "manifold.kind", str)
    if kind is None:
        return None
    kwargs = dict(
        kind=kind,
        ambient_dim=_get(pairs, "manifold.ambient_dim", int, required=True),
        rotate=_get(pairs, "manifold.rotate", _bool, default=False),
        rotation_seed=_get(pairs, "manifold.rotation_seed", int, default=0),
        field_slope=_get(pairs, "manifold.field_slope", float, default=2.0),
        field_center_s=_get(pairs, "manifold.field_center_s", float,
                            default=0.0),
        field_peak=_get(pairs, "manifold.field_peak", float, default=0.5),
    )
    for name in ("radius", "tube_radius", "theta0", "theta1", "pitch"):
        v = _get(pairs, f"manifold.{name}", float)
        if v is not None:
            kwargs[name] = v
    w = _get(pairs, "manifold.winding", int)
    if w is not None:
        kwargs["winding"] = w
    try:
        return ManifoldSpec(**kwargs)
    except ValueError as e:
        raise ConfigError(f"manifold.kind: {e}") from e


def _field_params_from(pairs, field_kind, density, experiment_kind):
    if field_kind is None:
        return None
    p = {}
    if field_kind == "constant":
        p["value"] = _get(pairs, "field.value", float, required=True)
        dim = _get(pairs, "field.dim", int)
        if dim is None:
            if density is None:
                raise ConfigError("field.dim: required for a constant field "
                                  "without a density")
            dim = density.dim
        p["dim"] = dim
    elif field_kind == "linear":
        p["a"] = _get(pairs, "field.a", _floats, required=True)
        p["b"] = _get(pairs, "field.b", float, default=0.0)
    elif field_kind == "tent":
        p["center"] = _get(pairs, "field.center", _floats, required=True)
        p["slope"] = _get(pairs, "field.slope", float, required=True)
        p["peak"] = _get(pairs, "field.peak", float, default=1.0)
        level = _get(pairs, "field.level", float)
        if level is None and experiment_kind == "levelset":
            level = _get(pairs, "level.lambda", float)
        if level is not None:
            p["level"] = level
    elif field_kind == "holder-cusp":
        p["center"] = _get(pairs, "field.center", _floats, required=True)
        p["c_alpha"] = _get(pairs, "field.c_alpha", float, required=True)
        p["alpha"] = _get(pairs, "field.alpha", float, required=True)
        p["peak"] = _get(pairs, "field.peak", float, default=1.0)
    elif field_kind == "quadratic-peak":
        p["center"] = _get(pairs, "field.center", _floats, required=True)
        p["curvature"] = _get(pairs, "field.curvature", float, required=True)
        p["height"] = _get(pairs, "field.height", float, default=1.0)
        r_m = _get(pairs, "field.r_m", float)
        if r_m is not None:
            p["r_m"] = r_m
    else:
        raise ConfigError(f"field.kind: unknown kind {field_kind!r}")
    return p


def with_master_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, master_seed=int(seed))
