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
from .neighbors import _map_on_cpus, knn_radii
from .regression import Dataset, ScalarField, make_regressor, sup_error
from .structures import (count_distinct_knn_sets, estimate_level_set,
                         estimate_maxima, hausdorff_distance,
                         true_level_set_grid)
from .synth import (DensitySpec, ManifoldSpec, NoiseSpec, embed_manifold,
                    halton_probes, make_field, manifold_field,
                    manifold_probe_grid, sample_noise, sample_points,
                    stream_seed, support_box, truncated_mixture, uniform_box,
                    uniform_grid)


class ConfigError(ValueError):
    pass


EXPERIMENT_KINDS = ("regression", "levelset", "maxima", "coverage", "setcount")

# The most probe points a config may ask for, grid or Halton cloud: 16 times
# the largest any canned study uses (513^2, a 2-D grid of 512 cells).  In
# 2-D their coordinates alone take 64 MiB.
PROBE_BUDGET = 2 ** 22

# The most sample coordinates (n times the ambient D) a rung may draw: 51
# times the largest canned sample (32,768 points in R^10).  Batch calls work
# in fixed-size chunks, so n * k sizes no allocation; n * D does.
SAMPLE_BUDGET = 2 ** 24

CSV_HEADER = "experiment,n,k,seed,quantity,value,bound,valid_k,ms"


@dataclass(frozen=True)
class KRule:
    """How k is chosen per rung when `k.values` does not fix it: the
    rate-optimal power, or an explicit power law ceil(factor * n^exponent)."""

    rule: str = "optimal"
    mode: str = "regression"
    factor: float = 1.0
    exponent: Optional[float] = None

    def __post_init__(self):
        if self.rule not in ("optimal", "power"):
            raise ConfigError(f"k.rule: unknown rule {self.rule!r}")
        if self.rule == "power" and not (self.exponent is not None
                                         and 0.0 < self.exponent < math.inf):
            raise ConfigError("k.exponent: a positive finite exponent is "
                              "required")
        if not 0.0 < self.factor < math.inf:
            raise ConfigError("k.factor: must be positive and finite")
        if self.mode not in bnd._OPT_MODES:
            raise ConfigError(f"k.mode: unknown mode {self.mode!r}; expected "
                              f"one of {bnd._OPT_MODES}")


def resolve_k(rule: KRule, n: int, rate_dim: int,
              smoothness: Optional[float]) -> int:
    """The rung's k in [1, n]; a float k (inf included) is clipped first."""
    if rule.rule == "power":
        try:
            k = math.ceil(min(rule.factor * n ** rule.exponent, n))
        except OverflowError:  # n ** exponent is past the float range
            k = n
    else:
        if rule.mode != "maxima" and smoothness is None:
            raise ConfigError(
                "k.mode: the optimal rule needs a field with a declared "
                "smoothness or regularity exponent")
        k = max(1, round(min(rule.factor * optimal_k(n, smoothness, rate_dim,
                                                     rule.mode), n)))
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
    m2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment.kind: unknown kind {self.kind!r}")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigError(f"seed.master: must lie in [0, 2**64), got "
                              f"{self.master_seed}")
        ladder = tuple(int(n) for n in self.n_ladder)
        if not ladder:
            raise ConfigError("ladder.n: at least one rung is required")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ConfigError("ladder.n: rungs must be strictly increasing")
        if ladder[0] < 1:
            raise ConfigError("ladder.n: rungs must be >= 1")
        if ladder[0] < 2 and self.kind != "setcount":
            raise ConfigError(f"ladder.n: rungs must be >= 2 for {self.kind} "
                              "experiments, whose bounds need n >= 2")
        object.__setattr__(self, "n_ladder", ladder)
        if any(k < 1 for k in self.k_values):
            raise ConfigError("k.values: entries must be >= 1")
        if len(set(self.k_values)) != len(self.k_values):
            raise ConfigError("k.values: entries must be distinct")
        if self.k_values and min(self.k_values) > ladder[-1]:
            raise ConfigError(f"k.values: every entry is above the largest "
                              f"rung, n = {ladder[-1]}, so no trial runs")
        if self.kind == "setcount" and not self.k_values:
            raise ConfigError("k.values is required for setcount experiments")
        if self.kind == "levelset" and self.level_lambda is None:
            raise ConfigError("level.lambda is required for levelset "
                              "experiments")
        if self.manifold is not None and self.kind not in ("regression",
                                                           "coverage"):
            raise ConfigError(f"experiment.kind: {self.kind} supports "
                              "full-dimensional densities only")
        if self.seeds_per_n < 1:
            raise ConfigError("trial.seeds_per_n: must be >= 1")
        if self.probe_cells < 1:
            raise ConfigError("probes.cells: must be >= 1")
        if self.probe_count < 1:
            raise ConfigError("probes.count: must be >= 1")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError("trial.delta: must lie in (0, 1)")
        if self.m2 is not None and not 0.0 <= self.m2 < math.inf:
            raise ConfigError("level.m2: must be nonnegative and finite")
        if self.density is None and self.manifold is None:
            raise ConfigError("density.kind or manifold.kind is required")
        size = ladder[-1] * (self.density.dim if self.manifold is None
                             else self.manifold.ambient_dim)
        if size > SAMPLE_BUDGET:
            raise ConfigError(f"ladder.n: asks for {size} sample coordinates"
                              f" (n times D), over the budget of "
                              f"{SAMPLE_BUDGET}")
        if self.manifold is not None and self.manifold.rotate and \
                self.manifold.ambient_dim ** 2 > SAMPLE_BUDGET:
            raise ConfigError("manifold.ambient_dim: a rotation asks for D "
                              "times D matrix entries, over the budget of "
                              f"{SAMPLE_BUDGET}")
        # probe_set lays probe_cells points along a manifold's arc length;
        # it and run_levelset lay probe_cells + 1 points per axis over a box
        # of up to two dimensions (any dimension for levelset); other boxes
        # take a Halton cloud of probe_count.
        if self.manifold is not None:
            grid = self.probe_cells
        elif self.density.dim <= 2 or self.kind == "levelset":
            grid = (self.probe_cells + 1) ** self.density.dim
        else:
            grid = 0
        for key, points in (("probes.cells", grid),
                            ("probes.count", self.probe_count)):
            if points > PROBE_BUDGET:
                raise ConfigError(f"{key}: asks for {points} probe points, "
                                  f"over the budget of {PROBE_BUDGET}")


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
    rungs, or a non-positive median makes the fit degenerate, and so does a
    rung with records of more than one k, whose median would pool the ks."""
    by_n, ks = {}, {}
    for r in records:
        if r.quantity == quantity:
            ks.setdefault(r.n, set()).add(r.k)
            if math.isfinite(r.value):
                by_n.setdefault(r.n, []).append(r.value)
    mixed = [n for n in sorted(ks) if len(ks[n]) > 1]
    if mixed:
        raise DegenerateFitError(
            f"rung n={mixed[0]} holds {quantity!r} records of ks "
            f"{sorted(ks[mixed[0]])}; fit one k at a time")
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
    s2 = float(resid @ resid) / (m - 2)
    stderr = math.sqrt(s2 / float(((x - x.mean()) ** 2).sum()))
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
        return uniform_grid(lo, hi, cfg.probe_cells)
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


def _run_trials(cfg: ExperimentConfig, fld: ScalarField,
                setting: Optional[str], bounds, measure) -> list:
    """The n-ladder x seed trials of every runner.

    Per rung it takes the ks of `k.values` up to n, or else the one k of
    the k rule (a rung with no k has no trials), and for each k evaluates
    `bounds(params, n, k)` (a dict from quantity to bound) and the k-window
    validity for `setting` (None: no window, so valid), all before any
    trial runs.  Per seed it draws the trial dataset from the (master, n,
    seed, label) streams and records, for each k, the (quantity, value)
    pairs that `measure(data, ks)` returns for it, with the wall time of
    the whole trial, sampling included.  Each trial draws its own streams
    and builds its own index, so run at once by the calling thread and one
    helper thread per further usable CPU (neighbors._map_on_cpus) the
    trials give the records, or the first failure, of a serial loop; the
    batch calls a trial makes there run their chunks serially.
    """
    params = bound_params_for(cfg, fld)
    dim = cfg.manifold.d if cfg.manifold is not None else cfg.density.dim
    smoothness = fld.metadata.beta if cfg.k_rule.mode == "levelset_beta" \
        else fld.metadata.alpha
    jobs = []
    for n in cfg.n_ladder:
        ks = ([k for k in cfg.k_values if k <= n] if cfg.k_values
              else [resolve_k(cfg.k_rule, n, dim, smoothness)])
        checks = [(bounds(params, n, k),
                   setting is None or _validity(params, n, k, setting))
                  for k in ks]
        if ks:
            jobs.extend((n, ks, checks, s) for s in range(cfg.seeds_per_n))

    def trial(job):
        n, ks, checks, s = job
        t0 = time.perf_counter()
        seed = stream_seed(cfg.master_seed, n, s, "points")
        if cfg.manifold is not None:
            x = embed_manifold(cfg.manifold, n, seed).points
        else:
            x = sample_points(cfg.density, n, seed)
        noise = sample_noise(cfg.noise, n,
                             stream_seed(cfg.master_seed, n, s, "noise"))
        per_k = measure(Dataset(x, fld.evaluate(x.points) + noise), ks)
        ms = int(round(1000.0 * (time.perf_counter() - t0)))
        return [ExperimentRecord(cfg.kind, n, k, s, q, value, bound[q],
                                 valid, ms)
                for k, (bound, valid), pairs in zip(ks, checks, per_k)
                for q, value in pairs]

    return [record for records in _map_on_cpus(trial, jobs)
            for record in records]


def _each_k(measure):
    """The `measure(data, ks)` of `_run_trials` from a `measure(reg)`; the
    ks of a trial read copies of one regressor, so they share its index."""
    def each(data, ks):
        reg = make_regressor(data, ks[0])
        return [measure(replace(reg, k=k)) for k in ks]
    return each


# ---------------------------------------------------------------------------
# runners


def run_regression_rate(cfg: ExperimentConfig) -> list:
    """Per (n, seed): sample, observe, regress with each k, and record the
    probe-grid sup error next to the closed-form bound."""
    fld = experiment_field(cfg)
    probes, _ = probe_set(cfg)
    manifold = cfg.manifold is not None
    return _run_trials(
        cfg, fld, "manifold" if manifold else "full",
        lambda params, n, k: {"sup_error": _try(
            bnd.holder_bound, params, n, k, manifold=manifold)},
        _each_k(lambda reg: [("sup_error", sup_error(reg, fld, probes))]))


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

    def measure(reg):
        return [("sup_error", sup_error(reg, fld, probes)),
                ("radius_max",
                 float(knn_radii(reg.index, probes.points, reg.k).max()))]

    records = _run_trials(cfg, fld, "manifold" if manifold else "full",
                          bounds, _each_k(measure))

    def tally(quantity):
        rows = [r for r in records if r.quantity == quantity]
        misses = tuple((r.n, r.k, r.seed) for r in rows
                       if not r.value <= r.bound)
        return (len(rows) - len(misses)) / len(rows), misses

    coverage, sup_violations = tally("sup_error")
    radius_coverage, radius_violations = tally("radius_max")
    return CoverageResult(coverage, radius_coverage, sup_violations,
                          radius_violations, records)


def run_levelset(cfg: ExperimentConfig) -> list:
    """Per trial: estimate the level set with the data-driven margin and
    record its Hausdorff distance to the grid-discretized truth.  Empty
    estimates or empty truth produce failure rows (NaN value), not crashes."""
    fld = experiment_field(cfg)
    lam = float(cfg.level_lambda)
    lo, hi = support_box(cfg.density)
    grid, _ = uniform_grid(lo, hi, cfg.probe_cells)
    truth = true_level_set_grid(fld, lam, grid)

    def measure(reg):
        eps = level_set_epsilon(reg.data, cfg.density.dim, reg.k,
                                cfg.delta).epsilon
        members = estimate_level_set(reg, lam, eps)
        if truth.size == 0 or members.size == 0:
            return [("d_H", float("nan"))]
        return [("d_H", hausdorff_distance(reg.data.x.points[members], truth))]

    return _run_trials(
        cfg, fld, "levelset",
        lambda params, n, k: {"d_H": _try(bnd.level_set_dh_bound,
                                          params, n, k)},
        _each_k(measure))


def run_maxima(cfg: ExperimentConfig) -> list:
    """Per trial: record the distance from the sample argmax of the
    regressor to the field's true maximizer, next to the guarantee."""
    fld = experiment_field(cfg)
    if fld.metadata.argmax is None:
        raise ConfigError("field.kind: maxima experiments need a field with "
                          "a declared maximizer")
    x0 = np.asarray(fld.metadata.argmax)

    def measure(reg):
        top = reg.data.x.points[estimate_maxima(reg)]
        return [("maxima_dist", float(np.linalg.norm(top - x0)))]

    return _run_trials(
        cfg, fld, "maxima",
        lambda params, n, k: {"maxima_dist": _try(bnd.maxima_distance_bound,
                                                  params, n, k)},
        _each_k(measure))


def run_setcount(cfg: ExperimentConfig) -> list:
    """Count distinct neighbor sets over a probe grid and record them next
    to the combinatorial cap.  A trial counts every k of `k.values` up to
    its n from one distance block.  The counter reads the sample points
    alone, so the observations are a zero field's."""
    probes, _ = probe_set(cfg)
    D = cfg.density.dim
    return _run_trials(
        cfg, make_field("constant", value=0.0, dim=D), None,
        lambda params, n, k: {"set_count": float(knn_set_count_bound(n, D))},
        lambda data, ks: [[("set_count", float(count))] for count in
                          count_distinct_knn_sets(data, ks, probes)])


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
    """Records from a CSV that `write_records` wrote.  A file that is not
    UTF-8, or is malformed, raises ValueError naming the path (and the
    line of a malformed row)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines() or [""]
    except UnicodeDecodeError as e:
        raise ValueError(f"cannot read records file {path}: {e}") from e
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise ValueError(f"{path}, line 1: unexpected CSV header {header!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        cols = line.split(",")
        try:
            if len(cols) != 9:
                raise ValueError(f"{len(cols)} columns, expected 9")
            records.append(ExperimentRecord(
                experiment=cols[0], n=int(cols[1]), k=int(cols[2]),
                seed=int(cols[3]), quantity=cols[4], value=float(cols[5]),
                bound=float(cols[6]), valid_k=bool(int(cols[7])),
                ms=int(cols[8])))
        except ValueError as e:
            raise ValueError(f"{path}, line {lineno}: malformed row "
                             f"{line!r} ({e})") from e
    return records


# ---------------------------------------------------------------------------
# config file format


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
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return build_config(parse_config_text(text))


def _get(pairs, key, conv, default=None, required=False):
    """Take `key` out of `pairs` and convert it.  Each key is read once, so
    what is left in `pairs` afterwards is what no path read."""
    if key not in pairs:
        if required:
            raise ConfigError(f"{key}: required key is missing")
        return default
    raw = pairs.pop(key)
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


def _spec(section: str, make, *args):
    """Build one part of a config.  The spec and field constructors start
    each ValueError message with the offending parameter's name, which is
    its key within `section`, so the ConfigError names the key."""
    try:
        return make(*args)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from e


def build_config(pairs: dict) -> ExperimentConfig:
    """Build a config from parsed `key = value` pairs.

    Each key is read only on the path that uses it, which the experiment
    kind, `k.values` or else the k rule, and the manifold, density or
    field kind choose.  A key that no path read is rejected, not dropped:
    one ConfigError names every such key.  `probes.cells` and
    `probes.count` are read for every study.
    """
    pairs = dict(pairs)  # _get takes each key it reads out of this copy
    kind = _get(pairs, "experiment.kind", str, required=True)
    # The circle carries its own density and field.
    manifold = _spec("manifold", _manifold_from, pairs)
    density = (_spec("density", _density_from, pairs) if manifold is None
               else None)
    study = {"k_values": _get(pairs, "k.values", _ints, default=())}
    if kind != "setcount":  # the counter reads only the sample points
        study.update(
            delta=_get(pairs, "trial.delta", float, default=0.1),
            noise=_spec("noise", NoiseSpec,
                        _get(pairs, "noise.kind", str, default="none"),
                        _get(pairs, "noise.scale", float, default=0.0)))
        if not study["k_values"]:
            study["k_rule"] = _k_rule_from(pairs)
    if kind == "levelset":
        study.update(level_lambda=_get(pairs, "level.lambda", float),
                     m2=_get(pairs, "level.m2", float))
    if density is not None and kind != "setcount":
        field_kind = study["field_kind"] = _get(pairs, "field.kind", str)
        if field_kind is not None:
            study["field_params"] = _field_params_from(
                pairs, field_kind, density.dim, study.get("level_lambda"))
    cfg = ExperimentConfig(
        kind=kind,
        master_seed=_get(pairs, "seed.master", int, required=True),
        n_ladder=_get(pairs, "ladder.n", _ints, required=True),
        seeds_per_n=_get(pairs, "trial.seeds_per_n", int, default=1),
        # Read for every study, though each uses one of the two: a grid of
        # probes.cells per axis, or in three or more dimensions a Halton
        # cloud of probes.count.  A config may set either for any density.
        probe_cells=_get(pairs, "probes.cells", int, default=512),
        probe_count=_get(pairs, "probes.count", int, default=4096),
        density=density, manifold=manifold, **study)
    if kind != "setcount":
        # Every other runner builds the field; a bad field value fails here.
        _spec("field", experiment_field, cfg)
    if pairs:
        raise ConfigError("unknown config key(s): " + ", ".join(sorted(pairs)))
    return cfg


def _k_rule_from(pairs) -> KRule:
    rule = _get(pairs, "k.rule", str, default="optimal")
    factor = _get(pairs, "k.factor", float, default=1.0)
    if rule == "power":
        return KRule(rule, factor=factor,
                     exponent=_get(pairs, "k.exponent", float))
    return KRule(rule, factor=factor,
                 mode=_get(pairs, "k.mode", str, default="regression"))


def _density_from(pairs) -> Optional[DensitySpec]:
    kind = _get(pairs, "density.kind", str)
    if kind is None:
        return None
    if kind not in ("uniform-box", "truncated-mixture"):
        raise ConfigError(f"density.kind: unknown kind {kind!r}")
    low = _get(pairs, "density.low", _floats, required=True)
    high = _get(pairs, "density.high", _floats, required=True)
    if kind == "uniform-box":
        return uniform_box(low, high)
    return truncated_mixture(
        low, high, _get(pairs, "density.bump_center", _floats, required=True),
        _get(pairs, "density.bump_sigma", float, required=True),
        _get(pairs, "density.bump_weight", float, required=True))


def _manifold_from(pairs) -> Optional[ManifoldSpec]:
    kind = _get(pairs, "manifold.kind", str)
    if kind is None:
        return None
    return ManifoldSpec(
        kind=kind,
        ambient_dim=_get(pairs, "manifold.ambient_dim", int, required=True),
        radius=_get(pairs, "manifold.radius", float, default=1.0),
        rotate=_get(pairs, "manifold.rotate", _bool, default=False),
        rotation_seed=_get(pairs, "manifold.rotation_seed", int, default=0),
        field_slope=_get(pairs, "manifold.field_slope", float, default=2.0),
        field_center_s=_get(pairs, "manifold.field_center_s", float,
                            default=0.0),
        field_peak=_get(pairs, "manifold.field_peak", float, default=0.5),
    )


def _field_params_from(pairs, field_kind, dim, level_lambda):
    """The field's parameters; a levelset study's tent takes `level.lambda`
    as its level unless `field.level` sets one."""
    if field_kind == "constant":
        return {"value": _get(pairs, "field.value", float, required=True),
                "dim": dim}
    if field_kind not in ("tent", "holder-cusp", "quadratic-peak"):
        raise ConfigError(f"field.kind: unknown kind {field_kind!r}")
    center = _get(pairs, "field.center", _floats, required=True)
    if len(center) != dim:
        raise ConfigError(f"field.center: has {len(center)} coordinates, "
                          f"the density has dimension {dim}")
    p = {"center": center}
    if field_kind == "tent":
        p["slope"] = _get(pairs, "field.slope", float, required=True)
        p["peak"] = _get(pairs, "field.peak", float, default=1.0)
        level = _get(pairs, "field.level", float, default=level_lambda)
        if level is not None:
            p["level"] = level
    elif field_kind == "holder-cusp":
        p["c_alpha"] = _get(pairs, "field.c_alpha", float, required=True)
        p["alpha"] = _get(pairs, "field.alpha", float, required=True)
        p["peak"] = _get(pairs, "field.peak", float, default=1.0)
    else:
        p["curvature"] = _get(pairs, "field.curvature", float, required=True)
        p["height"] = _get(pairs, "field.height", float, default=1.0)
        r_m = _get(pairs, "field.r_m", float)
        if r_m is not None:
            p["r_m"] = r_m
    return p


def with_master_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, master_seed=int(seed))
