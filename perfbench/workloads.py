"""The benchmark's three workloads.

Each workload has a `setup` (the inputs its rounds need), a `round` (the
fixed set of timed operations), `record` (compares one round's outputs with
the warm-up round and counts failed operations, untimed) and `check`
(independent and property checks on the outputs, untimed).

The studies run through `knnrates.cli.cli_main` with the configs in
`configs/`; the master seed comes from the benchmark's --seed.  The lattice
workload calls the library API directly.  Every call goes through a module
attribute looked up at call time, so traced runs see it.
"""

import math
import pathlib

import numpy as np

from knnrates import bounds, cli, experiments, regression, synth
from knnrates import neighbors
from knnrates.neighbors import PointSet
from knnrates.regression import Dataset

import reference as ref

CONFIGS = pathlib.Path(__file__).resolve().parent / "configs"

CSV_HEADER = "experiment,n,k,seed,quantity,value,bound,valid_k,ms"

SUBSET_ROWS = 64

_SETTING = {"levelset": "levelset", "maxima": "maxima"}


def master_seed(seed: int) -> int:
    return int(seed) % (1 << 63)


class Study:
    """One canned-style study run through the CLI."""

    def __init__(self, command: str, cfg_name: str, outdir: pathlib.Path,
                 master: int):
        self.command = command
        self.path = CONFIGS / cfg_name
        self.out = outdir / cfg_name.replace(".cfg", ".csv")
        self.master = master
        self.argv = [command, "--config", str(self.path), "--seed",
                     str(master), "--out", str(self.out), "--quiet"]

    def prepare(self) -> None:
        """Config, field and probes for the checks; cli_main builds its
        own in every round."""
        self.cfg = experiments.with_master_seed(
            experiments.load_config_file(self.path), self.master)
        self.field = (None if self.cfg.kind == "setcount"
                      else experiments.experiment_field(self.cfg))
        if self.cfg.kind == "levelset":
            lo, hi = synth.support_box(self.cfg.density)
            grid, _ = synth.uniform_grid(lo, hi, self.cfg.probe_cells)
            self.probes = grid.points
        elif self.cfg.kind in ("regression", "coverage", "setcount"):
            self.probes = experiments.probe_set(self.cfg)[0].points
        else:
            self.probes = None

    def run(self) -> bool:
        return cli.cli_main(self.argv) == 0

    def read(self) -> bytes:
        return self.out.read_bytes()


class StudyWorkload:
    def __init__(self, name, studies, seed, outdir, expected):
        self.name = name
        self.seed = int(seed)
        master = master_seed(seed)
        self.studies = [Study(cmd, cfg, outdir, master) for cmd, cfg in studies]
        self.expected = expected
        self.problems = []
        self.reference = None

    def setup(self) -> None:
        """Nothing beyond import: cli_main reads its config and builds its
        probes inside every round."""

    def round(self):
        return [st.run() for st in self.studies]

    def record(self, result, warmup=False):
        """Returns (attempted, failed) for one round."""
        outputs = [st.read() if ok else None
                   for st, ok in zip(self.studies, result)]
        for st, ok in zip(self.studies, result):
            if not ok:
                self.problems.append(f"{st.command} {st.path.name}: "
                                     "cli_main returned non-zero")
        if warmup:
            self.reference = outputs
        elif outputs != self.reference:
            self.problems.append("CSV bytes differ between two runs of one "
                                 "(config, seed) in this process")
        return len(result), sum(1 for ok in result if not ok)

    def check(self) -> list:
        rng = np.random.default_rng([master_seed(self.seed), 0x6b6e6e])
        for st, text in zip(self.studies, self.reference):
            if text is None:
                continue
            try:
                st.prepare()
                rows = parse_csv(text.decode("utf-8"))
                self.problems.extend(
                    f"{st.path.name}: {p}" for p in check_study(st, rows, rng))
            except Exception as e:  # a check that crashes is a failed check
                self.problems.append(f"{st.path.name}: check raised {e!r}")
        return self.problems


# ---------------------------------------------------------------------------
# study checks


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        c = line.split(",")
        rows.append(dict(experiment=c[0], n=int(c[1]), k=int(c[2]),
                         seed=int(c[3]), quantity=c[4], value=float(c[5]),
                         bound=float(c[6]), valid_k=c[7] == "1", ms=c[8]))
    return rows


def expected_k(cfg, fld, n: int) -> int:
    rule = cfg.k_rule
    dim = cfg.manifold.d if cfg.manifold is not None else cfg.density.dim
    if rule.rule == "fixed":
        k = rule.fixed
    elif rule.rule == "power":
        k = math.ceil(rule.factor * n ** rule.exponent)
    else:
        smooth = (fld.metadata.beta if rule.mode == "levelset_beta"
                  else fld.metadata.alpha)
        k = max(1, round(rule.factor * bounds.optimal_k(n, smooth, dim,
                                                         rule.mode)))
    return min(max(1, int(k)), n)


def expected_bound(cfg, params, quantity, n, k) -> float:
    manifold = cfg.manifold is not None
    try:
        if quantity == "sup_error":
            return bounds.holder_bound(params, n, k, manifold=manifold)
        if quantity == "radius_max":
            if manifold:
                return bounds.manifold_radius_bound(params, n, k)
            return bounds.radius_bound(params, n, k, check=False)
        if quantity == "d_H":
            return bounds.level_set_dh_bound(params, n, k)
        if quantity == "maxima_dist":
            return bounds.maxima_distance_bound(params, n, k)
        return float(bounds.knn_set_count_bound(n, cfg.density.dim))
    except bounds.MissingParameterError:
        return float("nan")


def expected_valid(cfg, params, n, k) -> bool:
    if cfg.kind == "setcount":
        return k <= n
    setting = _SETTING.get(cfg.kind,
                           "manifold" if cfg.manifold is not None else "full")
    try:
        return bounds.k_range_check(params, n, k, setting).passed
    except (bounds.MissingParameterError, ValueError):
        return False


def same(a: float, b: float, rtol: float = 1e-12) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def trial_data(cfg, fld, n: int, s: int) -> Dataset:
    """The dataset of trial (n, s), drawn from the documented seed
    streams: SeedSequence([master, n, trial, sha256(label)])."""
    points = synth.stream_seed(cfg.master_seed, n, s, "points")
    if cfg.manifold is not None:
        x = synth.embed_manifold(cfg.manifold, n, points).points
    else:
        x = synth.sample_points(cfg.density, n, points)
    xi = synth.sample_noise(cfg.noise, n,
                            synth.stream_seed(cfg.master_seed, n, s, "noise"))
    return Dataset(x=x, y=fld.evaluate(x.points) + xi)


def check_rows(cfg, fld, rows) -> list:
    """Row set, k column, bound column and valid_k against the config."""
    problems = []
    params = None if fld is None else experiments.bound_params_for(cfg, fld)
    quantities = {"regression": ["sup_error"], "levelset": ["d_H"],
                  "maxima": ["maxima_dist"], "setcount": ["set_count"],
                  "coverage": ["radius_max", "sup_error"]}[cfg.kind]
    want = []
    for n in cfg.n_ladder:
        for s in range(cfg.seeds_per_n):
            if cfg.kind == "setcount":
                want += [(n, s, "set_count", k) for k in sorted(cfg.k_values)
                         if k <= n]
            else:
                k = expected_k(cfg, fld, n)
                want += [(n, s, q, k) for q in quantities]
    got = [(r["n"], r["seed"], r["quantity"], r["k"]) for r in rows]
    if got != want:
        return [f"rows {got[:4]}... differ from the expected {want[:4]}..."]
    for r in rows:
        b = expected_bound(cfg, params, r["quantity"], r["n"], r["k"])
        if not same(r["bound"], b):
            problems.append(f"bound {r['bound']!r} != recomputed {b!r} at "
                            f"n={r['n']} k={r['k']}")
        if r["valid_k"] != expected_valid(cfg, params, r["n"], r["k"]):
            problems.append(f"valid_k differs at n={r['n']} k={r['k']}")
        if r["ms"] != "0":
            problems.append("ms column is not serialized as 0")
        if not math.isfinite(r["value"]):
            problems.append(f"{r['quantity']} is not finite at n={r['n']}")
    return problems


def check_subset(reg, rows_q, rng, label) -> list:
    """Program batch mean and radius against the brute-force reference on
    a seeded subset of query rows."""
    X, y, k = reg.data.x.points, reg.data.y, reg.k
    pick = np.sort(rng.choice(len(rows_q), size=min(SUBSET_ROWS, len(rows_q)),
                              replace=False))
    Q = rows_q[pick]
    want_mean, want_r, _ = ref.knn_mean_radius(X, y, Q, k)
    got_mean = regression.predict_batch(reg, Q)
    got_r = neighbors.knn_radii(reg.index, Q, k)
    problems = []
    if not ref.close(got_mean, want_mean, np.abs(y).max()):
        problems.append(f"{label}: k-NN means differ from the brute force")
    if not ref.close(got_r, want_r, max(want_r.max(), 1e-300), 1e-12):
        problems.append(f"{label}: k-NN radii differ from the brute force")
    return problems


def check_study(st: Study, rows, rng) -> list:
    cfg, fld = st.cfg, st.field
    problems = check_rows(cfg, fld, rows)
    if problems:
        return problems
    if cfg.kind == "setcount":
        D = cfg.density.dim
        for r in rows:
            if not 1 <= r["value"] <= min(D * r["n"] ** D, len(st.probes)):
                problems.append(f"set_count {r['value']} outside "
                                f"[1, min(D*n^D, probes)] at n={r['n']}")
        return problems
    if cfg.kind == "levelset":
        return check_levelset(cfg, fld, rows[-1], st.probes, rng)
    if cfg.kind == "maxima":
        return [p for r in rows for p in check_maxima(cfg, fld, r)]
    # regression / coverage: one seeded trial of the largest rung.
    n = cfg.n_ladder[-1]
    s = int(rng.integers(cfg.seeds_per_n))
    picked = {r["quantity"]: r for r in rows if r["n"] == n and r["seed"] == s}
    data = trial_data(cfg, fld, n, s)
    k = picked["sup_error"]["k"]
    means, radii, _ = ref.knn_mean_radius(data.x.points, data.y, st.probes, k)
    sup = float(np.abs(means - fld.evaluate(st.probes)).max())
    if not same(picked["sup_error"]["value"], sup, 1e-9):
        problems.append(f"sup_error {picked['sup_error']['value']!r} != "
                        f"brute force {sup!r} at n={n} seed={s}")
    if "radius_max" in picked and not same(picked["radius_max"]["value"],
                                           float(radii.max())):
        problems.append(f"radius_max differs from the brute force at n={n}")
    reg = regression.make_regressor(data, k)
    return problems + check_subset(reg, st.probes, rng, f"n={n} seed={s}")


def check_levelset(cfg, fld, row, grid, rng) -> list:
    """Level set of one trial: margin, predictions on a subset, and a
    brute-force Hausdorff distance to the grid truth."""
    n, k, D = row["n"], row["k"], cfg.density.dim
    data = trial_data(cfg, fld, n, row["seed"])
    y = data.y
    eps = 4.0 * math.sqrt(2.0 / n * float(y @ y)) * math.sqrt(
        (D * math.log(n) + math.log(2.0 / cfg.delta)) / k)
    prog_eps = bounds.level_set_epsilon(data, D, k, cfg.delta).epsilon
    problems = []
    if not same(eps, prog_eps):
        problems.append(f"level-set margin {prog_eps!r} != {eps!r}")
    reg = regression.make_regressor(data, k)
    preds = regression.predict_batch(reg, data.x.points)
    problems += check_subset(reg, data.x.points, rng, f"levelset n={n}")
    lam = cfg.level_lambda
    members = data.x.points[preds >= lam - prog_eps]
    # Tent truth, evaluated here from the config, not by the package.
    p = cfg.field_params
    center = np.asarray(p["center"])
    truth_vals = p["peak"] - p["slope"] * np.sqrt(
        ((grid - center) ** 2).sum(axis=1))
    truth = grid[truth_vals >= lam]
    if len(members) == 0 or len(truth) == 0:
        return problems + ["empty level set or empty truth"]
    dh = ref.hausdorff(members, truth)
    if not same(row["value"], dh):
        problems.append(f"d_H {row['value']!r} != brute force {dh!r}")
    return problems


def check_maxima(cfg, fld, row) -> list:
    """The argmax of brute-force predictions must give the recorded
    distance, unless the top predictions are within rounding of a tie."""
    data = trial_data(cfg, fld, row["n"], row["seed"])
    means, _, _ = ref.knn_mean_radius(data.x.points, data.y, data.x.points,
                                      row["k"])
    x0 = np.asarray(cfg.field_params["center"])
    tol = 1e-12 * np.abs(data.y).max()
    near = np.flatnonzero(means >= means.max() - tol)
    dists = [float(np.linalg.norm(data.x.points[i] - x0)) for i in near]
    if not any(same(row["value"], d) for d in dists):
        return [f"maxima_dist {row['value']!r} matches no brute-force argmax "
                f"{dists} at n={row['n']}"]
    return []


# ---------------------------------------------------------------------------
# lattice-ties


LATTICE_K = 16
QUERIES_PER_DIM = 4096
# (D, points per axis): about 2k-3.5k points with duplicates.
LATTICES = ((1, 1024), (2, 40), (3, 12))

# Continuous data scaled by 2^600 and 2^-600.  k-NN is exactly invariant
# under power-of-two scaling, but today the first overflows the squared
# distances and the second underflows them, so these four operations fail
# on every run.  Their inputs do not depend on --seed.
SCALED_SEED = 20170721
SCALED_N, SCALED_K, SCALED_Q = 512, 8, 256
SCALES = (2.0 ** 600, 2.0 ** -600)


def lattice_data(rng, dim: int, side: int):
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * dim,
                       indexing="ij")
    grid = np.stack([a.reshape(-1) for a in axes], axis=1)
    dup = grid[rng.random(len(grid)) < 0.5]
    X = np.vstack([grid, dup, dup])
    y = rng.standard_normal(len(X))
    # Queries on lattice points and half-way between them.
    base = grid[rng.integers(0, len(grid), QUERIES_PER_DIM)]
    Q = np.minimum(base + 0.5 * rng.integers(0, 2, base.shape), side - 1)
    return X, y, Q


class LatticeWorkload:
    name = "lattice-ties"

    def __init__(self, seed, expected):
        self.seed = int(seed)
        self.expected = expected
        self.problems = []
        self.reference = None
        self.scaled_want = None

    def setup(self) -> None:
        rng = np.random.default_rng([master_seed(self.seed), 0x1a77])
        self.lattices = []
        for dim, side in LATTICES:
            X, y, Q = lattice_data(rng, dim, side)
            reg = regression.make_regressor(Dataset(PointSet(X), y),
                                            LATTICE_K)
            self.lattices.append((dim, reg, Q))
        srng = np.random.default_rng(SCALED_SEED)
        X = srng.random((SCALED_N, 2))
        y = srng.standard_normal(SCALED_N)
        Q = srng.random((SCALED_Q, 2))
        self.scaled_base = (X, y, Q)
        self.scaled = [(regression.make_regressor(
            Dataset(PointSet(X * s), y), SCALED_K), Q * s) for s in SCALES]

    def round(self):
        out = []
        for _, reg, Q in self.lattices:
            out.append(regression.predict_batch(reg, Q))
            out.append(neighbors.knn_radii(reg.index, Q, LATTICE_K))
        scaled = []
        for reg, Q in self.scaled:
            for op in (lambda: regression.predict_batch(reg, Q),
                       lambda: neighbors.knn_radii(reg.index, Q, SCALED_K)):
                try:
                    scaled.append(op())
                except ValueError as e:
                    scaled.append(e)
        return out, scaled

    def _scaled_failures(self, scaled) -> int:
        if self.scaled_want is None:
            X, y, Q = self.scaled_base
            reg = regression.make_regressor(Dataset(PointSet(X), y), SCALED_K)
            self.scaled_want = [regression.predict_batch(reg, Q),
                                neighbors.knn_radii(reg.index, Q, SCALED_K)]
        failed = 0
        for i, got in enumerate(scaled):
            s = SCALES[i // 2]
            want = self.scaled_want[i % 2] * (1.0 if i % 2 == 0 else s)
            if isinstance(got, Exception) or not ref.close(
                    got, want, np.abs(want).max(), 1e-12):
                failed += 1
        return failed

    def record(self, result, warmup=False):
        out, scaled = result
        if warmup:
            self.reference = out
        elif not all(np.array_equal(a, b)
                     for a, b in zip(out, self.reference)):
            self.problems.append("lattice outputs differ between rounds")
        return len(out) + len(scaled), self._scaled_failures(scaled)

    def check(self) -> list:
        rng = np.random.default_rng([master_seed(self.seed), 0x7e57])
        for i, (dim, reg, Q) in enumerate(self.lattices):
            X, y = reg.data.x.points, reg.data.y
            pick = np.sort(rng.choice(len(Q), size=2 * SUBSET_ROWS,
                                      replace=False))
            means, radii, counts = ref.knn_mean_radius(X, y, Q[pick],
                                                       LATTICE_K)
            got_mean, got_r = self.reference[2 * i][pick], \
                self.reference[2 * i + 1][pick]
            if not ref.close(got_mean, means, np.abs(y).max()):
                self.problems.append(f"D={dim}: lattice means differ from "
                                     "the brute force")
            if not ref.close(got_r, radii, radii.max(), 1e-12):
                self.problems.append(f"D={dim}: lattice radii differ from "
                                     "the brute force")
            if counts.max() <= LATTICE_K:
                self.problems.append(f"D={dim}: no tied rows in the subset")
        X, y, Q = self.scaled_base
        want = ref.knn_mean_radius(X, y, Q, SCALED_K)
        if not (ref.close(self.scaled_want[0], want[0], np.abs(y).max())
                and ref.close(self.scaled_want[1], want[1], 1.0, 1e-12)):
            self.problems.append("unscaled reference differs from the "
                                 "brute force")
        return self.problems


# ---------------------------------------------------------------------------

_COMMON = ("cli.cli_main", "experiments.run_experiment",
           "experiments.load_config_file", "experiments.write_records",
           "experiments.records_to_csv", "regression.make_regressor",
           "neighbors.build_index", "regression.predict_batch",
           "neighbors.knn_radii", "bounds.k_range_check",
           "synth.sample_points", "synth.sample_noise", "synth.uniform_grid")

# Traced names each workload's timed rounds must hit; a miss fails the
# traced run.
EXPECTED = {
    "sample-queries-1d": _COMMON + (
        "experiments.run_levelset", "experiments.run_maxima",
        "structures.estimate_level_set", "structures.estimate_maxima",
        "structures.hausdorff_distance", "structures.true_level_set_grid",
        "bounds.level_set_epsilon"),
    "probe-rates": _COMMON + (
        "experiments.run_regression_rate", "experiments.run_coverage",
        "experiments.run_setcount", "experiments.probe_set",
        "regression.sup_error", "synth.embed_manifold",
        "synth.manifold_probe_grid", "structures.count_distinct_knn_sets"),
    "lattice-ties": ("regression.predict_batch", "neighbors.knn_radii",
                     "neighbors.knn_query"),
}

NAMES = tuple(EXPECTED)


def make(name: str, seed: int, outdir: pathlib.Path):
    if name == "sample-queries-1d":
        return StudyWorkload(name, [("levelset", "levelset.cfg"),
                                    ("maxima", "maxima.cfg")],
                             seed, outdir, EXPECTED[name])
    if name == "probe-rates":
        return StudyWorkload(name, [("regress", "holder.cfg"),
                                    ("manifold", "manifold.cfg"),
                                    ("coverage", "coverage.cfg"),
                                    ("setcount", "setcount.cfg")],
                             seed, outdir, EXPECTED[name])
    if name == "lattice-ties":
        return LatticeWorkload(seed, EXPECTED[name])
    raise ValueError(f"unknown workload {name!r}")
