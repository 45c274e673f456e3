"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces each public function in TARGETS with a timing
wrapper at every knnrates module attribute that holds it, so the span is
recorded whichever module the caller looks the name up in (for example
`predict_batch` is also imported into `structures`).  Spans stay in memory;
`layer_metrics` turns one round's spans into the per-layer figures.
Nothing in the package is edited: `uninstall` puts the originals back, and
the runner installs the tracer only around traced rounds.
"""

import statistics
import sys
from functools import wraps
from time import perf_counter

import numpy as np

# Public functions wrapped, by home module inside knnrates.
TARGETS = {
    "neighbors": ("build_index", "knn_query", "knn_radii"),
    "regression": ("make_regressor", "predict_batch", "sup_error"),
    "structures": ("estimate_level_set", "estimate_maxima",
                   "hausdorff_distance", "true_level_set_grid",
                   "count_distinct_knn_sets"),
    "synth": ("sample_points", "sample_noise", "embed_manifold",
              "uniform_grid", "manifold_probe_grid"),
    "bounds": ("level_set_epsilon", "k_range_check"),
    "experiments": ("load_config_file", "probe_set", "run_experiment",
                    "run_regression_rate", "run_coverage", "run_levelset",
                    "run_maxima", "run_setcount", "write_records",
                    "records_to_csv"),
    "cli": ("cli_main",),
}

RUNNERS = ("experiments.run_regression_rate", "experiments.run_coverage",
           "experiments.run_levelset", "experiments.run_maxima",
           "experiments.run_setcount")
SAMPLERS = ("synth.sample_points", "synth.sample_noise",
            "synth.embed_manifold")
PROBE_MAKERS = ("synth.uniform_grid", "synth.manifold_probe_grid",
                "structures.true_level_set_grid", "experiments.probe_set")
CSV_WRITERS = ("experiments.write_records", "experiments.records_to_csv")
BATCH = ("regression.predict_batch", "neighbors.knn_radii")


def _rows(a) -> int:
    return int(np.asarray(getattr(a, "points", a)).shape[0])


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _trial_times(records) -> dict:
    # One trial per (n, k, seed); coverage writes two records per trial.
    return {(r.n, r.k, r.seed): r.ms / 1000.0 for r in records}


# What each wrapper records about a successful call, beside its duration.
_OBSERVE = {
    "regression.predict_batch": lambda a, kw, out: {
        "rows": len(out), "k": _arg(a, kw, 0, "reg").k},
    "neighbors.knn_radii": lambda a, kw, out: {"rows": len(out)},
    "neighbors.knn_query": lambda a, kw, out: {
        "members_over_k": out.count / int(_arg(a, kw, 2, "k"))},
    "structures.count_distinct_knn_sets": lambda a, kw, out: {
        "probes": _rows(_arg(a, kw, 2, "probes"))},
    "experiments.records_to_csv": lambda a, kw, out: {
        "bytes": len(out.encode("utf-8"))},
    "experiments.run_coverage": lambda a, kw, out: {
        "trials": _trial_times(out.records)},
}
for _runner in RUNNERS:
    _OBSERVE.setdefault(_runner, lambda a, kw, out: {
        "trials": _trial_times(out)})


class Span:
    __slots__ = ("name", "dur", "self_s", "parents", "info")

    def __init__(self, name, dur, self_s, parents):
        self.name, self.dur, self.self_s, self.parents = \
            name, dur, self_s, parents
        self.info = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = {}
        self._stack = []
        self._sites = []

    def install(self) -> None:
        """Wrap every target at each knnrates module attribute holding it.
        A target that no longer exists raises, so the trace cannot go
        blind on a rename."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == "knnrates" or name.startswith("knnrates."))]
        for home, names in TARGETS.items():
            module = sys.modules[f"knnrates.{home}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{home}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._sites.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._sites):
            setattr(m, attr, original)
        self._sites.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans

    def round_metrics(self) -> dict:
        return layer_metrics(self.take())

    def _wrap(self, name, fn):
        observe = _OBSERVE.get(name)
        stack = self._stack
        self.calls.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parents = tuple(frame[0] for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                span = Span(name, dur, dur - frame[1], parents)
                self.spans.append(span)
                self.calls[name] += 1
            if observe is not None:
                span.info = observe(args, kwargs, out)
            return out

        return wrapper


def _outer(spans, names):
    """Spans in the group that no other span of the group encloses."""
    names = set(names)
    return [s for s in spans
            if s.name in names and not names.intersection(s.parents)]


def layer_metrics(spans) -> dict:
    """Per-layer figures of one round's spans."""
    def by(name):
        return [s for s in spans if s.name == name]

    def total(*names):
        return sum(s.dur for s in _outer(spans, names))

    def self_time(*names):
        return sum(s.self_s for s in spans if s.name in names)

    pb = by("regression.predict_batch")
    rows = sum(s.info["rows"] for s in pb if s.info)
    entries = sum(s.info["rows"] * s.info["k"] for s in pb if s.info)
    kr = by("neighbors.knn_radii")
    kq = by("neighbors.knn_query")
    batch_rows = sum(s.info["rows"] for s in _outer(spans, BATCH) if s.info)
    fallback = sum(1 for s in kq if s.parents and s.parents[-1] in BATCH)
    inflation = [s.info["members_over_k"] for s in kq if s.info]
    trial_s = []
    for s in spans:
        if s.name in RUNNERS and s.info:
            trial_s.extend(s.info["trials"].values())
    return {
        "experiments.config_s": total("experiments.load_config_file"),
        "synth.probes_s": total(*PROBE_MAKERS),
        "regression.predict_batch_s": total("regression.predict_batch"),
        "regression.predict_rows": rows,
        "regression.neighbor_entries": entries,
        "regression.ns_per_entry": (
            1e9 * total("regression.predict_batch") / entries
            if entries else 0.0),
        "structures.level_set_self_s": self_time(
            "structures.estimate_level_set"),
        "structures.maxima_self_s": self_time("structures.estimate_maxima"),
        "structures.hausdorff_s": total("structures.hausdorff_distance"),
        "bounds.level_set_epsilon_s": total("bounds.level_set_epsilon"),
        "neighbors.knn_query_calls": len(kq),
        "neighbors.knn_query_s": total("neighbors.knn_query"),
        "neighbors.batch_rows": batch_rows,
        "neighbors.fast_row_ratio": (
            (batch_rows - fallback) / batch_rows if batch_rows else 0.0),
        # A fast-path row has exactly k members.
        "neighbors.max_members_over_k": max(
            inflation, default=1.0 if batch_rows else 0.0),
        "neighbors.knn_radii_s": total("neighbors.knn_radii"),
        "neighbors.knn_radii_rows": sum(s.info["rows"] for s in kr if s.info),
        "synth.sample_s": total(*SAMPLERS),
        "synth.sample_calls": sum(len(by(n)) for n in SAMPLERS),
        "neighbors.build_index_s": total("neighbors.build_index"),
        "neighbors.build_index_calls": len(by("neighbors.build_index")),
        "regression.make_regressor_s": total("regression.make_regressor"),
        "regression.sup_error_self_s": self_time("regression.sup_error"),
        "structures.count_sets_s": total(
            "structures.count_distinct_knn_sets"),
        "structures.count_sets_probes": sum(
            s.info["probes"] for s in by("structures.count_distinct_knn_sets")
            if s.info),
        "bounds.k_range_check_s": total("bounds.k_range_check"),
        "experiments.loop_self_s": self_time(*RUNNERS),
        "experiments.trials": len(trial_s),
        "experiments.trial_s_median": (
            statistics.median(trial_s) if trial_s else 0.0),
        "experiments.trial_s_max": max(trial_s, default=0.0),
        "experiments.csv_s": total(*CSV_WRITERS),
        "experiments.csv_bytes": sum(
            s.info["bytes"] for s in by("experiments.records_to_csv")
            if s.info),
        "cli.self_s": self_time("cli.cli_main"),
    }
