#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs derive from --seed.  After one untimed warm-up round, the
workload repeats whole rounds of its fixed operations for S seconds; the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (setup_s, wall_s, peak_rss_mb), with --trace 1 the
per-layer ones listed in BENCHMARK.json.  Outputs are checked after the
timed rounds.  See perfbench/README.md.
"""

import os

# numpy links a multi-threaded OpenBLAS; one thread keeps the timings of
# this 2-core machine steady.  Set before numpy is imported, and inherited
# by the set-up probes.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent

# Fresh-process set-ups per run; setup_s is their median.
SETUP_PROBES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_seconds(args) -> float:
    """Process start to the end of set-up, in a fresh interpreter: the
    child prints its monotonic clock once set-up is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def timed_rounds(wl, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed (at least one).  With a
    tracer, untraced and traced rounds alternate (at least one of each),
    so that a change of the host's pace falls on both alike."""
    plain, traced, per_round = [], [], []
    attempted = failed = 0
    begin = perf_counter()
    while True:
        trace = tracer is not None and len(traced) < len(plain)
        if trace:
            tracer.install()
        try:
            t0 = perf_counter()
            result = wl.round()
            duration = perf_counter() - t0
        finally:
            if trace:
                tracer.uninstall()
        (traced if trace else plain).append(duration)
        if trace:
            per_round.append(tracer.round_metrics())
        a, f = wl.record(result)
        attempted += a
        failed += f
        if perf_counter() - begin >= seconds and (tracer is None or traced):
            return plain, traced, per_round, attempted, failed


def declared_metrics(root: pathlib.Path, trace: bool) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "knnrates" / "__init__.py").is_file():
        print("perfbench: src/knnrates not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import knnrates  # numpy and scipy come with it
    import workloads
    import_s = perf_counter() - t0
    if pathlib.Path(knnrates.__file__).resolve().parent != \
            (src / "knnrates").resolve():
        print(f"perfbench: imported knnrates from {knnrates.__file__}, "
              "not from src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    outdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, outdir)
    if args.setup_probe:
        wl.setup()
        print(perf_counter())
        return 0

    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, wl, import_s)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    units = declared_metrics(root, bool(args.trace))
    if sorted(result["metrics"]) != sorted(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": v, "unit": units[name]}
                         for name, v in result["metrics"].items()}
    for p in wl.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run(args, wl, import_s: float) -> dict:
    import tracing

    setups = [] if args.trace else \
        [setup_seconds(args) for _ in range(SETUP_PROBES)]
    wl.setup()
    wl.record(wl.round(), warmup=True)

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, per_round, attempted, failed = timed_rounds(
        wl, args.seconds, tracer)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for label, durations in (("untraced", plain), ("traced", traced)):
        if durations:
            print(f"{wl.name}: {len(durations)} {label} rounds, median "
                  f"{statistics.median(durations):.4f} s: "
                  + " ".join(f"{d:.3f}" for d in durations))
    if setups:
        print(f"{wl.name}: set-up probes " +
              " ".join(f"{d:.3f}" for d in setups))

    if tracer is None:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(plain),
                   "peak_rss_mb": peak_mib}
    else:
        metrics = {name: statistics.median(r[name] for r in per_round)
                   for name in per_round[0]}
        metrics["process.import_s"] = import_s
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        # The tracer is installed only around the traced rounds, so these
        # counts hold the program's own calls, not the set-up's or checks'.
        wl.problems.extend(f"traced name {name} was never called"
                           for name in wl.expected
                           if tracer.calls.get(name, 0) == 0)

    t0 = perf_counter()
    wl.check()
    print(f"{wl.name}: checks took {perf_counter() - t0:.2f} s")
    return {"correct": not wl.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
