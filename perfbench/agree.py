#!/usr/bin/env python3
"""Two-set agreement check for the benchmark.

Usage (from the repository root):

    python3 perfbench/agree.py --runs N [--seed0 K]

Runs every workload of BENCHMARK.json 2N times, each for its run_seconds
and with a distinct seed, alternating between set A and set B.  It prints
per end-to-end metric each set's median and quartiles, the largest
quartile spread (q3 - q1 as a share of the median) of set A, set B and the
pooled 2N runs, and the set-to-set difference of medians against the
metric's bound.  It fails (exit code 1) when a spread exceeds its bound,
when the set medians differ by more than the bound in either direction,
when the share of failed operations differs between runs, or when a run is
not correct.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    command = [sys.executable] + spec["command"][1:]

    runs = {(w, s): [] for w in workloads for s in "AB"}
    seed = args.seed0
    for i in range(args.runs):
        for w in workloads:
            for s in "AB":
                t0 = time.monotonic()
                r = run_once(command, w, seed, seconds)
                took = time.monotonic() - t0
                seed += 1
                runs[(w, s)].append(r)
                vals = " ".join(f"{k}={v['value']:.4f}"
                                for k, v in r["metrics"].items())
                print(f"  {w} set {s} run {i + 1} seed {seed - 1} "
                      f"({took:.0f} s): correct={r['correct']} failed={r['failed']}/"
                      f"{r['attempted']} {vals}", flush=True)

    ok = True
    print(f"\n{args.runs} runs per set, {seconds} s each")
    print(f"{'workload':18} {'metric':12} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'spread':>7} {'B-A':>7} {'bound':>6}")
    for w in workloads:
        a, b = runs[(w, "A")], runs[(w, "B")]
        if not all(r["correct"] for r in a + b):
            print(f"{w}: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in a + b}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            qa, qb, qp = quartiles(va), quartiles(vb), quartiles(va + vb)
            spread = max((q[2] - q[0]) / q[1] for q in (qa, qb, qp))
            diff = (qb[1] - qa[1]) / qa[1]
            bad = abs(diff) > bound or spread > bound
            ok = ok and not bad
            print(f"{w:18} {name:12} "
                  f"{qa[1]:10.4f} [{qa[0]:8.4f},{qa[2]:8.4f}] "
                  f"{qb[1]:10.4f} [{qb[0]:8.4f},{qb[2]:8.4f}] "
                  f"{spread:7.3f} {diff:+7.3f} {bound:6.2f}"
                  f"{'  FAIL' if bad else ''}")
        print(f"{w:18} failed share {sorted(shares)}")
    print("agreement:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
