#!/usr/bin/env python3
"""Run every canned experiment config through the CLI, fit the rates and
check each study's records.

Usage: python scripts/run_all.py [--outdir OUT] [--seed SEED]

Writes one records CSV per config plus a fit CSV for the rate studies.
Without --seed every study runs at its config's own seed; the script then
reads each records CSV back, checks its sha256 and its gates, prints one
PASS/FAIL line per check and exits 1 if any fails.  With --seed it runs
and fits only, since the digests and windows hold at the configs' own
seeds alone.
"""

import argparse
import hashlib
import math
import pathlib
import sys

import numpy as np

from knnrates import fit_rate, load_config_file, read_records
from knnrates.cli import cli_main
from knnrates.experiments import experiment_field
from knnrates.synth import support_box

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


# Gates: each maps a study's records and config to (ok, detail).

def slope_in(quantity, lo, hi):
    """The log-log slope of the quantity's per-rung medians is in [lo, hi]."""
    def gate(records, cfg):
        slope = fit_rate(records, quantity).slope
        return (lo <= slope <= hi,
                f"{quantity} slope {slope:.4f} in [{lo:.4g}, {hi:.4g}]")
    return gate


def minimax_slope(quantity, tol):
    """The slope is within tol of Stone's minimax -alpha/(2 alpha + d), for
    the field's smoothness alpha and the data's intrinsic dimension d."""
    def gate(records, cfg):
        alpha = experiment_field(cfg).metadata.alpha
        d = cfg.manifold.d if cfg.manifold is not None else cfg.density.dim
        target = -alpha / (2.0 * alpha + d)
        slope = fit_rate(records, quantity).slope
        return (abs(slope - target) <= tol, f"{quantity} slope {slope:.4f} "
                f"within {tol} of the minimax {target:.4f}")
    return gate


def median_ratio(k_top, k_bottom, lo, hi):
    """The median value at k_top over that at k_bottom is in [lo, hi]."""
    def gate(records, cfg):
        med = {k: float(np.median([r.value for r in records if r.k == k]))
               for k in (k_top, k_bottom)}
        ratio = med[k_top] / med[k_bottom]
        return (lo <= ratio <= hi, f"median ratio k={k_top} / k={k_bottom} "
                f"{ratio:.4f} in [{lo}, {hi}]")
    return gate


def coverage(quantity, p):
    """At least p - 3 sqrt(p (1 - p) / rows) of the quantity's rows lie
    within their bound: p less three binomial standard errors, or all at 1."""
    def gate(records, cfg):
        rows = [r for r in records if r.quantity == quantity]
        misses = [(r.n, r.k, r.seed) for r in rows if not r.value <= r.bound]
        share = (len(rows) - len(misses)) / len(rows)
        floor = p - 3.0 * math.sqrt(p * (1.0 - p) / len(rows))
        return (share >= floor, f"{quantity} within bound in {share:.3f} of "
                f"{len(rows)} rows >= {floor:.3f}, misses {misses}")
    return gate


def probe_spacing(quantity):
    """The probe grid's largest per-axis step is at most half the smallest
    per-rung median of the quantity, so the grid resolves it."""
    def gate(records, cfg):
        lo, hi = support_box(cfg.density)
        spacing = float(((hi - lo) / cfg.probe_cells).max())
        half = min(m for _, m in fit_rate(records, quantity).medians) / 2.0
        return (spacing <= half, f"probe spacing {spacing:.5f} <= half the "
                f"smallest {quantity} median {half:.5f}")
    return gate


# The canned studies: (config file, subcommand, quantity to rate-fit or
# None, sha256 of the records CSV at the config's own seed, gates).
STUDIES = [
    ("holder_rate.cfg", "regress", "sup_error",
     "f57c2ff451f8c2749d0046a29ea42bcc5212a538121a4b1716dad5deab292dd4",
     [minimax_slope("sup_error", 0.03)]),
    ("manifold_rate.cfg", "manifold", "sup_error",
     "c3b692dae12f8f5ed5dddee285eb94fbab0aa5588a5ed6c1e3db03aef0a85f40",
     [minimax_slope("sup_error", 0.03)]),
    ("variance_scaling.cfg", "regress", None,
     "5eba42bc30e7f1aeb9996a338fdfe524cb048c0d3c89b26ff72d71f2ecaf171d",
     [median_ratio(128, 64, 0.6, 0.82)]),
    ("coverage.cfg", "coverage", None,
     "289cf6ce5324a7622fb2b1d689b057b8e2238595a6c72b303651ea1f7c9f006f",
     [coverage("sup_error", 0.9), coverage("radius_max", 0.95)]),
    ("levelset_rate.cfg", "levelset", "d_H",
     "2696149e9e47b2d8b6b47b48d1ab5d70cdfae3701647fb0895d15a1591c2a872",
     [slope_in("d_H", -0.48, -0.18), probe_spacing("d_H")]),
    ("maxima_rate.cfg", "maxima", "maxima_dist",
     "bc1fe1a83829d7c9450ba0120d8766d6f4214c27eb91fc765bfba5466daff7f8",
     [slope_in("maxima_dist", -0.30, -0.10)]),
    ("setcount.cfg", "setcount", None,
     "96dff85aa78ae4d2ff06b8019a437ffea201b3098a4669ae384df5861bcb59ed",
     [coverage("set_count", 1.0)]),
]


def check(study, outdir):
    """(ok, detail) for the digest and for each gate of a study's records
    CSV in outdir."""
    cfg_name, _, _, digest, gates = study
    path = pathlib.Path(outdir) / f"{cfg_name.removesuffix('.cfg')}.csv"
    actual = hashlib.sha256(path.read_bytes()).hexdigest()
    records = read_records(path)
    cfg = load_config_file(CONFIG_DIR / cfg_name)
    return ([(actual == digest, f"sha256 {actual[:16]}, pinned {digest[:16]}")]
            + [gate(records, cfg) for gate in gates])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="scripts/out")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for cfg_name, command, quantity, _, _ in STUDIES:
        stem = cfg_name.removesuffix(".cfg")
        records_csv = outdir / f"{stem}.csv"
        run = [command, "--config", str(CONFIG_DIR / cfg_name),
               "--out", str(records_csv)]
        if args.seed is not None:
            run += ["--seed", str(args.seed)]
        print(f"== {stem}")
        code = cli_main(run)
        if code != 0:
            print(f"{stem}: exit {code}", file=sys.stderr)
            return code
        if quantity is not None:
            fit_csv = outdir / f"{stem}_fit.csv"
            code = cli_main(["fit", str(records_csv), "--quantity", quantity,
                             "--out", str(fit_csv)])
            if code != 0:
                return code
    failed = False
    if args.seed is None:
        for study in STUDIES:
            for ok, detail in check(study, outdir):
                print(f"{study[0]}: {'PASS' if ok else 'FAIL'} ({detail})")
                failed |= not ok
    print(f"done; outputs in {outdir}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
