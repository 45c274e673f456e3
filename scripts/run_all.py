#!/usr/bin/env python3
"""Run every canned experiment config through the CLI and fit the rates.

Usage: python scripts/run_all.py [--outdir OUT] [--seed SEED]

Writes one records CSV per config plus a fit CSV for the rate studies, and
prints a small summary table.  With the default seed this reproduces the
numbers checked by tests/test_acceptance.py.
"""

import argparse
import pathlib
import sys

from knnrates.cli import cli_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"

# (config file, subcommand, quantity to rate-fit or None)
STUDIES = [
    ("holder_rate.cfg", "regress", "sup_error"),
    ("manifold_rate.cfg", "manifold", "sup_error"),
    ("variance_scaling.cfg", "regress", None),
    ("coverage.cfg", "coverage", None),
    ("levelset_rate.cfg", "levelset", "d_H"),
    ("maxima_rate.cfg", "maxima", "maxima_dist"),
    ("setcount.cfg", "setcount", None),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="scripts/out")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for cfg_name, command, quantity in STUDIES:
        stem = cfg_name.removesuffix(".cfg")
        records_csv = outdir / f"{stem}.csv"
        argv = [command, "--config", str(CONFIG_DIR / cfg_name),
                "--out", str(records_csv)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {stem}")
        code = cli_main(argv)
        if code != 0:
            print(f"{stem}: exit {code}", file=sys.stderr)
            return code
        if quantity is not None:
            fit_csv = outdir / f"{stem}_fit.csv"
            code = cli_main(["fit", str(records_csv), "--quantity", quantity,
                             "--out", str(fit_csv)])
            if code != 0:
                return code
    print(f"done; outputs in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
