"""Command-line front end for the experiment harness.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.
All randomness flows from --seed (when given) or the config master seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from collections import Counter

from .experiments import (ConfigError, DegenerateFitError, fit_rate,
                          load_config_file, read_records, records_to_csv,
                          run_coverage, run_experiment, with_master_seed,
                          write_records)


class _UsageError(Exception):
    """A bad command line, an unreadable input file or an --out path that
    cannot be written: exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the harness contract wants 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


_SUBCOMMAND_KIND = {
    "regress": "regression",
    "manifold": "regression",
    "levelset": "levelset",
    "maxima": "maxima",
    "coverage": "coverage",
    "setcount": "setcount",
}


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on the first call and reused: parsing
    leaves no state in it, and building it costs more than a parse."""
    parser = _Parser(prog="knnrates",
                     description="k-NN regression rate experiments")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--quiet", action="store_true",
                       help="suppress informational output")
    fit = sub.add_parser("fit", help="fit a log-log rate to a records CSV")
    fit.add_argument("records", help="records CSV produced by an experiment")
    fit.add_argument("--quantity", default=None,
                     help="quantity column to fit (default: most common)")
    fit.add_argument("--out", default=None, help="output CSV path")
    fit.add_argument("--quiet", action="store_true")
    return parser


def _check_out(path) -> None:
    """Bad usage, naming the path, when --out is a directory or its parent
    is not a directory the process can write to, found before any study
    runs or records are read; _writing_out handles what this cannot see."""
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise _UsageError(f"cannot write --out {path}: it is a directory")
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise _UsageError(f"cannot write --out {path}: {parent} is not a "
                          f"writable directory")


@contextlib.contextmanager
def _writing_out(path):
    """Bad usage, naming the path, when --out cannot be written."""
    try:
        yield
    except OSError as e:
        raise _UsageError(f"cannot write --out {path}: "
                          f"{e.strerror or e}") from e


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _writing_out(path), open(path, "w", encoding="utf-8",
                                      newline="\n") as f:
            f.write(text)


def _run_fit(args) -> int:
    try:
        records = read_records(args.records)
    except (OSError, ValueError) as e:  # unreadable or malformed: bad input
        raise _UsageError(str(e)) from e
    quantity = args.quantity
    if quantity is None:
        if not records:
            raise DegenerateFitError("records file is empty")
        quantity = Counter(r.quantity for r in records).most_common(1)[0][0]
    fit = fit_rate(records, quantity)
    lines = ["quantity,slope,intercept,residual_rms,slope_stderr,rungs",
             f"{quantity},{fit.slope:.17g},{fit.intercept:.17g},"
             f"{fit.residual_rms:.17g},{fit.slope_stderr:.17g},{fit.rungs}"]
    _emit("\n".join(lines) + "\n", args.out)
    if not args.quiet:
        print(f"{quantity}: slope {fit.slope:+.4f} over {fit.rungs} rungs "
              f"(residual rms {fit.residual_rms:.3g})", file=sys.stderr)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(e, file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 1

    if args.command is None:
        print(parser.format_usage(), file=sys.stderr)
        return 1

    try:
        _check_out(args.out)
        if args.command == "fit":
            return _run_fit(args)

        cfg = load_config_file(args.config)
        expected = _SUBCOMMAND_KIND[args.command]
        if cfg.kind != expected:
            raise ConfigError(
                f"experiment.kind: config declares {cfg.kind!r} but the "
                f"{args.command!r} subcommand expects {expected!r}")
        if args.command == "manifold" and cfg.manifold is None:
            raise ConfigError("manifold.kind: required for the manifold "
                              "subcommand")
        if args.seed is not None:
            cfg = with_master_seed(cfg, args.seed)

        if cfg.kind == "coverage":
            result = run_coverage(cfg)
            records = result.records
            if not args.quiet:
                print(f"coverage={result.coverage:.4f} "
                      f"radius_coverage={result.radius_coverage:.4f} "
                      f"sup_violations={list(result.sup_violations)} "
                      f"radius_violations={list(result.radius_violations)}",
                      file=sys.stderr)
        else:
            records = run_experiment(cfg)

        if args.out is None:
            sys.stdout.write(records_to_csv(records))
        else:
            with _writing_out(args.out):
                write_records(args.out, records)
        if not args.quiet:
            # A trial may write several records (one per k of `k.values`,
            # two per k for coverage), each carrying the trial's time:
            # count each trial once.
            trial_ms = {(r.n, r.seed): r.ms for r in records}
            total_ms = sum(trial_ms.values())
            print(f"{args.command}: {len(records)} records in ~{total_ms} ms",
                  file=sys.stderr)
        return 0
    except (ConfigError, DegenerateFitError, _UsageError) as e:
        print(f"knnrates {args.command}: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"knnrates {args.command}: runtime failure: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
