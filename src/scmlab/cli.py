"""Command-line experiment runner.

``scmlab run <experiment> --out DIR [--seed S] [--n N] [--config FILE]``
executes one registered experiment; ``scmlab list`` enumerates them.  On
failure a single JSON object ``{"error": <class>, "message": <text>}`` is
printed and the exit code is 1, so callers can script against it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ScmLabError
from .experiments import build_config, list_experiments, parse_config_file, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scmlab",
        description="Run seed-deterministic simulation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one experiment and write its report files")
    runp.add_argument("experiment", help="registered experiment name")
    runp.add_argument("--out", required=True, metavar="DIR",
                      help="output directory (created if missing)")
    runp.add_argument("--seed", type=int, default=None, metavar="S",
                      help="base seed (default: the experiment's own)")
    runp.add_argument("--n", type=int, default=None, metavar="N",
                      help="sample size (default: the experiment's own)")
    runp.add_argument("--config", default=None, metavar="FILE",
                      help="key = value parameter overrides")

    sub.add_parser("list", help="list registered experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name, description in list_experiments():
                print(f"{name:20s} {description}")
            return 0
        overrides = parse_config_file(args.config) if args.config else None
        config = build_config(args.experiment, out_dir=args.out,
                              seed=args.seed, n=args.n, overrides=overrides)
        files = run(config)
        print(f"wrote {', '.join(files)} to {config.out_dir}")
        return 0
    except ScmLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    except MemoryError as exc:
        print(json.dumps({"error": "MemoryError", "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
