"""Command line entry point.

Four subcommands map onto the runners in :mod:`margrid.experiments`:

    margrid estimate   --config cfg.ini --out results/
    margrid compare    --config cfg.ini --out results/ --replicates 32
    margrid rate-study --config cfg.ini --out results/
    margrid design     --config cfg.ini --out results/ --seed 7

``--seed`` and ``--replicates`` override the corresponding config
values.  Replicates run one after another in replicate order.  The exit
code is nonzero whenever configuration loading or estimation fails.
"""

from __future__ import annotations

import argparse
import configparser
import sys

from .errors import MargridError
from .experiments import (
    ExperimentConfig,
    run_compare,
    run_design_study,
    run_estimate,
    run_rate_study,
)

_RUNNERS = {
    "estimate": (run_estimate, "fit the curve estimator and write diagnostics"),
    "compare": (run_compare, "grid estimator vs the single-chain baseline"),
    "rate-study": (run_rate_study, "error vs sampling effort in two regimes"),
    "design": (run_design_study, "sequential allocation loop and variance study"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="margrid",
        description="marginal likelihood curves from grid-local Monte Carlo samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, help_text) in _RUNNERS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="master seed override (any nonnegative integer)")
        cmd.add_argument("--replicates", type=int, default=None,
                         help="replicate count override")
        cmd.set_defaults(runner=runner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.load(args.config)
        manifest = args.runner(config, args.out, seed=args.seed,
                               replicates=args.replicates)
    except (MargridError, OSError, ValueError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outputs = ", ".join(manifest.get("outputs", []))
    print(f"{args.command}: wrote {outputs} and manifest.json to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
