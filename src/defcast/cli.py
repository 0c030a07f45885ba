"""Command-line experiment runner.

Subcommands:
  run       execute a config, write round-log CSV and regret-report JSON
  certify   recompute the large-number certificate from a round log
  constants print the kernel sup constant and the game/kernel constant

--game and --kernel take a name or a JSON document, as a config's fields do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from defcast.experiments import (ConfigError, ExperimentConfig, certify_log,
                                 document_errors, run)
from defcast.games import Game
from defcast.kernels import Kernel


def _game_and_kernel(args) -> tuple[Game, Kernel]:
    """--game and --kernel, each a name or a JSON document as in configs."""
    with document_errors("--game or --kernel"):
        return Game.from_json(args.game), Kernel.from_json(args.kernel)


def cmd_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    artifacts = run(config, args.out)
    print(f"round log:     {artifacts.round_log_path}")
    print(f"regret report: {artifacts.regret_report_path}")
    ok = artifacts.all_pass
    print("all inequalities pass" if ok else "INEQUALITY VIOLATED")
    return 0 if ok else 1


def cmd_certify(args) -> int:
    game, kernel = _game_and_kernel(args)
    result = certify_log(args.log, game, kernel)
    print(json.dumps(result, indent=2))
    return 0 if result["large_numbers_certificate"]["pass"] else 1


def cmd_constants(args) -> int:
    game, kernel = _game_and_kernel(args)
    if math.isinf(kernel.c_f):
        raise ConfigError("C_lambda_F needs a kernel range (C_F is inf)")
    print(f"C_F = {kernel.c_f!r}")
    print(f"C_lambda_F = {game.clambda(kernel.c_f)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defcast",
        description="online decision making with kernel defensive forecasts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="config JSON path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certify",
                            help="recompute certificates from a round log")
    p_cert.add_argument("--log", required=True, help="round log CSV path")
    p_cert.add_argument("--game", required=True)
    p_cert.add_argument("--kernel", default="sobolev")
    p_cert.set_defaults(func=cmd_certify)

    p_const = sub.add_parser("constants",
                             help="print C_F and the game/kernel constant")
    p_const.add_argument("--game", required=True)
    p_const.add_argument("--kernel", default="sobolev")
    p_const.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
