"""Exact large-number certificate of a run, in integer arithmetic.

Independent of defcast.forecaster: the inputs are a run's columns as
floats (forecast p, outcome y, exposure e, s_residual) and its Gram
matrix.  Every finite double is an integer times 2^-1074, so each sum and
product below is an exact Python integer, scaled by a power of two:

    lhs    = (sum_i r_i e_i)^2 + sum_ij r_i K_ij r_j
    rhs    = sum_i p_i (1 - p_i) (e_i^2 + K_ii)
    slack  = 2 sum_i |s_residual_i|
    margin = rhs + slack - lhs

The residual r_i is y_i - p_i exactly, not its rounding, so the margin is
that of the certificate's inequality at the program's forecasts.

From the command line it prints, per run directory, the report's
(shipped) margin, the exact margin and the shipped margin in ulps of the
report's lhs:

    python3 tests/exact_margin.py --game G [--kernel K] RUN_DIR...

--game and --kernel take a name or a JSON document, as `defcast certify`
does.  The certificate is O(N^2) in Python integers: about 3 s a run at
N = 1000.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import NamedTuple

# every finite double is an integer times 2^-SCALE
SCALE = 1074
ONE = 1 << SCALE


def scaled(v: float) -> int:
    """The integer v * 2^SCALE, exactly."""
    num, den = float(v).as_integer_ratio()  # den is a power of two
    return num * (ONE // den)


def exact_certificate(p, y, e, s_residual, gram) -> dict:
    """Fractions lhs, rhs, slack and margin of the run; gram is its N x N
    Gram matrix as nested sequences (or an array) of floats."""
    ps = [scaled(v) for v in p]
    rs = [int(yi) * ONE - pi for yi, pi in zip(y, ps)]
    es = [scaled(v) for v in e]
    rows = [[scaled(v) for v in row] for row in gram]
    cross = sum(map(mul, rs, es))  # scale 2^-2*SCALE
    quad = sum(ri * sum(map(mul, rs, row))  # scale 2^-3*SCALE
               for ri, row in zip(rs, rows))
    var = sum(pi * (ONE - pi) * (ei * ei + row[i] * ONE)  # 2^-4*SCALE
              for i, (pi, ei, row) in enumerate(zip(ps, es, rows)))
    lhs = Fraction(cross * cross + quad * ONE, 1 << 4 * SCALE)
    rhs = Fraction(var, 1 << 4 * SCALE)
    slack = Fraction(2 * sum(scaled(abs(s)) for s in s_residual), ONE)
    return {"lhs": lhs, "rhs": rhs, "slack": slack,
            "margin": rhs + slack - lhs}


class RunMargin(NamedTuple):
    exact: Fraction  # the margin at the run's floats, exactly
    shipped: float  # the report's margin
    lhs: float  # the report's lhs
    passed: bool  # the report's verdict


def exact_margins(run_dirs, game, kernel) -> dict:
    """RunMargin per run directory, by its name: the exact certificate of
    its round_log.csv on kernel's float Gram, with e from game.choices as
    Forecaster.load takes it, and the large-number certificate of its
    regret_report.json."""
    import reference
    from defcast.experiments import read_round_log
    margins = {}
    for run_dir in map(Path, run_dirs):
        x, p, q, y, s_residual = read_round_log(
            run_dir / "round_log.csv", ("x", "p", "q", "y", "s_residual"))[1]
        _, loss0, loss1 = game.choices(p, q)
        exact = exact_certificate(p, y, (loss1 - loss0).tolist(), s_residual,
                                  reference.gram(kernel, x).tolist())
        cert = json.loads((run_dir / "regret_report.json").read_text())[
            "large_numbers_certificate"]
        margins[run_dir.name] = RunMargin(exact["margin"], cert["margin"],
                                          cert["lhs"], cert["pass"])
    return margins


def main(argv=None) -> int:
    from defcast.games import Game
    from defcast.kernels import Kernel
    ap = argparse.ArgumentParser(
        description="shipped and exact large-number margins of runs")
    ap.add_argument("--game", required=True)
    ap.add_argument("--kernel", default="sobolev")
    ap.add_argument("run_dirs", nargs="+", metavar="RUN_DIR")
    args = ap.parse_args(argv)
    margins = exact_margins(args.run_dirs, Game.from_json(args.game),
                            Kernel.from_json(args.kernel))
    print(f"{'run':<28} {'shipped':>24} {'exact':>24} {'ulps of lhs':>11}")
    for name, m in margins.items():
        print(f"{name:<28} {m.shipped:>24.17g} {float(m.exact):>24.17g} "
              f"{m.shipped / math.ulp(m.lhs):>11.4g}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
