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
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

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
