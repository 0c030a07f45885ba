"""Plain forms of quantities the package computes its own way.

The tests compare the package against these: the range of the betting
function S over the face at each p (ranges_on) and its sign (sgn), which
the forecaster's scan, walk and _s_at must all match; |S| on a square or
log game's point face (point_residual), which each such root report's
s_residual must equal; a kernel's Gram matrix (gram); and a game's
expected loss and exposure of a decision.
Each takes the game or kernel it reads as its first argument.
"""

from __future__ import annotations

import math

import numpy as np

from defcast.games import DomainError, GameKind
from defcast.kernels import KernelError, KernelKind


def ranges_on(game, ps: np.ndarray, A: float, B: float, C: float):
    """Min and max of S over the face at each p (vectorized)."""
    e_hi, e_lo = game.exposure_interval_arrays(ps)
    a = 0.5 * (1.0 - 2.0 * ps)
    c = B + C * ps
    v1 = a * e_hi * e_hi + A * e_hi + c
    v2 = a * e_lo * e_lo + A * e_lo + c
    lo = np.minimum(v1, v2)
    hi = np.maximum(v1, v2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = np.where(a != 0.0, -A / (2.0 * np.where(a == 0.0, 1.0, a)),
                      np.nan)
    inside = (e_hi > e_lo) & np.isfinite(ev) & (ev > e_lo) & (ev < e_hi)
    if np.any(inside):
        vv = a * ev * ev + A * ev + c
        lo = np.where(inside, np.minimum(lo, vv), lo)
        hi = np.where(inside, np.maximum(hi, vv), hi)
    return lo, hi


def sgn(lo, hi):
    """1 where lo > 0, -1 where hi < 0, else 0 (NaN included); lo <= hi."""
    return (lo > 0.0).view(np.int8) - (hi < 0.0).view(np.int8)


def point_residual(game, p: float, A: float, B: float, C: float) -> float:
    """|S| at p on a point face, with the exposure read again from
    game.exposure_interval(p): the quadratic in e at its one e."""
    e, _ = game.exposure_interval(p)
    return abs(0.5 * (1.0 - 2.0 * p) * e * e + A * e + (B + C * p))


def gram(kernel, points) -> np.ndarray:
    """Gram matrix of a nonempty point list."""
    pts = list(points)
    if not pts:
        raise KernelError("gram needs at least one point")
    if kernel.kind is KernelKind.CUSTOM:
        n = len(pts)
        g = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = float(kernel.func(pts[i], pts[j]))
        return g
    xs = np.asarray(pts, dtype=float)
    return np.asarray(kernel(xs[:, None], xs[None, :]))


def expected_loss(game, p: float, gamma: float) -> float:
    """Expected loss of gamma when the probability of outcome 1 is p."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0,1]")
    return p * game.loss(1, gamma) + (1.0 - p) * game.loss(0, gamma)


def exposure(game, gamma: float) -> float:
    """Sensitivity of the decision's loss to the outcome: loss1 - loss0."""
    game._check_gamma(gamma)
    if game.kind is GameKind.SQUARE:
        return 1.0 - 2.0 * gamma
    if game.kind is GameKind.LOG:
        return math.log((1.0 - gamma) / gamma)
    a, b = game._boundary_pair(gamma)
    return b - a
