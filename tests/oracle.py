"""Brute-force root oracle: dense grid scan plus bisection refinement.

Independent of the staged solver in defcast.forecaster: the betting
function is evaluated directly from the history sums on a dense grid over
the forecast domain (with a separate q-grid on the non-singleton face of
the absolute loss game), the first sign change along the lexicographic
path is located, and the bracket is refined by plain bisection.
"""

from __future__ import annotations

import math

import numpy as np

# the only polyline the oracle knows: absolute loss, with its own q-segment
ABSOLUTE_BOUNDARY = ((0.0, 1.0), (1.0, 0.0))

# p-grids (and log exposures) are expensive at 10^6 points; reuse them,
# with e^2, 1 - 2p and output buffers for the vectorized S
_GRID_CACHE: dict = {}


def _path(game) -> str:
    """"square", "log" or "absolute": which of the oracle's paths to take."""
    if game.boundary is None:
        return game.kind.value
    assert game.boundary == ABSOLUTE_BOUNDARY, \
        "the oracle covers no polyline but absolute loss"
    return "absolute"


def _grid(path: str, grid_n: int):
    """(ps, es, es^2, 1 - 2 ps, two output buffers) of the path's p-grid."""
    key = (path, grid_n)
    if key not in _GRID_CACHE:
        if path == "log":
            half = np.geomspace(1e-12, 0.5, grid_n // 2)
            ps = np.concatenate([half, 1.0 - half[::-1][1:]])
            es = np.log((1.0 - ps) / ps)
        else:
            ps = np.linspace(0.0, 1.0, grid_n)
            es = 1.0 - 2.0 * ps
        _GRID_CACHE[key] = (ps, es, es * es, 1.0 - 2.0 * ps,
                            np.empty_like(ps), np.empty_like(ps))
    return _GRID_CACHE[key]


def _s_on_grid(grid, a_sum, k_sum, kxx):
    """S over a cached grid, in s_of's operation order; reuses a buffer."""
    _, es, e2, one_m2p, out, tmp = grid
    np.multiply(es, a_sum, out=out)
    np.add(out, k_sum, out=out)
    np.add(e2, kxx, out=tmp)
    np.multiply(tmp, 0.5, out=tmp)
    np.multiply(tmp, one_m2p, out=tmp)
    return np.add(out, tmp, out=out)


def _absolute_grid(grid_n: int, q_grid: int):
    """(left ps, right ps, their 1 - 2p, qs, buffer for the whole path)."""
    key = ("absolute", grid_n, q_grid)
    if key not in _GRID_CACHE:
        ps = np.linspace(0.0, 1.0, grid_n)
        left, right = ps[ps < 0.5], ps[ps > 0.5]
        qs = np.linspace(0.0, 1.0, q_grid + 1)
        _GRID_CACHE[key] = (left, right, 1.0 - 2.0 * left,
                            1.0 - 2.0 * right, qs,
                            np.empty(len(left) + len(qs) + len(right)))
    return _GRID_CACHE[key]


def _sums(kernel, history, x):
    """Direct history sums: (sum e_i r_i, sum K(x,x_i) r_i, K(x,x))."""
    kxx = float(kernel.diag(x))
    if not history:
        return 0.0, 0.0, kxx
    es = np.array([h[4] for h in history])
    resid = np.array([h[3] - h[1] for h in history], dtype=float)
    xs = np.array([h[0] for h in history], dtype=float)
    krow = np.asarray(kernel(x, xs))
    return float(es @ resid), float(krow @ resid), kxx


def _first_flip(s):
    """Index i of the first sign change between i and i+1, or None."""
    signs = s > 0
    flips = np.nonzero(signs[1:] != signs[:-1])[0]
    zeros = np.nonzero(s == 0.0)[0]
    cand = []
    if flips.size:
        cand.append(int(flips[0]))
    if zeros.size:
        cand.append(int(zeros[0]))
    return min(cand) if cand else None


def _bisect(f, a, b):
    fa = f(a)
    if fa == 0.0:
        return a
    for _ in range(200):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def oracle_forecast(game, kernel, history, x, grid_n=1_000_000, q_grid=1_000):
    """(p, q) of the first root along the path, or the endpoint rule.

    history rows are (x_i, p_i, q_i, y_i, e_i).
    """
    a_sum, k_sum, kxx = _sums(kernel, history, x)
    path = _path(game)

    def s_of(p, e):
        return a_sum * e + k_sum + 0.5 * (e * e + kxx) * (1.0 - 2.0 * p)

    if path == "log":
        grid = _grid(path, grid_n)
        ps = grid[0]
        s = _s_on_grid(grid, a_sum, k_sum, kxx)
        i = _first_flip(s)
        if i is None:
            raise AssertionError("no root on a stripped domain")
        p = _bisect(lambda p: s_of(p, math.log((1.0 - p) / p)),
                    float(ps[i]), float(ps[i + 1]))
        return p, 0.5

    if path == "square":
        grid = _grid(path, grid_n)
        ps = grid[0]
        s = _s_on_grid(grid, a_sum, k_sum, kxx)
        i = _first_flip(s)
        if i is None:
            return (1.0 if s[0] > 0 else 0.0), 0.5
        p = _bisect(lambda p: s_of(p, 1.0 - 2.0 * p),
                    float(ps[i]), float(ps[i + 1]))
        return p, 0.5

    # absolute loss: path is p < 1/2 at e=1, the q-segment at p = 1/2
    # (S linear in e there), then p > 1/2 at e=-1
    # s_of(p, +-1) = (a_sum * e + k_sum) + (0.5 * (1 + kxx)) * (1 - 2p),
    # written into one buffer laid out as [left | q-segment | right]
    left, right, m_left, m_right, qs, s_all = _absolute_grid(grid_n, q_grid)
    n_l, n_s = len(left), len(qs)
    half = 0.5 * (1.0 * 1.0 + kxx)
    for part, m, e in ((s_all[:n_l], m_left, 1.0),
                       (s_all[n_l + n_s:], m_right, -1.0)):
        np.multiply(m, half, out=part)
        np.add(part, a_sum * e + k_sum, out=part)
    s_all[n_l:n_l + n_s] = a_sum * (1.0 - 2.0 * qs) + k_sum
    i = _first_flip(s_all)
    if i is None:
        return (1.0 if s_all[0] > 0 else 0.0), 0.5
    if i + 1 < n_l:
        p = _bisect(lambda p: s_of(p, 1.0), float(left[i]), float(left[i + 1]))
        return p, 0.5
    if i < n_l:  # junction: root in (last left p, 1/2] at e = 1
        p = _bisect(lambda p: s_of(p, 1.0), float(left[-1]), 0.5)
        return (p, 0.0) if p >= 0.5 else (p, 0.5)
    if i + 1 < n_l + n_s:  # inside the q-segment
        if a_sum == 0.0 and k_sum == 0.0:
            return 0.5, 0.5  # flat zero: root position unconstrained
        j = i - n_l
        q = _bisect(lambda q: a_sum * (1.0 - 2.0 * q) + k_sum,
                    float(qs[j]), float(qs[j + 1]))
        return 0.5, q
    if i < n_l + n_s:  # junction: root in [1/2, first right p) at e = -1
        p = _bisect(lambda p: s_of(p, -1.0), 0.5, float(right[0]))
        return (p, 1.0) if p <= 0.5 else (p, 0.5)
    j = i - n_l - n_s
    p = _bisect(lambda p: s_of(p, -1.0), float(right[j]), float(right[j + 1]))
    return p, 0.5
