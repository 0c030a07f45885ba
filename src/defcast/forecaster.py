"""Online forecaster: roots the betting function on the lexicographic square.

Each round the betting function S reduces, at fixed p, to a quadratic in
the exposure variable e over the optimal face's exposure interval:

    S(p, e) = (1 - 2p)/2 * e^2 + A*e + B + C*p

with A the running sum of exposure-weighted residuals and B, C determined
by the kernel column at the new datum.  Stage 1 brackets the first sign
change of S in lexicographic order; stage 2 shrinks that bracket to
adjacent floats; on a polyline, stage 3 solves the quadratic in e
analytically and maps e back to the tie-breaker q.

Stage 1 for square and log loss, which have no special ps, takes the
first sign change of S on a p-grid of point faces.  Where S provably
falls in p (square: A - C/2 > 0, since with u = 1 - 2p S is the cubic
u^3/2 + (A - C/2)*u + (B + C/2); log: A >= 0 and C <= 0), it finds the
cell without evaluating the grid: square takes the cubic's one real root
from Cardano's formula and bisects it into the grid, log binary-searches
the delta = 1e-6 grid, each reading only the grid values it needs, with
the scan's bits.  beta bounds |computed value - exact S| over the grid,
so a cell whose left value exceeds 2*beta and whose right value is not
positive is the scan's first sign change: every earlier value stays
above beta.  On square, a first value below -2*beta or a last above
2*beta likewise proves an endpoint round.  Every other round falls back
to the scan, the reference: S on the whole grid, whose first sign change
one pass finds: the sign s0 of the first value, in Python, picks one
comparison (v > 0 or v < 0), and its argmin is the first point whose
sign is not s0, NaN counting as sign 0.  Where log's delta = 1e-6 grid
has none, a grid from 2^-1022 to 1 - 2^-53 is scanned; where that has
none either, the round plays its end float on s0's side, with |S| there
as its s_residual.  A polyline's exposure is
constant between special ps, so S is linear in p there: stage 1 walks
the path in O(vertices), valuing each segment's line at its ends with
the segment's exposure and signing each special p's face over its value
range, and the first segment whose line turns negative is the bracket.
Stage 2 is one method for every game: S is continuous in p inside the
bracket, so a safeguarded Illinois regula falsi steps to the secant
point, or bisects where a step lands within the face tolerance of a
special p, whose wide face has no value.  Its evaluations run in plain
Python floats with the scan's arithmetic: the same expressions in the
same order, and np.log.  Square and log faces are points, so each report
carries the value of S that stage 1 or 2 computed at its p.  A polyline's
stage 3 solves at both ends of the closed bracket, finding the face at p
once, for its exposures and the decision the report carries.

The history is one columnar store: a numpy column per field (x, p, q, y,
exposure e, residual y - p, gamma, loss, s_residual, branch), grown by
doubling, of which rows [:round] are live.  update writes a round as it
is played; load writes a certified log's columns at once, with update's
bits.  x is float for the built-in kernels and object for custom
kernels, whose points are opaque.  Every kernel sum over the history is
ordered_dot of a Kernel.row.  The stored loss is the canonical
decision's loss1 or loss0, which equals Game.loss(y, gamma) bit for bit
(square and log build the pair with Game.loss's expressions, polylines
with its arithmetic).  Values leave the store through tolist(), never as
numpy scalars, whose repr under numpy 2 is not the shortest round-trip
decimal.

The grid, its exposure interval and its quadratic coefficient do not
depend on the history, so the scan takes them from a cache of the (one
or two) grids, each filled on first use; each round computes only
the constant term B + C*p, the values and the first sign change.  The
falling-S bracket reads the delta = 1e-6 scan's terms as Python lists,
with beta's coefficients, cached beside them.  A polyline's path faces
are computed once per forecaster.  tests/reference.py's ranges_on is the
uncached reference whose signs the scan, the walk and _s_at must match.
"""

from __future__ import annotations

import bisect
import math
import numbers
from enum import Enum
from typing import NamedTuple

import numpy as np

from defcast.games import Decision, DomainError, Forecast, Game, GameKind
from defcast.kernels import (Kernel, KernelExpansion, KernelKind, ordered_dot,
                             rounded_sum, two_sum)

# points of the stage-1 p-grid of square and log
_P_GRID = 1024

# unit roundoff and least normal number of a float64
_U = 2.0 ** -53
_NORMAL_MIN = 2.0 ** -1022

# the stripped domain's stage-1 grid spans [delta, 1 - max(delta, 2^-53)],
# first at this delta, then at _NORMAL_MIN (e overflows below 5.6e-309)
_DELTA_START = 1e-6

# the merged kernel's exposure part, e e', as a kernel on the exposures
_EXPOSURES = Kernel.linear()

# rows the history columns hold before their first doubling
_INITIAL_CAPACITY = 64
# dtype of each history column; None marks x, whose dtype the kernel sets
_COLUMNS = {"x": None, "p": float, "q": float, "y": int, "e": float,
            "residual": float, "gamma": float, "loss": float,
            "s_residual": float, "branch": object}


def running_totals(values, start: float = 0.0) -> np.ndarray:
    """Totals after 0, 1, ..., len(values) rounds, added left to right in
    round order (sum() compensates since Python 3.12); inf past the range."""
    with np.errstate(over="ignore"):
        return np.concatenate(([start], values)).cumsum()


def check_datum(x, kernel: Kernel) -> None:
    """A custom kernel's point is opaque: it needs a finite K(x, x) >= 0
    with sqrt(K(x, x)) <= C_F, which NaN fails.  A built-in kernel's datum
    must be real (an int or a bool too), finite and inside a linear range,
    if any, as the float that the x column and load take."""
    if kernel.kind is KernelKind.CUSTOM:
        kxx = float(kernel.diag(x))
        if not (0.0 <= kxx < math.inf and math.sqrt(kxx) <= kernel.c_f):
            raise DomainError(f"datum {x!r} has K(x, x) = {kxx!r}, outside "
                              f"[0, C_F^2] for C_F = {kernel.c_f!r}")
        return
    if not isinstance(x, (float, np.floating)):
        if not isinstance(x, numbers.Real):
            raise DomainError(f"datum must be a real number for the "
                              f"{kernel.kind.value} kernel, got {x!r}")
        try:
            x = float(x)
        except OverflowError:
            raise DomainError(f"datum {x} outside the float range") from None
    if not math.isfinite(x):
        raise DomainError(f"datum must be finite, got {x}")
    if kernel.data_range is not None and abs(x) > kernel.data_range:
        raise DomainError(f"datum {x} outside the kernel's range "
                          f"|x| <= {kernel.data_range}")


class Branch(Enum):
    ROOT = "root"
    ENDPOINT_POSITIVE = "endpoint_positive"
    ENDPOINT_NEGATIVE = "endpoint_negative"


class RootReport(NamedTuple):
    forecast: Forecast
    s_residual: float
    branch: Branch
    # the canonical decision at forecast where stage 3 found it on the way
    # (a polyline's root, from the face it solved on), else None
    decision: Decision | None = None


def _point(p: float, v: float, branch: Branch = Branch.ROOT) -> RootReport:
    """The report at p on a point face where S has the value v."""
    return RootReport(Forecast(p, 0.5), abs(v), branch)


class Forecaster:
    """State of one online forecasting sequence (single-writer)."""

    def __init__(self, game: Game, kernel: Kernel):
        self.game = game
        self.kernel = kernel
        x_dtype = object if kernel.kind is KernelKind.CUSTOM else float
        self._cols = {name: np.empty(_INITIAL_CAPACITY, dtype or x_dtype)
                      for name, dtype in _COLUMNS.items()}
        self._n = 0
        self.agg_a = 0.0  # running sum of e_i * (y_i - p_i)
        # delta -> (grid, e_hi, a*e_hi^2) of the stage-1 scan
        self._scans: dict[float, tuple] = {}
        # the falling-S bracket's lists and beta coefficients (_fall_terms)
        self._fall: tuple | None = None
        # a polyline's path: (p, (e_hi, e_lo)) of the faces at 0, at each
        # special p and at 1; the exposure between two is the first's e_lo
        self._path = tuple(
            (p, game.exposure_interval(p))
            for p in (0.0, *game.special_ps(), 1.0)
        ) if game.kind is GameKind.CUSTOM else None

    @property
    def round(self) -> int:
        return self._n

    @property
    def residual_total(self) -> float:
        """sum_i |s_residual_i|, added in round order."""
        return float(running_totals(np.abs(self.column("s_residual")))[-1])

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one history column over the rounds so far."""
        view = self._cols[name][:self._n]
        view.flags.writeable = False
        return view

    # -- kernel sums ------------------------------------------------------

    def at_x(self, f: KernelExpansion) -> np.ndarray:
        """f(x_i) for each round: Kernel.sums over the x column at f's
        centres and weights, with the bits of f at each x alone."""
        return f.kernel.sums(self.column("x"), *f.arrays)

    def coefficients(self, x) -> tuple[float, float, float]:
        """(A, B, C) of the quadratic-in-e form of S at datum x."""
        kxx = float(self.kernel.diag(x))
        resid = self._cols["residual"][:self._n]
        row = self.kernel.row(x, self._cols["x"][:self._n])
        return self.agg_a, ordered_dot(row, resid) + 0.5 * kxx, -kxx

    def s_value(self, p: float, q: float, x) -> float:
        """Betting function at (p, q, x), by direct summation over history."""
        e = self.game.canonical_choice(Forecast(p, q)).exposure
        kxx = float(self.kernel.diag(x))
        total = 0.5 * (e * e + kxx) * (1.0 - 2.0 * p)
        resid = self._cols["residual"][:self._n]
        row = self.kernel.row(x, self._cols["x"][:self._n])
        terms = (e * self._cols["e"][:self._n] + row) * resid
        return total + float(terms.sum())

    # -- root finding -----------------------------------------------------

    def _p_grid(self, delta: float) -> np.ndarray:
        if self.game.stripped:  # no float lies in (1 - 2^-53, 1)
            top = np.geomspace(max(delta, _U), 0.5, _P_GRID // 2)
            return np.concatenate([np.geomspace(delta, 0.5, _P_GRID // 2),
                                   1.0 - top[::-1][1:]])
        return np.linspace(0.0, 1.0, _P_GRID)

    def _scan_terms(self, delta: float) -> tuple:
        """(grid, e_hi, a*e_hi^2) of the scan, cached per delta."""
        terms = self._scans.get(delta)
        if terms is None:
            grid = self._p_grid(delta)
            e_hi, _ = self.game.exposure_interval_arrays(grid)
            quad = 0.5 * (1.0 - 2.0 * grid) * e_hi * e_hi
            for arr in (grid, e_hi, quad):
                arr.flags.writeable = False
            terms = self._scans[delta] = (grid, e_hi, quad)
        return terms

    def _scan(self, delta: float, A: float, B: float, C: float):
        """(grid, values, s0, i) of S on the grid at delta, where every face
        is a point: s0 is the sign of the first value, and i the index of
        the first value whose sign is not s0, the first index of
        np.nonzero(sgn(v, v) != s0) for tests/reference.py's sgn (NaN has
        sign 0), or 0 when s0 is 0 or no sign differs.  An argmin finds it."""
        grid, e_hi, quad = self._scan_terms(delta)
        v = quad + A * e_hi + (B + C * grid)
        v0 = float(v[0])
        s0 = (v0 > 0.0) - (v0 < 0.0)
        if s0 == 0:
            return grid, v, 0, 0
        # argmin of a bool array is its first False, or 0 when all are True
        return grid, v, s0, int((v > 0.0 if s0 > 0 else v < 0.0).argmin())

    def _fall_terms(self) -> tuple:
        """(stripped, grid, e_hi, quad, k): whether the game is stripped,
        the delta = _DELTA_START scan's terms as lists, and the
        coefficients k = (k0, kA, kB, kC) of its error bound

            beta = k0 + kA*|A| + kB*|B| + kC*|C|
                 >= |v_i - S(g_i)| at every grid point g_i,

        where v_i is the scan's value and S the exact betting function at
        the float g_i (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 3).  With w = 1 - 2g exact and e the cached exposure,
        v = ((w/2*e*e + A*e) + (B + C*g)) carries at most five roundings
        on its quadratic term (1 - 2g, two products, two sums), three on
        A*e and on C*g, two on B; so |v - v^| <= gamma_5 * (|quad| + |A e|
        + |B| + |C g|), v^ being S with e in place of the exact exposure
        e*.  If |e - e*| <= d, |v^ - S| <= |w|/2 * d * (2|e| + d) + |A| d.
        Square's e = 1 - 2g rounds once: d = u|e|.  Log's rounds
        (1 - g)/g twice, then np.log, allowed 4 ulps (numpy's accuracy
        tests hold it to 1): d = 2u + 8u|e|.  Each coefficient, a maximum
        over the grid times its factor, is doubled, which covers the dropped
        O(u^2) terms, an underflowing operation's absolute error and the
        rounding of beta's own sum.
        """
        if self._fall is None:
            grid, e_hi, quad = self._scan_terms(_DELTA_START)
            e = np.abs(e_hi)
            d = (2.0 + 8.0 * e if self.game.stripped else e) * _U
            gamma5 = 5.0 * _U / (1.0 - 5.0 * _U)
            k = (gamma5 * np.abs(quad).max()
                 + (np.abs(1.0 - 2.0 * grid) * d * (e + 0.5 * d)).max(),
                 gamma5 * e.max() + d.max(), gamma5, gamma5 * grid[-1])
            self._fall = (self.game.stripped, grid.tolist(), e_hi.tolist(),
                          quad.tolist(), tuple(2.0 * float(c) for c in k))
        return self._fall

    def _falling(self, A: float, B: float, C: float) -> RootReport | None:
        """Stage 1 without the scan where S provably falls in p, else None.

        S falls where dS/dp <= 0 on the whole domain: on square,
        -3u^2 - 2(A - C/2) with u = 1 - 2p; on log, -(e^2 - C) +
        (w*e + A)*e'(p) with e' < 0 and w*e >= 0.  Then a cell with
        v[j - 1] > 2*beta and v[j] not > 0 is the scan's first sign
        change: for i < j, v_i >= S(g_i) - beta >= S(g_(j-1)) - beta
        >= v[j - 1] - 2*beta > 0.  Square finds j from the cubic's root,
        log by binary search; both read the scan's values with its bits.
        beta < 1e290 keeps every term below 1e305: no value overflows.
        """
        stripped, g, e, quad, k = self._fall or self._fall_terms()
        if not (A >= 0.0 and C <= 0.0 if stripped else 2.0 * A > C):
            return None
        beta = k[0] + k[1] * abs(A) + k[2] * abs(B) + k[3] * abs(C)
        if not beta < 1e290:  # also a NaN or infinite coefficient
            return None
        tol = 2.0 * beta
        n = len(g)
        if stripped:
            # where the grid shows no sign change the search ends in a cell
            # the check below declines, and next_forecast scans on
            j, hi = 0, n - 1
            va = quad[j] + A * e[j] + (B + C * g[j])
            vb = quad[hi] + A * e[hi] + (B + C * g[hi])
            while hi - j > 1:
                mid = (j + hi) // 2
                v = quad[mid] + A * e[mid] + (B + C * g[mid])
                if v > 0.0:
                    j, va = mid, v
                else:
                    hi, vb = mid, v
            j = hi
        else:
            # the one real root of u^3 + a*u + b = 0, a > 0, from Cardano's
            # formula without cancellation: u = c1 + c2 with c1*c2 = -a/3
            # and c1^3 + c2^3 = -b, so u = -b / (c1^2 + a/3 + c2^2)
            a, b = 2.0 * A - C, 2.0 * B + C
            c1 = math.cbrt(0.5 * abs(b) + math.sqrt(0.25 * b * b
                                                    + a * a * a / 27.0))
            if c1 == 0.0:  # b = 0 and a^3 underflows
                return None
            c2 = a / (3.0 * c1)
            j = bisect.bisect_left(
                g, 0.5 * (1.0 + b / (c1 * c1 + a / 3.0 + c2 * c2)))
            if j == 0:
                va = quad[0] + A * e[0] + (B + C * g[0])
                return self._endpoint(-1) if va < -tol else None
            if j == n:
                vb = quad[-1] + A * e[-1] + (B + C * g[-1])
                return self._endpoint(1) if vb > tol else None
            va = quad[j - 1] + A * e[j - 1] + (B + C * g[j - 1])
            vb = quad[j] + A * e[j] + (B + C * g[j])
        if not va > tol or vb > 0.0:
            return None
        if vb < 0.0:
            return self._refine(g[j - 1], va, g[j], vb, 1, A, B, C)
        return _point(g[j], vb)  # a zero or NaN: sign 0

    def _s_at(self, p: float, A: float, B: float, C: float, exposures=None):
        """(sign, value) of S at a scalar p on the face with exposures
        (e_hi, e_lo), p's own face by default, in the scan's arithmetic; on
        a wide face, the sign of its value range by the rule of
        tests/reference.py's ranges_on and the value NaN."""
        e_hi, e_lo = exposures or self.game.exposure_interval_arrays(p)
        if e_hi == e_lo:
            v = 0.5 * (1.0 - 2.0 * p) * e_hi * e_hi + A * e_hi + (B + C * p)
            return (v > 0.0) - (v < 0.0), v  # NaN: sign 0
        a, c = 0.5 * (1.0 - 2.0 * p), B + C * p
        vals = [a * e_hi * e_hi + A * e_hi + c, a * e_lo * e_lo + A * e_lo + c]
        if a != 0.0:
            ev = -A / (2.0 * a)
            if e_hi > e_lo and math.isfinite(ev) and e_lo < ev < e_hi:
                vals.append(a * ev * ev + A * ev + c)
        if any(map(math.isnan, vals)):
            return 0, math.nan  # np.minimum/np.maximum propagate NaN
        return (min(vals) > 0.0) - (max(vals) < 0.0), math.nan

    def next_forecast(self, x) -> RootReport:
        """Forecast for datum x: a root of S, or the endpoint rule."""
        A, B, C = self.coefficients(x)
        if self._path is not None:
            return self._walk(A, B, C)
        report = self._falling(A, B, C)
        if report is not None:
            return report
        grid, v, s0, i = self._scan(_DELTA_START, A, B, C)
        if s0 and not i and self.game.stripped:  # no sign change visible
            grid, v, s0, i = self._scan(_NORMAL_MIN, A, B, C)
        vi = float(v[i])
        if not (vi > 0.0 or vi < 0.0):  # sign 0 (s0 == 0 gives i = 0)
            return _point(float(grid[i]), vi)
        if i:
            return self._refine(float(grid[i - 1]), float(v[i - 1]),
                                float(grid[i]), vi, s0, A, B, C)
        if self.game.stripped:  # the root lies beyond s0's end float
            k = -1 if s0 > 0 else 0
            return _point(float(grid[k]), float(v[k]))
        return self._endpoint(s0)

    def _walk(self, A: float, B: float, C: float) -> RootReport:
        """Stage 1 for a polyline: the first sign change along its path.

        Between two faces of the path e is constant, so S is the line
        (e^2/2 + A*e + B) - p*(e^2 + K(x,x)), non-increasing as K(x,x) >= 0.
        Entered with sign s0 > 0, a segment holds a root where its line,
        valued with the segment's exposure in the scan's arithmetic, is
        negative at the end face; at the start it is positive, as the
        start face's value range is.  The segment is stage 2's bracket.
        Else the end face is signed.
        """
        path = self._path
        s0 = self._s_at(0.0, A, B, C, path[0][1])[0]
        if s0 == 0:
            return self._solve_at(0.0, A, B, C)
        for (pa, (_, e)), (pb, face) in zip(path, path[1:]):
            if s0 > 0:
                vb = 0.5 * (1.0 - 2.0 * pb) * e * e + A * e + (B + C * pb)
                if vb < 0.0:
                    va = 0.5 * (1.0 - 2.0 * pa) * e * e + A * e + (B + C * pa)
                    return self._refine(pa, va, pb, vb, s0, A, B, C)
            if self._s_at(pb, A, B, C, face)[0] != s0:
                return self._solve_at(pb, A, B, C)
        return self._endpoint(s0)

    def _endpoint(self, s: int) -> RootReport:
        branch = Branch.ENDPOINT_POSITIVE if s > 0 else Branch.ENDPOINT_NEGATIVE
        return _point((1.0 + s) / 2.0, 0.0, branch)

    def _refine(self, pa, fa, pb, fb, s0: int,
                A: float, B: float, C: float) -> RootReport:
        """Shrink the bracket [pa, pb] (signs s0, -s0) to adjacent floats.

        Illinois regula falsi on the values fa, fb: the secant point, or
        the midpoint when the secant is NaN; the retained end's value halves
        when the same end is replaced twice in a row.  A secant point that
        rounds onto an end moves to the next float inside, so a root within
        an ulp of one end is closed in a step or two, not by halving.  No
        special p sits strictly inside, so S is continuous on (pa, pb).
        Square and log report the end with the smaller |S|, pa on a tie, with
        its value, S on its point face; a polyline solves both ends, as its
        ends' values use the segment's exposure, not a special p's face.
        """
        nextafter, s_at = math.nextafter, self._s_at
        side = 0  # -1 after pa was replaced, 1 after pb was
        va, vb = fa, fb  # the ends' values, which Illinois does not halve
        for step in range(200):
            pm = 0.5 * (pa + pb)
            if pm <= pa or pm >= pb:
                break
            t = fa * (pb - pa)
            # a product below the normal range has lost the secant's digits
            ps = pa - (t / (fb - fa) if abs(t) >= _NORMAL_MIN
                       else (pb - pa) * (fa / (fb - fa)))
            if step >= 100:  # a stall, an ulp a step: halve the floats
                k = np.array([pa + 0.0, pb]).view(np.int64) // 2
                ps = float((k[0] + k[1]).view(np.float64))
            if ps == ps:  # else NaN: an end has no value
                pm = ps if pa < ps < pb else nextafter(pa, pb) if ps <= pa \
                    else nextafter(pb, pa)
            s, f = s_at(pm, A, B, C)
            if s == 0:
                return _point(pm, f) if self._path is None \
                    else self._solve_at(pm, A, B, C)
            if s == s0:
                if side < 0:
                    fb *= 0.5
                pa, fa, va, side = pm, f, f, -1
            else:
                if side > 0:
                    fa *= 0.5
                pb, fb, vb, side = pm, f, f, 1
        if self._path is None:
            return _point(pb, vb) if abs(vb) < abs(va) else _point(pa, va)
        ra, rb = self._solve_at(pa, A, B, C), self._solve_at(pb, A, B, C)
        return rb if rb.s_residual < ra.s_residual else ra  # a tie: pa's

    def _solve_at(self, p: float, A: float, B: float, C: float) -> RootReport:
        """Solve a polyline's quadratic in e on its face at p; map e to the
        tie-breaker q.  The face is found once: it gives the exposures here
        and the report's decision, which the protocol then plays.  Square
        and log faces are points: stage 1 or 2's value is their report."""
        game = self.game
        face = game._custom_face(p)
        e_hi, e_lo = game._face_exposures(face)
        a = 0.5 * (1.0 - 2.0 * p)
        c = B + C * p

        def phi(e):
            return a * e * e + A * e + c

        def report(q, e):
            return RootReport(Forecast(p, q), abs(phi(e)), Branch.ROOT,
                              game._face_choice(face, q))

        if e_hi == e_lo:
            return report(0.5, e_hi)
        tiny = 1e-14 * (1.0 + abs(A) + abs(c))
        if abs(a) * max(abs(e_hi), abs(e_lo)) ** 2 < tiny and abs(A) * max(
                abs(e_hi), abs(e_lo)) < tiny:
            # S is flat in q along this face; tie-break at q = 1/2
            return report(0.5, 0.5 * (e_hi + e_lo))

        roots: list[float] = []
        if abs(a) < 1e-300:
            if A != 0.0:
                roots.append(-c / A)
        else:
            disc = A * A - 4.0 * a * c
            if disc >= 0.0:
                sq = math.sqrt(disc)
                if A >= 0.0:
                    r1 = (-A - sq) / (2.0 * a)
                else:
                    r1 = (-A + sq) / (2.0 * a)
                roots.append(r1)
                if r1 != 0.0:
                    roots.append(c / (a * r1))
                else:
                    roots.append(-A / a)
        span = e_hi - e_lo
        tol = 1e-9 * (1.0 + abs(span))
        feasible = [min(max(r, e_lo), e_hi) for r in roots
                    if e_lo - tol <= r <= e_hi + tol]
        if feasible:
            e = max(feasible)  # largest e == lexicographically smallest q
        else:
            e = min((e_hi, e_lo), key=lambda v: abs(phi(v)))
        q = (e_hi - e) / span
        return report(min(max(q, 0.0), 1.0), e)

    # -- protocol hooks ---------------------------------------------------

    def update(self, x, forecast: Forecast, y: int,
               s_residual: float = 0.0, branch: Branch = Branch.ROOT,
               decision: Decision | None = None) -> None:
        """Append a completed round to the history."""
        if y not in (0, 1):
            raise DomainError(f"observation must be binary, got {y}")
        check_datum(x, self.kernel)
        # decision, when the caller has it, is the canonical choice at forecast
        d = decision or self.game.canonical_choice(forecast)
        y = int(y)
        e = d.exposure
        resid = float(y) - forecast.p
        n = self._n
        if n == len(self._cols["p"]):  # full
            self._double()
        cols = self._cols
        cols["x"][n] = x
        cols["p"][n] = forecast.p
        cols["q"][n] = forecast.q
        cols["y"][n] = y
        cols["e"][n] = e
        cols["residual"][n] = resid
        cols["gamma"][n] = d.gamma
        cols["loss"][n] = d.loss1 if y else d.loss0
        cols["s_residual"][n] = s_residual
        cols["branch"][n] = branch
        self._n = n + 1
        self.agg_a += e * resid

    def _double(self) -> None:
        self._cols = {name: np.concatenate([col, np.empty_like(col)])
                      for name, col in self._cols.items()}

    def load(self, x, p, q, y, s_residual, branch) -> None:
        """Append rounds given as columns, with the bits of an update per
        row (agg_a adds e * residual in round order).  Every row is checked
        first: x at its least and greatest where it holds only ints and
        floats for a built-in kernel, else at each point (fromiter would
        parse a string into the float column), y, and the forecasts in
        Game.choices, whose gamma is then p or a point of the face.  A bad
        row raises update's DomainError for the first row that update
        refuses, with its index as `row`, and nothing is written."""
        m = len(p)
        if any(len(c) != m for c in (x, q, y, s_residual, branch)):
            raise ValueError("load needs columns of one length")
        whole = self.kernel.kind is not KernelKind.CUSTOM and (
            x.dtype.kind in "biuf" if isinstance(x, np.ndarray)
            else set(map(type, x)) <= {float, int, bool})
        p, q, ys = np.asarray(p, float), np.asarray(q, float), np.asarray(y)
        try:
            if not whole:
                for v in x:
                    check_datum(v, self.kernel)
            xs = np.fromiter(x, self._cols["x"].dtype, m)
            if whole:
                check_datum(xs.min(initial=0.0), self.kernel)
                check_datum(xs.max(initial=0.0), self.kernel)
            if not np.isin(ys, (0, 1)).all():
                raise DomainError("observations must be binary")
            gamma, loss0, loss1 = self.game.choices(p, q)
        except (DomainError, OverflowError):  # fromiter: an int past floats
            probe = Forecaster(self.game, self.kernel)
            for k, (v, pk, qk, yk) in enumerate(zip(x, p.tolist(),
                                                    q.tolist(), y)):
                try:
                    probe.update(v, Forecast(pk, qk), yk)
                except DomainError as exc:
                    exc.row = k
                    raise
            raise
        n, e, resid = self._n, loss1 - loss0, ys - p
        while n + m > len(self._cols["p"]):
            self._double()
        new = (xs, p, q, ys, e, resid, gamma, np.where(ys, loss1, loss0),
               s_residual, branch)
        for name, col in zip(_COLUMNS, new):
            self._cols[name][n:n + m] = col
        self._n = n + m
        self.agg_a = float(running_totals(e * resid, self.agg_a)[-1])

    # -- certificates -----------------------------------------------------

    def _variance(self) -> float:
        """sum_i p_i (1 - p_i) (e_i^2 + K(x_i, x_i)), both certificates' rhs."""
        ps, es = self._cols["p"][:self._n], self._cols["e"][:self._n]
        diag = self.kernel.diags(self._cols["x"][:self._n])
        return float(np.sum(ps * (1.0 - ps) * (es * es + diag)))

    def k29_certificate(self) -> tuple[float, float]:
        """Large-number certificate under the merged kernel
        K29((x, e), (x', e')) = e e' + K(x, x'): lhs, the squared norm of
        the residual-weighted feature sum, and rhs, the accumulated variance
        term; lhs <= rhs + 2*sum|s_residual|.  lhs is the exact sum of the
        Kernel.quad_parts of both parts at the exact residuals y - p, rounded
        once: the exposure part, (sum e r)^2, is the linear form on e, and a
        Gaussian or custom kernel part is sum_i r_i f(x_i) for the residual
        expansion f = sum_j r_j K(x_j, .), a point sum like a comparator's
        (README: why not a running sum in update)."""
        n, cols = self._n, self._cols
        xs, resid, es = cols["x"][:n], cols["residual"][:n], cols["e"][:n]
        # resid is y - p rounded; resid + r_lo is y - p exactly
        _, r_lo = two_sum(cols["y"][:n].astype(float), -cols["p"][:n])
        lhs = rounded_sum(_EXPOSURES.quad_parts(es, resid, r_lo)
                          + self.kernel.quad_parts(xs, resid, r_lo))
        return lhs, self._variance()

    def large_numbers_certificate(self) -> dict:
        """k29_certificate's verdict, with slack 2*sum|s_residual|, and its
        margin rhs + slack - lhs: the exact sum of these three floats,
        rounded once, so `pass`, its sign, is lhs <= rhs + slack in exact
        arithmetic for every kernel (NaN, from inf - inf, fails)."""
        lhs, rhs = self.k29_certificate()
        slack = 2.0 * self.residual_total
        margin = rounded_sum((rhs, slack, -lhs))
        return {"lhs": lhs, "rhs": rhs, "slack": slack, "margin": margin,
                "pass": margin >= 0.0}

    def resolution_certificate(self, f: KernelExpansion,
                               fx=None) -> tuple[float, float]:
        """Resolution certificate for f; fx, if given, lists f(x_i)."""
        if f.kernel != self.kernel:
            raise DomainError("expansion uses a different kernel")
        fx = self.at_x(f) if fx is None else fx
        lhs = abs(ordered_dot(self._cols["residual"][:self._n], fx))
        return lhs, f.norm() * math.sqrt(self._variance())
