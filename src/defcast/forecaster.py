"""Online forecaster: roots the betting function on the lexicographic square.

Each round the betting function S reduces, at fixed p, to a quadratic in
the exposure variable e over the optimal face's exposure interval:

    S(p, e) = (1 - 2p)/2 * e^2 + A*e + B + C*p

with A the running sum of exposure-weighted residuals and B, C determined
by the kernel column at the new datum.  Stage 1 scans a p-grid for the
first sign change of S in lexicographic order; stage 2 shrinks that
bracket to adjacent floats; stage 3 solves the quadratic in e analytically
and maps e back to the tie-breaker q.

Stage 1 signs S at every grid point and takes the value range over the
face only where the face is wider than a point (special ps).  Stage 2 is
one method for every game: S is continuous in p inside the bracket, so a
safeguarded Illinois regula falsi steps to the secant point, or bisects
where an end has no value (a wide face, within the face tolerance of a
special p).  Its evaluations run in plain Python floats with the scan's
arithmetic: the same expressions in the same order, and np.log.

The history is one columnar store: a numpy column per field (x, p, q, y,
exposure e, residual y - p, gamma, loss, s_residual, branch), grown by
doubling, of which rows [:round] are live.  x is float for the built-in
kernels and object for custom kernels, whose points are opaque.  Kernel
sums and certificates read contiguous float64 slices of the columns, with
the same expressions as over arrays built from per-round lists, so the
bits are unchanged: the residual column holds float(y) - p, which is what
np.asarray(ys, float) - np.asarray(ps) computes, and the stored loss is
the canonical decision's loss1 or loss0, which equals Game.loss(y, gamma)
bit for bit (square and log build the pair with Game.loss, polylines
with the same arithmetic).  Values leave the store through
tolist(), never as numpy scalars, whose repr under numpy 2 is not the
shortest round-trip decimal.

The grid, its exposure interval and its quadratic coefficient do not
depend on the history, so the scan takes them from a cache keyed by the
stripped-domain width delta, filled on first use; each round computes only
the constant term B + C*p, the values and their signs.  _ranges_on is the
uncached reference whose signs the scan and _s_at must both match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from defcast.games import Decision, DomainError, Forecast, Game
from defcast.kernels import Kernel, KernelExpansion, KernelKind

# points of the stage-1 p-grid, before the special ps are merged in
_P_GRID = 1024

# stripped-domain bracketing starts here and halves until a sign change
# is bracketed; exposure diverges at the stripped edges, so this terminates
_DELTA_START = 1e-6
_DELTA_MIN = 1e-15

# rows the history columns hold before their first doubling
_INITIAL_CAPACITY = 64
# dtype of each history column; None marks x, whose dtype the kernel sets
_COLUMNS = {"x": None, "p": float, "q": float, "y": int, "e": float,
            "residual": float, "gamma": float, "loss": float,
            "s_residual": float, "branch": object}


def running_totals(values) -> np.ndarray:
    """Totals after 0, 1, ..., len(values) rounds, added left to right in
    round order as a running sum (sum() compensates since Python 3.12)."""
    return np.concatenate(([0.0], values)).cumsum()


def check_datum(x) -> None:
    """Real data must be finite (of the reals, only floats can fail this);
    custom kernels' points are opaque."""
    if isinstance(x, (float, np.floating)) and not math.isfinite(x):
        raise DomainError(f"datum must be finite, got {x}")


class RootFinderError(RuntimeError):
    """The bracket cascade failed; unreachable for the built-in games."""


class Branch(Enum):
    ROOT = "root"
    ENDPOINT_POSITIVE = "endpoint_positive"
    ENDPOINT_NEGATIVE = "endpoint_negative"


@dataclass(frozen=True)
class RootReport:
    forecast: Forecast
    s_residual: float
    branch: Branch


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
        # delta -> (grid, e_hi, e_lo, a) of the stage-1 scan
        self._scans: dict[float, tuple] = {}

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

    def _kernel_row(self, x) -> np.ndarray:
        xs = self._cols["x"][:self._n]
        if self.kernel.kind is KernelKind.CUSTOM:
            return np.array([float(self.kernel(x, xi)) for xi in xs])
        return np.asarray(self.kernel(x, xs))

    def coefficients(self, x) -> tuple[float, float, float]:
        """(A, B, C) of the quadratic-in-e form of S at datum x."""
        kxx = float(self.kernel.diag(x))
        resid = self._cols["residual"][:self._n]
        b = float(self._kernel_row(x) @ resid) + 0.5 * kxx
        return self.agg_a, b, -kxx

    def s_value(self, p: float, q: float, x) -> float:
        """Betting function at (p, q, x), by direct summation over history."""
        d = self.game.canonical_choice(Forecast(p, q))
        e = d.exposure
        kxx = float(self.kernel.diag(x))
        total = 0.5 * (e * e + kxx) * (1.0 - 2.0 * p)
        resid = self._cols["residual"][:self._n]
        terms = (e * self._cols["e"][:self._n] + self._kernel_row(x)) * resid
        return total + float(terms.sum())

    # -- root finding -----------------------------------------------------

    def _p_grid(self, delta: float) -> np.ndarray:
        if self.game.stripped:
            half = np.geomspace(delta, 0.5, _P_GRID // 2)
            grid = np.concatenate([half, 1.0 - half[::-1][1:]])
        else:
            grid = np.linspace(0.0, 1.0, _P_GRID)
        specials = [p for p in self.game.special_ps()
                    if grid[0] <= p <= grid[-1]]
        if specials:
            grid = np.unique(np.concatenate([grid, np.array(specials)]))
        return grid

    def _scan_terms(self, delta: float) -> tuple:
        """(grid, e_hi, a*e_hi^2, wide) of the scan, cached per delta.

        wide lists (index, p, a, e_hi, e_lo) as floats for each face wider
        than a point (e_hi != e_lo, or NaN): the special ps.
        """
        terms = self._scans.get(delta)
        if terms is None:
            grid = self._p_grid(delta)
            e_hi, e_lo = self.game.exposure_interval_arrays(grid)
            a = 0.5 * (1.0 - 2.0 * grid)
            quad = a * e_hi * e_hi
            for arr in (grid, e_hi, quad):
                arr.flags.writeable = False
            j = np.nonzero(e_hi != e_lo)[0]
            wide = tuple(zip(j.tolist(), *(arr[j].tolist()
                                           for arr in (grid, a, e_hi, e_lo))))
            terms = self._scans[delta] = (grid, e_hi, quad, wide)
        return terms

    def _scan(self, delta: float, A: float, B: float, C: float):
        """(grid, signs, values) of S on the grid at delta: the signs of
        _sgn(*_ranges_on(grid, A, B, C)), and values NaN on wide faces."""
        grid, e_hi, quad, wide = self._scan_terms(delta)
        v = quad + A * e_hi + (B + C * grid)
        sgn = self._sgn(v, v)
        for j, p, a, hi, lo in wide:
            sgn[j] = self._face_sign(a, A, B + C * p, hi, lo)
            v[j] = np.nan
        return grid, sgn, v

    def _ranges_on(self, ps: np.ndarray, A: float, B: float, C: float):
        """Min and max of S over the face at each p (vectorized)."""
        e_hi, e_lo = self.game.exposure_interval_arrays(ps)
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

    @staticmethod
    def _sgn(lo, hi):
        """1 where lo > 0, -1 where hi < 0, else 0 (NaN included); lo <= hi."""
        return (lo > 0.0).view(np.int8) - (hi < 0.0).view(np.int8)

    @staticmethod
    def _face_sign(a, A, c, e_hi, e_lo) -> int:
        """Sign of a*e^2 + A*e + c over [e_lo, e_hi] by _ranges_on's rule."""
        vals = [a * e_hi * e_hi + A * e_hi + c, a * e_lo * e_lo + A * e_lo + c]
        if a != 0.0:
            ev = -A / (2.0 * a)
            if e_hi > e_lo and math.isfinite(ev) and e_lo < ev < e_hi:
                vals.append(a * ev * ev + A * ev + c)
        if any(map(math.isnan, vals)):
            return 0  # np.minimum/np.maximum propagate NaN: neither side
        return (min(vals) > 0.0) - (max(vals) < 0.0)

    def _s_at(self, p: float, A: float, B: float, C: float):
        """(sign, value) of S at a scalar p, in the scan's arithmetic; on a
        wide face, the sign of its value range and the value NaN."""
        e_hi, e_lo = self.game.exposure_interval_arrays(p)
        a = 0.5 * (1.0 - 2.0 * p)
        c = B + C * p
        if e_hi != e_lo:
            return self._face_sign(a, A, c, e_hi, e_lo), math.nan
        v = a * e_hi * e_hi + A * e_hi + c
        return (v > 0.0) - (v < 0.0), v  # NaN: sign 0

    def next_forecast(self, x) -> RootReport:
        """Forecast for datum x: a root of S, or the endpoint rule."""
        A, B, C = self.coefficients(x)
        delta = _DELTA_START
        while True:
            grid, sgn, v = self._scan(delta, A, B, C)
            s0 = int(sgn[0])
            if s0 == 0:
                return self._solve_at(float(grid[0]), A, B, C)
            flips = np.nonzero(sgn != s0)[0]
            if flips.size:
                i = int(flips[0])
                if sgn[i] == 0:
                    return self._solve_at(float(grid[i]), A, B, C)
                return self._refine(float(grid[i - 1]), float(v[i - 1]),
                                    float(grid[i]), float(v[i]), s0, A, B, C)
            # no sign change visible on this grid
            if not self.game.stripped:
                return self._endpoint(s0)
            delta *= 0.5
            if delta < _DELTA_MIN:
                raise RootFinderError(
                    f"no bracket found down to delta={_DELTA_MIN} "
                    f"(A={A}, B={B}, C={C}, sign={s0})")

    def _endpoint(self, s: int) -> RootReport:
        p = (1.0 + s) / 2.0
        branch = Branch.ENDPOINT_POSITIVE if s > 0 else Branch.ENDPOINT_NEGATIVE
        return RootReport(Forecast(p, 0.5), 0.0, branch)

    def _refine(self, pa, fa, pb, fb, s0: int,
                A: float, B: float, C: float) -> RootReport:
        """Shrink the bracket [pa, pb] (signs s0, -s0) to adjacent floats.

        Illinois regula falsi on the values fa, fb: the secant point, or
        the midpoint when a value is NaN; the retained end's value halves
        when the same end is replaced twice in a row.  A secant point that
        rounds onto an end moves to the next float inside, so a root within
        an ulp of one end is closed in a step or two, not by halving.  No
        special p sits strictly inside, so S is continuous on (pa, pb).
        """
        side = 0  # -1 after pa was replaced, 1 after pb was
        for _ in range(200):
            pm = 0.5 * (pa + pb)
            if pm <= pa or pm >= pb:
                break
            ps = pa - fa * (pb - pa) / (fb - fa)
            if ps == ps:  # else NaN: an end has no value
                pm = min(max(ps, math.nextafter(pa, pb)),
                         math.nextafter(pb, pa))
            s, f = self._s_at(pm, A, B, C)
            if s == 0:
                return self._solve_at(pm, A, B, C)
            if s == s0:
                if side < 0:
                    fb *= 0.5
                pa, fa, side = pm, f, -1
            else:
                if side > 0:
                    fa *= 0.5
                pb, fb, side = pm, f, 1
        return min((self._solve_at(p, A, B, C) for p in (pa, pb)),
                   key=lambda rep: rep.s_residual)

    def _solve_at(self, p: float, A: float, B: float, C: float) -> RootReport:
        """Solve the quadratic in e at fixed p; map e to the tie-breaker q."""
        e_hi, e_lo = self.game.exposure_interval(p)
        a = 0.5 * (1.0 - 2.0 * p)
        c = B + C * p

        def phi(e):
            return a * e * e + A * e + c

        if e_hi == e_lo:
            return RootReport(Forecast(p, 0.5), abs(phi(e_hi)), Branch.ROOT)

        tiny = 1e-14 * (1.0 + abs(A) + abs(c))
        if abs(a) * max(abs(e_hi), abs(e_lo)) ** 2 < tiny and abs(A) * max(
                abs(e_hi), abs(e_lo)) < tiny:
            # S is flat in q along this face; tie-break at q = 1/2
            e_mid = 0.5 * (e_hi + e_lo)
            return RootReport(Forecast(p, 0.5), abs(phi(e_mid)), Branch.ROOT)

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
        q = min(max(q, 0.0), 1.0)
        return RootReport(Forecast(p, q), abs(phi(e)), Branch.ROOT)

    # -- protocol hooks ---------------------------------------------------

    def update(self, x, forecast: Forecast, y: int,
               s_residual: float = 0.0, branch: Branch = Branch.ROOT,
               decision: Decision | None = None) -> None:
        """Append a completed round to the history."""
        if y not in (0, 1):
            raise DomainError(f"observation must be binary, got {y}")
        check_datum(x)
        # decision, when the caller has it, is the canonical choice at forecast
        d = decision or self.game.canonical_choice(forecast)
        y = int(y)
        e = d.exposure
        resid = float(y) - forecast.p
        n = self._n
        if n == len(self._cols["p"]):  # full: double every column
            self._cols = {name: np.concatenate([col, np.empty_like(col)])
                          for name, col in self._cols.items()}
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

    # -- certificates -----------------------------------------------------

    def _variance(self) -> float:
        """sum_i p_i (1 - p_i) (e_i^2 + K(x_i, x_i)), both certificates' rhs."""
        ps, es = self._cols["p"][:self._n], self._cols["e"][:self._n]
        diag = self.kernel.diags(self._cols["x"][:self._n])
        return float(np.sum(ps * (1.0 - ps) * (es * es + diag)))

    def k29_certificate(self) -> tuple[float, float]:
        """Large-number certificate under the merged kernel.

        lhs is the squared norm of the residual-weighted feature sum; rhs
        the accumulated variance term.  lhs <= rhs + 2*sum|s_residual|.
        Its kernel part is one Kernel.quad_form pass: O(N) memory, the
        Gram's bits (README: why not a running sum in update).
        """
        resid = self._cols["residual"][:self._n]
        es = self._cols["e"][:self._n]
        lhs = float(es @ resid) ** 2 + self.kernel.quad_form(
            self._cols["x"][:self._n], resid)
        return lhs, self._variance()

    def large_numbers_certificate(self) -> dict:
        """k29_certificate's verdict, with slack 2*sum|s_residual|."""
        lhs, rhs = self.k29_certificate()
        slack = 2.0 * self.residual_total
        return {"lhs": lhs, "rhs": rhs, "slack": slack,
                "pass": lhs <= rhs + slack}

    def resolution_certificate(self, f: KernelExpansion,
                               fx=None) -> tuple[float, float]:
        """Resolution certificate for f; fx, if given, lists f(x_i)."""
        if f.kernel != self.kernel:
            raise DomainError("expansion uses a different kernel")
        if fx is None:
            fx = [float(f(xi)) for xi in self._cols["x"][:self._n].tolist()]
        lhs = abs(float(self._cols["residual"][:self._n] @ np.array(fx)))
        return lhs, f.norm() * math.sqrt(self._variance())
