"""Binary-outcome loss games and their canonical choice functions.

A game is summarized by the southwest boundary of its superdecision set.
Forecasts are points (p, q) of the lexicographic square; the canonical
choice function maps them to expected-loss-minimizing decisions, with q
selecting a point within the optimal face when it is not a singleton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from defcast.kernels import from_doc, json_float

# a comparator's log-loss decision, from an unbounded exposure, is clamped;
# a forecast p is not: at floats, -log(p) <= 744.5 and -log1p(-p) <= 36.8
LOG_CLAMP = 1e-12

# p-grid size for the numeric sup defining the game/kernel constant.
_CLAMBDA_GRID = 4096

# relative tolerance on expected loss for a polyline vertex to count as
# lying on the optimal face
_FACE_TOL = 1e-12


class DomainError(ValueError):
    """Input outside the decision set or the choice-function domain."""


class GameKind(Enum):
    SQUARE = "square"
    LOG = "log"
    CUSTOM = "custom"


class Decision(NamedTuple):
    """A decision together with its loss pair (loss on y=0, loss on y=1)."""

    gamma: float
    loss0: float
    loss1: float

    @property
    def exposure(self) -> float:
        return self.loss1 - self.loss0


class Forecast(NamedTuple):
    """A point of the lexicographic square: probability p plus tie-breaker q."""

    p: float
    q: float


@dataclass(frozen=True)
class Game:
    """A binary-outcome game: loss function, decision set, choice domain.

    For CUSTOM games the southwest boundary is a finite polyline of loss
    pairs, strictly increasing in loss0 and strictly decreasing in loss1,
    with monotone supporting-line slopes (convexity).  Decisions of a
    custom game are parametrized by t in [0, m-1]: vertex i at t = i,
    linear interpolation of the loss pair in between.  Absolute loss is
    the polyline [(0, 1), (1, 0)].
    """

    kind: GameKind
    boundary: tuple[tuple[float, float], ...] | None = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def square() -> "Game":
        return Game(GameKind.SQUARE)

    @staticmethod
    def absolute() -> "Game":
        return Game.custom(((0.0, 1.0), (1.0, 0.0)))

    @staticmethod
    def log() -> "Game":
        return Game(GameKind.LOG)

    @staticmethod
    def custom(boundary) -> "Game":
        pts = tuple(tuple(json_float("boundary", v) for v in pt)
                    for pt in boundary)
        if {len(pt) for pt in pts} != {2}:
            raise DomainError("custom boundary needs (loss0, loss1) pairs")
        if not all(math.isfinite((b - a) * (b - a)) for a, b in pts):
            raise DomainError("each boundary vertex needs an exposure "
                              "loss1 - loss0 with a finite square")
        for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
            if not (a1 > a0 and b1 < b0):
                raise DomainError(
                    "boundary must be strictly increasing in loss0 and "
                    "strictly decreasing in loss1")
        slopes = [(b1 - b0) / (a1 - a0)
                  for (a0, b0), (a1, b1) in zip(pts, pts[1:])]
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 < s0 - 1e-12:
                raise DomainError("boundary is not convex (slopes decrease)")
        return Game(GameKind.CUSTOM, boundary=pts)

    @staticmethod
    def from_json(doc) -> "Game":
        """Build a game from a JSON document, a parsed object or a name."""
        return from_doc(doc, "game", DomainError, {
            "square": Game.square, "absolute": Game.absolute, "log": Game.log,
            "custom": Game.custom})

    @property
    def stripped(self) -> bool:
        """Whether the choice domain is p in (0, 1), not [0, 1]: log loss."""
        return self.kind is GameKind.LOG

    # -- loss and exposure ------------------------------------------------

    def _check_gamma(self, gamma: float) -> None:
        if self.kind is GameKind.SQUARE:
            if not 0.0 <= gamma <= 1.0:
                raise DomainError(f"gamma={gamma} outside [0,1]")
        elif self.kind is GameKind.LOG:
            if not 0.0 < gamma < 1.0:
                raise DomainError(f"gamma={gamma} outside (0,1)")
        else:
            if not 0.0 <= gamma <= len(self.boundary) - 1:
                raise DomainError(f"boundary parameter {gamma} out of range")

    def _boundary_pair(self, t: float) -> tuple[float, float]:
        pts = self.boundary
        i = min(int(math.floor(t)), len(pts) - 2) if len(pts) > 1 else 0
        if len(pts) == 1:
            return pts[0]
        frac = t - i
        a0, b0 = pts[i]
        a1, b1 = pts[i + 1]
        return a0 + frac * (a1 - a0), b0 + frac * (b1 - b0)

    def loss(self, y: int, gamma: float) -> float:
        """Loss of decision gamma on outcome y."""
        if y not in (0, 1):
            raise DomainError(f"observation must be binary, got {y}")
        self._check_gamma(gamma)
        if self.kind is GameKind.SQUARE:
            return (y - gamma) ** 2
        if self.kind is GameKind.LOG:
            return -math.log(gamma) if y else -math.log1p(-gamma)
        a, b = self._boundary_pair(gamma)
        return b if y else a

    # -- choice function --------------------------------------------------

    def check_forecast(self, f: Forecast) -> None:
        p, q = f.p, f.q
        if not (0.0 <= q <= 1.0):
            raise DomainError(f"q={q} outside [0,1]")
        if not (0.0 < p < 1.0 if self.stripped else 0.0 <= p <= 1.0):
            raise DomainError(
                f"p={p} outside {'(0, 1)' if self.stripped else '[0, 1]'}")

    def _custom_face(self, p: float) -> tuple[int, int]:
        """Indices of the first and last boundary vertices supporting p."""
        pts = self.boundary
        if p <= 0.0:
            return 0, 0
        if p >= 1.0:
            return len(pts) - 1, len(pts) - 1
        scores = [(1.0 - p) * a + p * b for a, b in pts]
        best = min(scores)
        tol = _FACE_TOL * (1.0 + abs(best))
        idx = [i for i, s in enumerate(scores) if s <= best + tol]
        return idx[0], idx[-1]

    def canonical_choice(self, f: Forecast) -> Decision:
        """Map a forecast to an expected-loss-minimizing decision.

        The loss pair of the result is (1-q) A(p) + q B(p), where [A, B]
        is the optimal face at p and A is northwest of B.
        """
        self.check_forecast(f)
        p, q = f.p, f.q
        # proper scoring rules: the optimal decision is p itself, and its
        # losses are Game.loss's, whose gamma check check_forecast made
        if self.kind is GameKind.SQUARE:
            return Decision(p, (0 - p) ** 2, (1 - p) ** 2)
        if self.kind is GameKind.LOG:
            return Decision(p, -math.log1p(-p), -math.log(p))
        return self._face_choice(self._custom_face(p), q)

    def _face_choice(self, face: tuple[int, int], q: float) -> Decision:
        """A polyline's canonical choice at tie-breaker q on the face whose
        first and last vertices are `face`."""
        i, j = face
        t = i + q * (j - i)
        a, b = self._boundary_pair(t)
        return Decision(t, a, b)

    def _face_exposures(self, face: tuple[int, int]) -> tuple[float, float]:
        """A polyline's exposure interval on the face (i, j)."""
        (a0, b0), (a1, b1) = self.boundary[face[0]], self.boundary[face[1]]
        return b0 - a0, b1 - a1

    def choices(self, p, q) -> tuple:
        """canonical_choice at each (p, q) of two columns, as the columns
        (gamma, loss0, loss1) with its bits.  Each domain is an interval, so
        the least and the greatest p and q are checked.  Square and log loss
        call the scalar loss's pow, log and log1p at each p (numpy's square
        and log round other ways); a polyline runs _custom_face and
        _boundary_pair elementwise, each product and sum rounded as in
        Python."""
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        for pick in (np.min, np.max) if p.size else ():
            self.check_forecast(Forecast(float(pick(p)), float(pick(q))))
        if self.kind is GameKind.SQUARE:  # libm's pow, as the scalar ** 2
            return p, *(np.array([v ** 2 for v in (y - p).tolist()])
                        for y in (0, 1))
        if self.kind is GameKind.LOG:  # math.log and math.log1p, as loss
            return p, -np.array(list(map(math.log1p, (-p).tolist()))), \
                -np.array(list(map(math.log, p.tolist())))
        a, b = np.array(self.boundary).T
        m = len(a) - 1
        scores = np.outer(1.0 - p, a) + np.outer(p, b)
        best = scores.min(axis=1, keepdims=True)
        face = scores <= best + _FACE_TOL * (1.0 + np.abs(best))
        ends = np.arange(m + 1)
        face[p <= 0.0], face[p >= 1.0] = ends == 0, ends == m
        i, j = face.argmax(axis=1), m - face[:, ::-1].argmax(axis=1)
        t = i + q * (j - i)
        if m == 0:  # a single vertex
            return t, np.full(t.shape, a[0]), np.full(t.shape, b[0])
        k = np.minimum(np.floor(t).astype(np.intp), m - 1)
        return t, *(v[k] + (t - k) * (v[k + 1] - v[k]) for v in (a, b))

    def exposure_interval(self, p: float) -> tuple[float, float]:
        """Exposure endpoints (at A(p), at B(p)) of the optimal face at p."""
        if not 0.0 < p < 1.0:  # (0, 1) lies inside every choice domain
            self.check_forecast(Forecast(p, 0.0))
        if self.kind is GameKind.SQUARE:
            e = 1.0 - 2.0 * p
            return e, e
        if self.kind is GameKind.LOG:
            # artifacts have np.log's bits; math.log's differ on 0.2% of p
            e = float(np.log((1.0 - p) / p))
            return e, e
        return self._face_exposures(self._custom_face(p))

    def exposure_interval_arrays(self, ps):
        """exposure_interval at each p of an array, or at a scalar p.  The
        benchmark's tracer counts grid fills and stage-2 steps at this name."""
        if not isinstance(ps, np.ndarray):
            return self.exposure_interval(ps)
        hi, lo = zip(*map(self.exposure_interval, ps.tolist()))
        return np.array(hi), np.array(lo)

    def special_ps(self) -> list[float]:
        """Forecast probabilities whose optimal face is not a singleton."""
        if self.kind is GameKind.CUSTOM and len(self.boundary) > 1:
            out = []
            for (a0, b0), (a1, b1) in zip(self.boundary, self.boundary[1:]):
                s = (b1 - b0) / (a1 - a0)
                p = 1.0 / (1.0 - s)
                if 0.0 < p < 1.0:
                    out.append(p)
            return sorted(set(out))
        return []

    # -- inverse exposure -------------------------------------------------

    def decision_from_exposure(self, e: float) -> float:
        """Decision whose exposure is e (inverse of the exposure map).

        An exposure within 1e-12 of its range's ends is clamped into it.
        Square loss inverts like the polyline with exposures 1 and -1.
        """
        if self.kind is GameKind.LOG:
            if e >= 0:
                g = math.exp(-e) / (1.0 + math.exp(-e))
            else:
                g = 1.0 / (1.0 + math.exp(e))
            return min(max(g, LOG_CLAMP), 1.0 - LOG_CLAMP)
        exps = [1.0, -1.0] if self.kind is GameKind.SQUARE else [
            b - a for a, b in self.boundary]  # strictly decreasing
        if not exps[-1] - 1e-12 <= e <= exps[0] + 1e-12:
            raise DomainError(
                f"exposure {e} outside [{exps[-1]}, {exps[0]}]")
        e = min(max(e, exps[-1]), exps[0])
        for i in range(len(exps) - 1):
            if exps[i + 1] <= e <= exps[i]:
                span = exps[i] - exps[i + 1]
                return i + (0.0 if span == 0.0 else (exps[i] - e) / span)
        return 0.0  # a single-point boundary

    # -- the game/kernel constant ----------------------------------------

    def clambda(self, c_f: float) -> float:
        """Constant pairing the game with a kernel of sup-norm c_f.

        Closed forms for square loss and for polylines, absolute loss
        included; a numeric sup over the forecast probability for log
        loss.  Returns inf when the sup diverges.
        """
        if c_f < 0 or not math.isfinite(c_f):
            raise DomainError("c_f must be finite and nonnegative")
        if self.kind is GameKind.SQUARE:
            return c_f / 2.0 if c_f >= 1.0 else (1.0 + c_f * c_f) / 4.0
        if self.kind is GameKind.CUSTOM:
            # exposure is constant between special ps, so the sup of
            # p(1-p)(e^2 + c_f^2) sits at 1/2 or at a special p
            return math.sqrt(max(self._clambda_h(p, c_f)
                                 for p in (0.5, *self.special_ps())))
        return self.clambda_numeric(c_f)

    def _clambda_h(self, p: float, c_f: float) -> float:
        """p(1-p)(e^2 + c_f^2), e the larger-magnitude exposure of the face."""
        e_hi, e_lo = self.exposure_interval(min(max(p, 1e-300), 1 - 1e-16))
        return p * (1.0 - p) * (max(e_hi * e_hi, e_lo * e_lo) + c_f * c_f)

    def clambda_numeric(self, c_f: float) -> float:
        """Generic numeric path for the constant, via exposure_interval."""
        if c_f < 0 or not math.isfinite(c_f):
            raise DomainError("c_f must be finite and nonnegative")
        # log-spaced grid concentrated near both endpoints, where the
        # supremand varies fastest for diverging exposures
        half = np.geomspace(1e-12, 0.5, _CLAMBDA_GRID // 2)
        ps = np.concatenate([half, 1.0 - half[::-1][1:]])
        vals = [self._clambda_h(p, c_f) for p in ps.tolist()]
        best = int(np.argmax(vals))
        if best in (0, len(ps) - 1):
            # still growing at the grid's extreme points: divergent sup
            return math.inf
        # golden-section search between the best point's grid neighbours
        lo, hi = float(ps[best - 1]), float(ps[best + 1])
        g = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-12:
            u, w = hi - g * (hi - lo), lo + g * (hi - lo)
            if self._clambda_h(u, c_f) > self._clambda_h(w, c_f):
                hi = w
            else:
                lo = u
        return math.sqrt(max(vals[best],
                             self._clambda_h(0.5 * (lo + hi), c_f)))
