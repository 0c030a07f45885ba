"""The staged root finder and its certificates."""

import decimal
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import defcast
from defcast.cli import main
from defcast.experiments import ExperimentConfig, certify_log, run_engine
from defcast.forecaster import (_DELTA_START, _INITIAL_CAPACITY, _NORMAL_MIN,
                                _P_GRID, Branch, Forecaster, RootReport)
from defcast.games import Decision, DomainError, Forecast, Game, GameKind
from defcast.kernels import Kernel, KernelExpansion, ordered_dot
from defcast.protocol import Engine
from exact_margin import exact_certificate
import quad_reference
import reference
from oracle import oracle_forecast
from test_games import convex_polylines

SOB = Kernel.sobolev()

# root of 2e^3 + e + 1 = 0 mapped by p = (1-e)/2; frozen from the
# dense-grid bisection oracle
P2_SQUARE_TRACE = 0.7948772561507292


def run_random(game, kernel, n_rounds, seed):
    """Drive a forecaster on random data, returning it plus the reports."""
    rng = np.random.default_rng(seed)
    fc = Forecaster(game, kernel)
    reports = []
    for _ in range(n_rounds):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        y = int(rng.integers(0, 2))
        fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                  branch=rep.branch)
        reports.append((x, rep))
    return fc, reports


# -- betting function values ----------------------------------------------

def test_s_value_empty_history():
    fc = Forecaster(Game.square(), SOB)
    assert fc.s_value(0.5, 0.3, 0.0) == 0.0
    assert fc.s_value(0.0, 0.0, 0.0) == 0.75


def test_coefficients_empty_history():
    fc = Forecaster(Game.square(), SOB)
    a, b, c = fc.coefficients(0.0)
    assert a == 0.0
    assert b == 0.25  # half the kernel diagonal
    assert c == -0.5


def test_coefficient_form_matches_direct_summation():
    for game in (Game.square(), Game.absolute(), Game.log()):
        fc, _ = run_random(game, SOB, 30, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = float(rng.uniform(-1, 1))
            p = float(rng.uniform(0.05, 0.95))
            q = float(rng.uniform(0, 1))
            A, B, C = fc.coefficients(x)
            e = game.canonical_choice(Forecast(p, q)).exposure
            via_coeffs = 0.5 * (1 - 2 * p) * e * e + A * e + B + C * p
            assert fc.s_value(p, q, x) == pytest.approx(via_coeffs, abs=1e-9)


# -- worked traces --------------------------------------------------------

def test_square_trace_round_one():
    fc = Forecaster(Game.square(), SOB)
    rep = fc.next_forecast(0.0)
    assert rep.forecast.p == 0.5
    assert rep.branch is Branch.ROOT
    assert rep.s_residual <= 1e-9


def test_square_trace_round_two():
    fc = Forecaster(Game.square(), SOB)
    rep1 = fc.next_forecast(0.0)
    fc.update(0.0, rep1.forecast, 1, s_residual=rep1.s_residual)
    rep2 = fc.next_forecast(0.0)
    p2 = rep2.forecast.p
    assert p2 == pytest.approx(P2_SQUARE_TRACE, abs=1e-9)
    e = 1.0 - 2.0 * p2
    assert 2 * e ** 3 + e + 1 == pytest.approx(0.0, abs=1e-8)


def test_absolute_trace_round_one():
    fc = Forecaster(Game.absolute(), SOB)
    rep = fc.next_forecast(0.0)
    assert (rep.forecast.p, rep.forecast.q) == (0.5, 0.5)
    assert rep.s_residual == 0.0


def test_log_trace_round_one():
    fc = Forecaster(Game.log(), SOB)
    rep = fc.next_forecast(0.0)
    assert rep.forecast.p == pytest.approx(0.5, abs=1e-9)


# -- stage 2: the scalar evaluation matches the array scan ----------------

POLY = Game.custom([(0.0, 1.0), (0.2, 0.55), (0.55, 0.2), (1.0, 0.0)])
PARITY_GAMES = [Game.square(), Game.absolute(), Game.log(), POLY]
# absolute loss is a polyline too, so its kind cannot name it
PARITY_IDS = ["square", "absolute", "log", "custom"]


def array_sign(fc, p, A, B, C):
    with np.errstate(all="ignore"):
        return int(reference.sgn(*reference.ranges_on(
            fc.game, np.array([p]), A, B, C))[0])


@given(st.floats(0.0, 1.0), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
       st.floats(-1e6, 1e6))
def test_scalar_sign_equals_array_sign(p, A, B, C):
    for game in PARITY_GAMES:
        fc = Forecaster(game, SOB)
        for q in (p, 0.5, *game.special_ps()):
            if game.stripped and q in (0.0, 1.0):
                continue
            s, v = fc._s_at(q, A, B, C)
            assert s == array_sign(fc, q, A, B, C)
            e_hi, e_lo = game.exposure_interval(q)
            if e_hi != e_lo:  # a wide face has a sign but no value
                assert math.isnan(v)
            elif s:
                assert (v > 0.0) - (v < 0.0) == s
        # the walk signs each special p's face as the path holds it
        for q, face in (fc._path or ())[1:-1]:
            s, v = fc._s_at(q, A, B, C, face)
            assert s == fc._s_at(q, A, B, C)[0]
            assert math.isnan(v) == (face[0] != face[1])


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_scalar_sign_sees_the_interior_vertex(frac):
    # on a non-singleton face the quadratic's vertex can cross zero while
    # both endpoint values keep one sign
    fc = Forecaster(POLY, SOB)
    for p in POLY.special_ps():
        e_hi, e_lo = POLY.exposure_interval(p)
        a = 0.5 * (1.0 - 2.0 * p)
        ev = e_lo + frac * (e_hi - e_lo)
        d = min(e_hi - ev, ev - e_lo)
        A, B = -2.0 * a * ev, a * ev * ev - 0.5 * a * d * d
        s, v = fc._s_at(p, A, B, 0.0)
        assert s == array_sign(fc, p, A, B, 0.0) == 0 and math.isnan(v)


def test_scalar_sign_is_zero_on_nan():
    fc = Forecaster(Game.square(), SOB)
    assert fc._s_at(0.3, math.nan, 0.0, 0.0)[0] == 0
    assert array_sign(fc, 0.3, math.nan, 0.0, 0.0) == 0
    # one NaN endpoint value (inf * 0 at exposure 0), the other +inf
    game = Game.custom([(0.0, 3.0), (1.0, 1.0), (2.0, 0.0)])
    fc = Forecaster(game, SOB)
    p = game.special_ps()[0]
    assert game.exposure_interval(p) == (3.0, 0.0)
    assert fc._s_at(p, math.inf, 0.0, 0.0)[0] == 0
    assert array_sign(fc, p, math.inf, 0.0, 0.0) == 0


class ArraySignForecaster(Forecaster):
    """Refines with the one-element array sign the scan uses."""

    def _s_at(self, p, A, B, C, exposures=None):
        return (array_sign(self, p, A, B, C),
                super()._s_at(p, A, B, C, exposures)[1])


@pytest.mark.parametrize("game", PARITY_GAMES, ids=PARITY_IDS)
def test_scalar_bisection_reproduces_array_forecasts(game):
    fast = Forecaster(game, SOB)
    slow = ArraySignForecaster(game, SOB)
    rng = np.random.default_rng(23)
    for _ in range(40):
        x = float(rng.uniform(-1, 1))
        rep = fast.next_forecast(x)
        assert slow.next_forecast(x) == rep
        y = int(rng.integers(0, 2))
        for fc in (fast, slow):
            fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                      branch=rep.branch)


class BracketRecorder(Forecaster):
    """Records each stage-2 bracket and the p that stage 3 returns for it.

    With coefficients given, every forecast uses those (A, B, C).
    """

    def __init__(self, game, kernel, coefficients=None):
        super().__init__(game, kernel)
        self.fixed = coefficients
        self.brackets = []  # (s0, (A, B, C), returned p) per bracket

    def coefficients(self, x):
        return self.fixed or super().coefficients(x)

    def _refine(self, pa, fa, pb, fb, s0, A, B, C):
        rep = super()._refine(pa, fa, pb, fb, s0, A, B, C)
        self.brackets.append((s0, (A, B, C), rep.forecast.p))
        return rep


def assert_brackets_closed(fc):
    """Stage 2 stopped at an exact zero at the returned p, or p and its
    neighbour are adjacent floats of sign s0 and -s0: the bracket's left
    end and the float above it, or the float below and its right end."""
    assert fc.brackets
    for s0, abc, p in fc.brackets:
        s = fc._s_at(p, *abc)[0]
        if s:
            pa, pb = (p, math.nextafter(p, 1.0)) if s == s0 else \
                (math.nextafter(p, 0.0), p)
            assert fc._s_at(pa, *abc)[0] == s0 == -fc._s_at(pb, *abc)[0]


def near_double_root():
    """(A, B, C) of a square-loss S(e) = (e - e0)^2 (e + 2 e0)/2 - 1e-9.

    S has its minimum -1e-9 at e0, which sits on grid point 358/1023; it
    is positive on the grid points either side and crosses zero 2.4e-5
    before and after e0 in p, where its slope is about 1e-4.
    """
    e0 = 1.0 - 2.0 * 358 / 1023
    return -1.5 * e0 * e0, e0 ** 3 - 1e-9, 0.0


def scalar_evaluations(monkeypatch) -> list:
    """The p of every scalar exposure evaluation from now on: one per
    stage-2 step, as the benchmark's tracer counts them."""
    calls = []
    arrays = Game.exposure_interval_arrays

    def counted(self, ps):
        if not isinstance(ps, np.ndarray):
            calls.append(ps)
        return arrays(self, ps)

    monkeypatch.setattr(Game, "exposure_interval_arrays", counted)
    return calls


def refine_on_grid(fc, k, abc, values=True):
    """Stage 2 on the bracket between grid points k and k + 1 of 1023."""
    pa, pb = k / 1023, (k + 1) / 1023
    (s0, fa), (sb, fb) = fc._s_at(pa, *abc), fc._s_at(pb, *abc)
    assert s0 == -sb != 0
    if not values:
        fa = fb = math.nan
    return fc._refine(pa, fa, pb, fb, s0, *abc)


@pytest.mark.parametrize("k", [357, 358])
def test_refine_closes_a_near_double_root(k, monkeypatch):
    # k = 357: S flattens toward the right end; k = 358: toward the left
    fc = BracketRecorder(Game.square(), SOB)
    calls = scalar_evaluations(monkeypatch)
    rep = refine_on_grid(fc, k, near_double_root())
    assert_brackets_closed(fc)
    assert rep.s_residual < 1e-15
    # 2 end evaluations and 15 or 12 steps here; without the Illinois
    # halving, regula falsi creeps along the flat side to its 200-step cap
    assert len(calls) <= 20
    if k == 357:  # the first sign change, which the scan brackets
        fixed = BracketRecorder(Game.square(), SOB, near_double_root())
        assert fixed.next_forecast(0.0) == rep


def test_refine_closes_with_nan_values():
    # no values at either end (wide faces): midpoint steps until both
    # ends have one
    fc = BracketRecorder(Game.square(), SOB)
    refine_on_grid(fc, 357, near_double_root(), values=False)
    assert_brackets_closed(fc)


@pytest.mark.parametrize("gap", [0.0, 1e-13, 1e-9])
def test_refine_closes_at_a_polyline_special_p(gap):
    # S on the vertex-0 piece below the first special p is
    # (1 - 2p)/2 + A + B, whose root sits gap below p*; at p* the value
    # range over the face is negative.  Within the face tolerance of p*
    # the faces are wide, so stage 2 has no value at its right end.
    p_star = POLY.special_ps()[0]
    r = p_star - gap
    A = 1.0
    fc = BracketRecorder(POLY, SOB, (A, -0.5 * (1.0 - 2.0 * r) - A, 0.0))
    rep = fc.next_forecast(0.0)
    # faces within about 2e-12 of p* are wide, and the first of them
    # whose value range holds zero is a root
    assert abs(rep.forecast.p - p_star) <= gap + 1e-11
    if fc.brackets:
        assert_brackets_closed(fc)
    else:  # the root rounded onto p*: the scan saw a zero sign there
        assert rep.forecast.p == p_star


def test_refine_closes_log_roots_below_the_first_delta():
    played = BracketRecorder(Game.log(), SOB)
    for x, f, y in small_root_history():
        played.update(x, f, y)
    for _ in range(10):
        rep = played.next_forecast(0.0)
        played.update(0.0, rep.forecast, 0, s_residual=rep.s_residual,
                      branch=rep.branch)
    assert any(p < _DELTA_START for p in played.column("p")[-10:])
    assert_brackets_closed(played)


@pytest.mark.parametrize("game, kernel", [
    (Game.square(), SOB), (Game.log(), SOB),
    (POLY, Kernel.gaussian(0.5))], ids=["square", "log", "custom"])
def test_refine_takes_few_steps(game, kernel, monkeypatch):
    # bisection takes about 43 steps from a grid bracket to adjacent floats,
    # and a secant that falls back to the midpoint whenever it rounds onto
    # an end about 9 to 11; this one takes about 5 (1.4 on the polyline)
    calls = scalar_evaluations(monkeypatch)
    fc = BracketRecorder(game, kernel)
    rng = np.random.default_rng(97)
    for _ in range(500):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        y = int(rep.forecast.p <= 0.5) if game is POLY \
            else int(rng.integers(0, 2))
        fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                  branch=rep.branch)
    assert len(fc.brackets) >= 20
    assert len(calls) / len(fc.brackets) <= 8.0


class StepCounter(Forecaster):
    """Counts stage-2 evaluations."""

    steps = 0

    def _s_at(self, p, A, B, C, exposures=None):
        self.steps += 1
        return super()._s_at(p, A, B, C, exposures)


@pytest.mark.parametrize("game", [Game.square(), Game.log()],
                         ids=["square", "log"])
def test_each_stage_2_step_reads_its_exposures_once(game, monkeypatch):
    # the benchmark's tracer counts stage-2 steps at
    # Game.exposure_interval_arrays, one scalar call per evaluation
    calls = scalar_evaluations(monkeypatch)
    fc = StepCounter(game, SOB)
    rng = np.random.default_rng(31)
    for _ in range(60):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        fc.update(x, rep.forecast, int(rng.integers(0, 2)),
                  s_residual=rep.s_residual, branch=rep.branch)
    assert fc.steps > 60 and len(calls) == fc.steps


def closed_ends(steps, s0, pa, pb):
    """The ends of [pa, pb] that stage 2's steps (p, sign) closed on: the
    last p of sign s0 and the last of sign -s0, or the p of an exact zero
    alone."""
    if steps and steps[-1][1] == 0:
        return (steps[-1][0],)
    for p, s in steps:
        pa, pb = (p, pb) if s == s0 else (pa, p)
    return pa, pb


class StepAudit(Forecaster):
    """Records the (p, sign) of each stage-2 step on the open bracket."""

    def __init__(self, game, kernel):
        super().__init__(game, kernel)
        self.steps = None  # (p, sign) of each step on the open bracket
        # (closed on adjacent floats, not at a zero; what stage 3 did)
        self.brackets = []

    def _s_at(self, p, A, B, C, exposures=None):
        s, v = super()._s_at(p, A, B, C, exposures)
        if self.steps is not None:
            self.steps.append((p, s))
        return s, v

    def _refine(self, pa, fa, pb, fb, s0, A, B, C):
        self.steps = []
        rep = super()._refine(pa, fa, pb, fb, s0, A, B, C)
        ends, self.steps = closed_ends(self.steps, s0, pa, pb), None
        self.check(rep, ends, A, B, C)
        return rep


class TwoSolveAudit(StepAudit):
    """Checks each stage-2 report against the two-solve rule: _solve_at at
    both ends of the closed bracket, keeping the smaller s_residual, pa's
    on a tie, or at an exact zero alone."""

    def __init__(self, game, kernel):
        super().__init__(game, kernel)
        self.solved = None  # p of each _solve_at on the open bracket

    def _solve_at(self, p, A, B, C):
        if self.solved is not None:
            self.solved.append(p)
        return super()._solve_at(p, A, B, C)

    def _refine(self, pa, fa, pb, fb, s0, A, B, C):
        self.solved = []
        return super()._refine(pa, fa, pb, fb, s0, A, B, C)

    def check(self, rep, ends, A, B, C):
        solved, self.solved = self.solved, None
        ra, rb = (self._solve_at(p, A, B, C) for p in (ends[0], ends[-1]))
        expected = rb if rb.s_residual < ra.s_residual else ra
        self.brackets.append((len(ends) == 2, solved))
        assert rep == expected
        assert rep.forecast.p.hex() == expected.forecast.p.hex()
        assert rep.s_residual.hex() == expected.s_residual.hex()


class PointFaceAudit(StepAudit):
    """Checks square and log reports, which solve nothing: each stage-2
    report is at the closed bracket's end with the smaller
    reference.point_residual, pa's on a tie, or at an exact zero, and
    every root report's s_residual is point_residual at its p, bit for
    bit.  Counts the calls of _solve_at."""

    solves = 0

    def _solve_at(self, p, A, B, C):
        self.solves += 1
        return super()._solve_at(p, A, B, C)

    def residual(self, p, A, B, C):
        return reference.point_residual(self.game, p, A, B, C)

    def check(self, rep, ends, A, B, C):
        ra, rb = (self.residual(p, A, B, C) for p in (ends[0], ends[-1]))
        p = ends[-1] if rb < ra else ends[0]
        self.brackets.append((len(ends) == 2, p))
        assert rep.forecast == Forecast(p, 0.5)
        assert rep.forecast.p.hex() == p.hex()
        assert repr(rep.s_residual) == repr(self.residual(p, A, B, C))

    def next_forecast(self, x):
        rep = super().next_forecast(x)
        if rep.branch is Branch.ROOT:
            want = self.residual(rep.forecast.p, *self.coefficients(x))
            assert repr(rep.s_residual) == repr(want)
        return rep


@pytest.mark.parametrize("game", [Game.square(), Game.log()],
                         ids=["square", "log"])
def test_stage_3_solves_nothing_and_keeps_the_two_solve_rule_bits(game):
    fc = PointFaceAudit(game, SOB)
    rng = np.random.default_rng(59)
    for _ in range(300):
        # S with a root at r (B cancels S(r) at B = 0), bracketed around r
        r = float(rng.uniform(0.01, 0.99))
        A, C = (float(v) for v in rng.uniform(-3.0, 3.0, 2))
        B = -fc._s_at(r, A, 0.0, C)[1]
        pa, pb = (float(r + s * 10.0 ** rng.uniform(-15, -1)) for s in (-1, 1))
        pa, pb = max(pa, 1e-9), min(pb, 1.0 - 1e-9)
        (sa, fa), (sb, fb) = fc._s_at(pa, A, B, C), fc._s_at(pb, A, B, C)
        if sa == -sb != 0:
            fc._refine(pa, fa, pb, fb, sa, A, B, C)
    # and the brackets of played rounds, from the scan or the falling bracket
    for _ in range(200):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        fc.update(x, rep.forecast, int(rng.integers(0, 2)),
                  s_residual=rep.s_residual, branch=rep.branch)
    assert fc.solves == 0
    assert sum(closed for closed, _ in fc.brackets) >= 200


def adjacent_bracket(fc, k):
    """(pa, fa, pb, fb, B) at pa = 3/4 and the float above it, for square
    loss with A = C = 0 and B = 1/16 + k 2^-56: the computed S is k 2^-56 at
    pa and (k - 6) 2^-56 at pb, so k = 3 ties and k = 4 favours pb."""
    pa, B = 0.75, 0.0625 + k * 2.0 ** -56
    pb = math.nextafter(pa, 1.0)
    (sa, fa), (sb, fb) = fc._s_at(pa, 0.0, B, 0.0), fc._s_at(pb, 0.0, B, 0.0)
    assert sa == 1 and sb == -1
    return pa, fa, pb, fb, B


def test_stage_3_keeps_pa_on_a_tie():
    fc = PointFaceAudit(Game.square(), SOB)
    pa, fa, pb, fb, B = adjacent_bracket(fc, 3)
    assert fa == -fb
    assert fc._refine(pa, fa, pb, fb, 1, 0.0, B, 0.0).forecast.p == pa
    assert fc.brackets[-1] == (True, pa)
    pa, fa, pb, fb, B = adjacent_bracket(fc, 4)
    assert abs(fb) < abs(fa)
    assert fc._refine(pa, fa, pb, fb, 1, 0.0, B, 0.0).forecast.p == pb
    assert fc.brackets[-1] == (True, pb)
    assert fc.solves == 0


def test_stage_3_solves_both_ends_of_a_polyline_bracket():
    # the walk values a segment's ends with its exposure, _solve_at finds
    # p's face again: a polyline keeps both solves
    fc = TwoSolveAudit(POLY, SOB)
    rng = np.random.default_rng(97)
    for _ in range(300):
        A, B, C = rng.uniform(-1.0, 1.0, 3)
        fc._walk(float(A), float(B), -abs(float(C)))
    assert all(len(solved) == 1 + closed for closed, solved in fc.brackets)
    assert sum(closed for closed, _ in fc.brackets) >= 30


# -- stage 1: the polyline walk and the square/log scan --------------------

# vertices 1e-13 apart in one loss: the faces within about 1e-12 of p = 0
# (first) or p = 1 (second) are wide by the face tolerance, and the faces
# at 0 and 1 themselves are pinned to the end vertex
NEAR_DEGENERATE = [Game.custom([(0.0, 1.0), (1e-13, 0.5), (1.0, 0.0)]),
                   Game.custom([(0.0, 1.0), (0.5, 1e-13), (1.0, 0.0)])]
# the middle vertex has exposure 0: S is flat between the special ps
FLAT_SEGMENT = Game.custom([(0.0, 1.5), (0.5, 0.5), (1.5, 0.0)])
SINGLE_VERTEX = Game.custom([(0.3, 0.7)])


def assert_first_sign_change(game, kernel, A, B, C):
    """next_forecast at fixed (A, B, C) takes the first sign change of
    reference.ranges_on on a dense grid that holds every special p: the
    branch, and on a root round a p between the grid points that bracket
    the change (to a few ulps), or p = 0 where the sign at 0 is 0."""
    fc = BracketRecorder(game, kernel, (A, B, C))
    rep = fc.next_forecast(0.0)
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 2049),
                                     game.special_ps()]))
    sgn = reference.sgn(*reference.ranges_on(fc.game, grid, A, B, C))
    flips = np.nonzero(sgn != sgn[0])[0]
    if sgn[0] == 0:
        assert rep.branch is Branch.ROOT and rep.forecast.p == 0.0
    elif not flips.size:
        assert rep.branch is (Branch.ENDPOINT_POSITIVE if sgn[0] > 0
                              else Branch.ENDPOINT_NEGATIVE)
    else:
        i, tol = int(flips[0]), 4 * math.ulp(1.0)
        assert rep.branch is Branch.ROOT
        assert grid[i - 1] - tol <= rep.forecast.p <= grid[i] + tol
    if fc.brackets:
        assert_brackets_closed(fc)


@given(st.one_of(convex_polylines(), st.sampled_from(NEAR_DEGENERATE)),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-5.0, -1e-3))
# a root at a subnormal p: the secant's product fa * (pb - pa) underflows
@example(Game.custom([(0.0, 0.0), (1.0, -1.0)]), 0.0, 2.225073858507e-311,
         -1.0)
# the segment's root is within rounding of 1/1023, a point of the p-grid
@example(Game.absolute(), 0.0, -0.49853372434017595, -0.5)
# a root within rounding of the p-grid point 145/1023
@example(Game.absolute(), 0.0, -0.28739002932551316, -0.5)
# a root one ulp below p = 1/2: no root of _solve_at's quadratic lies on
# the wide face, which takes the end nearer zero
@example(Game.absolute(), 1e-08, 0.24999998999999992, -0.5)
def test_walk_takes_the_first_sign_change(game, A, B, C):
    assert_first_sign_change(game, SOB, A, B, C)


@pytest.mark.parametrize("game", [FLAT_SEGMENT, SINGLE_VERTEX],
                         ids=["flat-segment", "single-vertex"])
@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
# a root near 1e-82 in the cell [0, 1/1023]: Illinois creeps an ulp a step
@example(-0.75, 2.8945361835041232e-142)
def test_walk_takes_the_first_sign_change_where_k_vanishes(game, A, B):
    # K(0, 0) = 0 for the linear kernel with offset 0, so C = -0.0 and a
    # segment's slope is -e^2: zero on the flat segment
    kernel = Kernel.linear(offset=0.0)
    C = Forecaster(game, kernel).coefficients(0.0)[2]
    assert C == 0.0
    assert_first_sign_change(game, kernel, A, B, C)


class EntryRecorder(Forecaster):
    """Records each stage-2 bracket as it is entered: (pa, fa, pb, fb)."""

    def __init__(self, game, kernel):
        super().__init__(game, kernel)
        self.entries = []

    def _refine(self, pa, fa, pb, fb, s0, A, B, C):
        self.entries.append((pa, fa, pb, fb))
        return super()._refine(pa, fa, pb, fb, s0, A, B, C)


@given(convex_polylines(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
       st.floats(-5.0, 0.0))
# roots in the segments [0, 1/2] and [1/2, 1] of absolute loss
@example(Game.absolute(), 0.0, -0.28739002932551316, -0.5)
@example(Game.absolute(), 0.0, 0.5, -0.5)
def test_walk_brackets_a_root_by_its_segment(game, A, B, C):
    # stage 2 starts from the segment whose line turns negative: its ends
    # are consecutive points of the path, valued positive and negative
    fc = EntryRecorder(game, SOB)
    fc._walk(A, B, C)
    ps = [p for p, _ in fc._path]
    for pa, fa, pb, fb in fc.entries:
        assert ps[ps.index(pa) + 1] == pb
        assert fa > 0.0 > fb


def test_walk_takes_the_root_before_a_straddling_face():
    # absolute loss with the Sobolev K(x, x) = 1/2: below p = 1/2 S is
    # 1/2 + A + B - 3p/2, whose root sits 1e-4 below 1/2.  The face at
    # 1/2 runs from A + B - 1/4 < 0 at e = 1 to -A + B - 1/4 > 0 at
    # e = -1, so its value range holds zero; a walk that signed only the
    # faces would solve on that face instead, at p = 1/2.
    A, B, C = -0.5 - 1.5e-4, 0.75, -0.5
    fc = BracketRecorder(Game.absolute(), SOB, (A, B, C))
    rep = fc.next_forecast(0.0)
    # one history row gives the oracle the same sums: e r = A and
    # K(0, 0) r = 1/2, so B = 1/2 + K(0, 0)/2 (e is free in the oracle)
    p, q = oracle_forecast(Game.absolute(), SOB, [(0.0, 0.0, 0.5, 1, A)],
                           0.0)
    assert abs(rep.forecast.p - p) <= 1e-6 and rep.forecast.p < 0.5
    assert rep.branch is Branch.ROOT and rep.s_residual < 1e-15
    assert_brackets_closed(fc)


def test_polyline_rounds_fill_no_grid(monkeypatch):
    sizes = []
    arrays = Game.exposure_interval_arrays

    def counted(self, ps):
        sizes.append(np.size(ps))
        return arrays(self, ps)

    monkeypatch.setattr(Game, "exposure_interval_arrays", counted)
    for game in (Game.absolute(), POLY):
        run_random(game, SOB, 50, seed=3)
    assert sizes and set(sizes) == {1}  # stage-2 steps only


def test_records_are_immutable_and_keep_their_fields():
    d, f = Decision(0.25, 0.0625, 0.5625), Forecast(0.25, 0.5)
    rep = RootReport(f, 0.0, Branch.ROOT)
    assert rep.decision is None and rep.forecast is f
    assert d.exposure == d.loss1 - d.loss0 == 0.5
    for record, name in ((d, "gamma"), (d, "exposure"), (f, "p"), (f, "r"),
                         (rep, "decision")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    assert {"Decision", "Forecast", "RootReport"} <= set(defcast.__all__)


@pytest.mark.parametrize("game", PARITY_GAMES, ids=PARITY_IDS)
def test_a_polyline_root_carries_the_canonical_decision(game):
    # stage 3 finds a polyline's face once, for the exposures and for the
    # decision the engine plays; square and log leave it to the engine
    fc = Forecaster(game, SOB)
    rng = np.random.default_rng(43)
    carried = 0
    for _ in range(80):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        if game.kind is GameKind.CUSTOM and rep.branch is Branch.ROOT:
            assert rep.decision == game.canonical_choice(rep.forecast)
            carried += rep.forecast.q != 0.5  # solved on a wide face
        else:
            assert rep.decision is None
        fc.update(x, rep.forecast, int(rep.forecast.p <= 0.5),
                  s_residual=rep.s_residual, branch=rep.branch)
    assert carried or game.kind is not GameKind.CUSTOM


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-2.0, 2.0))
@example(-0.25, 1.0, -0.5 - 2.0 ** -50)  # A - C/2 just above 0, A < 0
@example(1e-3, -3.0, 1e-3 * (2.0 - 2.0 ** -50))  # C > 0
def test_square_and_log_s_falls_where_a_is_nonnegative(A, B, C):
    # dS/dp = -(e^2 - C) + ((1 - 2p) e + A) e'(p), with e' < 0 and
    # (1 - 2p) e >= 0 for these scoring rules: S cannot rise when A >= 0
    # and C <= 0, so the first sign change is the only one.  Square's S
    # is u^3/2 + (A - C/2) u + (B + C/2) in u = 1 - 2p, which also falls
    # wherever A - C/2 > 0, A < 0 or C > 0 included.  Elsewhere it can
    # rise, which is why these games scan a grid where _falling declines.
    games = [Game.square()] * (2.0 * A > C) + [Game.log()] * (
        A >= 0.0 and C <= 0.0)
    assume(games)
    for game in games:
        fc = Forecaster(game, SOB)
        grid, e, quad = fc._scan_terms(_DELTA_START)
        v = fc._scan(_DELTA_START, A, B, C)[1]
        size = np.abs(quad) + np.abs(A * e) + abs(B) + np.abs(C * grid)
        assert np.all(np.diff(v) <= 4 * np.finfo(float).eps
                      * (size[:-1] + size[1:]))
        # within beta of a falling S, no value rises by more than 2 beta
        assert np.all(np.diff(v) <= 2.0 * fall_beta(fc, A, B, C))


# -- history store and scan cache -----------------------------------------

def list_coefficients(kernel, xs, ps, ys, agg_a, x):
    """coefficients(x) computed from per-round lists."""
    kxx = float(kernel.diag(x))
    resid = np.asarray(ys, dtype=float) - np.asarray(ps)
    row = np.asarray(kernel(x, np.asarray(xs, dtype=float))) if xs \
        else np.zeros(0)
    return agg_a, float(row @ resid) + 0.5 * kxx, -kxx


def list_s_value(game, kernel, xs, ps, ys, es, p, q, x):
    """s_value(p, q, x) computed from per-round lists."""
    e = game.canonical_choice(Forecast(p, q)).exposure
    kxx = float(kernel.diag(x))
    total = 0.5 * (e * e + kxx) * (1.0 - 2.0 * p)
    if xs:
        resid = np.asarray(ys, dtype=float) - np.asarray(ps)
        row = np.asarray(kernel(x, np.asarray(xs, dtype=float)))
        total += float(((e * np.asarray(es) + row) * resid).sum())
    return total


@pytest.mark.parametrize("game", [Game.square(), Game.log(), POLY],
                         ids=lambda g: g.kind.value)
def test_store_growth_matches_list_formulas(game):
    # three doublings of the columns: 64 -> 128 -> 256 -> 512 rows
    rounds = 4 * _INITIAL_CAPACITY + 8
    fc = Forecaster(game, SOB)
    xs, ps, ys, es, agg_a = [], [], [], [], 0.0
    rng = np.random.default_rng(59)
    for _ in range(rounds):
        x = float(rng.uniform(-1, 1))
        assert fc.coefficients(x) == list_coefficients(SOB, xs, ps, ys,
                                                       agg_a, x)
        rep = fc.next_forecast(x)
        p, q = rep.forecast.p, rep.forecast.q
        assert fc.s_value(p, q, x) == list_s_value(game, SOB, xs, ps, ys,
                                                   es, p, q, x)
        y = int(rng.integers(0, 2))
        fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                  branch=rep.branch)
        e = game.canonical_choice(rep.forecast).exposure
        xs.append(x), ps.append(p), ys.append(y), es.append(e)
        agg_a += e * (y - p)
    assert len(fc._cols["p"]) == 8 * _INITIAL_CAPACITY
    assert fc.column("x").tolist() == xs and fc.column("p").tolist() == ps
    assert fc.column("y").tolist() == ys and fc.column("e").tolist() == es


def in_round_order(s_residuals):
    """sum(abs(r) for r in s_residuals) as Python before 3.12 adds it."""
    total = 0.0
    for r in s_residuals:
        total += abs(r)
    if sys.version_info < (3, 12):  # later versions compensate in sum()
        assert total == sum(abs(r) for r in s_residuals)
    return total


def test_residual_total_is_a_running_sum():
    fc, _ = run_random(Game.log(), SOB, 50, seed=61)
    assert fc.residual_total > 0.0
    assert fc.residual_total == in_round_order(
        fc.column("s_residual").tolist())
    # residuals whose total depends on the order and precision of the sum
    fc = Forecaster(Game.square(), SOB)
    s_residuals = (np.random.default_rng(85).normal(size=50) * 1e-10).tolist()
    for r in s_residuals:
        fc.update(0.0, Forecast(0.5, 0.5), 1, s_residual=r)
    total = in_round_order(s_residuals)
    assert math.fsum(abs(r) for r in s_residuals) != total
    assert float(np.sum(np.abs(s_residuals))) != total
    assert fc.residual_total == total


def test_columns_are_read_only():
    fc, _ = run_random(Game.square(), SOB, 5, seed=67)
    with pytest.raises(ValueError):
        fc.column("p")[0] = 0.5


def history_columns(game, xs, seed):
    """Columns (x, p, q, y, s_residual, branch) of valid rounds at xs, as
    a round log reads them: p at the ends, the special ps or anywhere."""
    rng = np.random.default_rng(seed)
    n = len(xs)
    ps = [*game.special_ps(), *rng.uniform(0.0, 1.0, 9).tolist()]
    ps += [] if game.stripped else [0.0, 1.0]
    return (list(xs), rng.choice(ps, n).tolist(),
            rng.choice([0.0, 0.5, 1.0, *rng.uniform(0.0, 1.0, 3)], n).tolist(),
            rng.integers(0, 2, n).astype(float).tolist(),
            np.abs(rng.normal(scale=1e-12, size=n)).tolist(),
            rng.choice(list(Branch), n).tolist())


def updated(game, kernel, rows):
    """A forecaster fed rows (x, p, q, y, s_residual, branch) by update."""
    fc = Forecaster(game, kernel)
    for x, p, q, y, s_res, br in rows:
        fc.update(x, Forecast(p, q), y, s_residual=s_res, branch=br)
    return fc


def assert_same_store(got, want):
    assert (got.round, len(got._cols["p"])) == (want.round,
                                                len(want._cols["p"]))
    for name in want._cols:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        if a.dtype == float:
            assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist()
        else:
            assert all(u is v or u == v for u, v in zip(a.tolist(),
                                                        b.tolist())), name
    assert math.copysign(1.0, got.agg_a) == math.copysign(1.0, want.agg_a)
    assert got.agg_a == want.agg_a
    assert got.large_numbers_certificate() == want.large_numbers_certificate()


@pytest.mark.parametrize("first", [0, _INITIAL_CAPACITY - 5])
@pytest.mark.parametrize("game", [Game.square(), Game.log(), Game.absolute(),
                                  POLY], ids=["square", "log", "absolute",
                                              "polyline"])
def test_load_has_the_bits_of_one_update_per_row(game, first):
    # the rows after `first` are loaded at once, across two doublings
    xs = np.random.default_rng(3).uniform(-1, 1, 3 * _INITIAL_CAPACITY)
    rows = list(zip(*history_columns(game, xs.tolist(), seed=5)))
    got = updated(game, SOB, rows[:first])
    got.load(*(list(c) for c in zip(*rows[first:])))
    assert_same_store(got, updated(game, SOB, rows))


def test_load_keeps_opaque_points_and_has_the_bits_of_update():
    # strings, tuples, an object-dtype record and a float as points; K is
    # a Laplace kernel of their index
    names = ["red", ("a", 2), np.array(["b", 1], dtype=object), 0.25, ("c",)]
    index = {repr(name): i for i, name in enumerate(names)}
    kernel = Kernel.custom(lambda a, b: 0.5 * math.exp(
        -abs(index[repr(a)] - index[repr(b)]) / 4.0), c_f=math.sqrt(0.5))
    points = [names[n % len(names)] for n in range(_INITIAL_CAPACITY + 10)]
    columns = history_columns(POLY, points, seed=7)
    for first in (0, 9):
        rows = list(zip(*columns))
        got = updated(POLY, kernel, rows[:first])
        got.load(*(list(c) for c in zip(*rows[first:])))
        assert got.column("x").dtype == object
        assert all(a is b for a, b in zip(got.column("x").tolist(), points))
        assert_same_store(got, updated(POLY, kernel, rows))


@pytest.mark.parametrize("later", [False, True], ids=["alone", "first"])
@pytest.mark.parametrize("game, kernel, column, value, match", [
    (Game.log(), SOB, "p", 0.0, "p=0.0"),
    (Game.log(), SOB, "p", 1.0, "p=1.0"),
    (Game.square(), SOB, "q", 1.5, "q=1.5"),
    (Game.square(), SOB, "q", -0.5, "q=-0.5"),
    (Game.square(), SOB, "q", math.nan, "q=nan"),
    (Game.square(), SOB, "y", 2.0, "binary"),
    (Game.square(), SOB, "x", math.inf, "finite"),
    (Game.square(), SOB, "x", -math.inf, "finite"),
    (Game.square(), SOB, "x", 10 ** 400, "float range"),
    (POLY, Kernel.linear(range=1.0), "x", 2.0, "range"),
    (POLY, Kernel.linear(range=1.0), "x", -2.0, "range"),
    (POLY, Kernel.linear(range=1.0), "x", "0.5", "real number"),
], ids=["log-p-0", "log-p-1", "q-above-1", "q-below-0", "q-nan", "y-2",
        "x-inf", "x-minus-inf", "x-huge-int", "x-above-range", "x-below-range",
        "x-string"])
def test_load_names_the_first_bad_row_and_writes_nothing(game, kernel, column,
                                                         value, match, later):
    # the bad row is row 3 of the load, alone or before a row that fails
    # an earlier rule of the load's checks (y): the first row that update
    # refuses wins
    fc = updated(game, kernel, list(zip(*history_columns(
        game, [0.5] * _INITIAL_CAPACITY, seed=11))))
    cols = {name: c.copy() for name, c in fc._cols.items()}
    state = (fc.round, fc.agg_a, fc.large_numbers_certificate())
    columns = dict(zip(("x", "p", "q", "y", "s_residual", "branch"),
                       history_columns(game, [0.25] * 8, seed=13)))
    columns[column][3] = value
    if later:
        columns["y"][6] = 0.5
    with pytest.raises(DomainError, match=match) as exc:
        fc.load(**columns)
    assert exc.value.row == 3
    for name, col in cols.items():
        assert len(fc._cols[name]) == len(col)
        assert np.array_equal(fc._cols[name], col, equal_nan=name != "branch")
    assert (fc.round, fc.agg_a, fc.large_numbers_certificate()) == state


def test_load_rejects_columns_of_unequal_length():
    # one branch for four rows would broadcast into every row
    fc = Forecaster(Game.square(), SOB)
    columns = history_columns(Game.square(), [0.25] * 4, seed=17)
    with pytest.raises(ValueError, match="one length"):
        fc.load(*columns[:5], columns[5][:1])
    assert fc.round == 0


def replayed(fc):
    """A fresh forecaster fed fc's history through update."""
    fresh = Forecaster(fc.game, fc.kernel)
    for x, p, q, y, s_res, br in zip(
            *(fc.column(name).tolist()
              for name in ("x", "p", "q", "y", "s_residual", "branch"))):
        fresh.update(x, Forecast(p, q), y, s_residual=s_res, branch=br)
    return fresh


@pytest.mark.parametrize("game", PARITY_GAMES, ids=PARITY_IDS)
def test_scan_cache_holds_nothing_history_dependent(game):
    played = Forecaster(game, SOB)
    rng = np.random.default_rng(71)
    for _ in range(30):
        x = float(rng.uniform(-1, 1))
        rep = played.next_forecast(x)
        assert replayed(played).next_forecast(x) == rep
        played.update(x, rep.forecast, int(rng.integers(0, 2)),
                      s_residual=rep.s_residual, branch=rep.branch)


@pytest.mark.parametrize("game", PARITY_GAMES, ids=PARITY_IDS)
def test_cached_scan_equals_uncached_ranges(game):
    fc = Forecaster(game, SOB)
    rng = np.random.default_rng(79)
    coeffs = rng.normal(scale=5.0, size=(20, 3)).tolist()
    for delta in (_DELTA_START, _NORMAL_MIN):
        grid, e_hi, quad = fc._scan_terms(delta)
        assert np.array_equal(grid, fc._p_grid(delta))
        # no grid point is a special p: every face on the grid is a point
        hi, lo = game.exposure_interval_arrays(grid)
        assert np.array_equal(hi, lo) and np.array_equal(hi, e_hi)
        for A, B, C in coeffs + [[math.nan, 1.0, 1.0]]:
            with np.errstate(invalid="ignore"):
                v = fc._scan(delta, A, B, C)[1]
                assert np.array_equal(
                    reference.sgn(v, v), reference.sgn(
                        *reference.ranges_on(fc.game, grid, A, B, C)))
        assert fc._scan_terms(delta)[0] is grid  # filled once per grid


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
COEFFICIENT = st.one_of(SPECIAL, st.floats(-1e3, 1e3))


@given(st.sampled_from(["square", "log"]),
       st.sampled_from([_DELTA_START, _NORMAL_MIN]),
       COEFFICIENT, COEFFICIENT, COEFFICIENT,
       st.one_of(st.none(), st.integers(0, _P_GRID - 1)))
@example("square", _DELTA_START, math.inf, math.inf, 0.0, None)  # inf, NaN
@example("square", _DELTA_START, math.inf, 0.0, 0.0, None)  # inf, -inf
@example("log", _DELTA_START, -math.inf, math.nan, 1.0, None)  # all NaN
@example("square", _DELTA_START, 0.5, 0.0, 0.0, 300)  # a zero at 300
@example("log", _DELTA_START, -2.0, 0.0, 0.0, 0)  # a zero at 0
def test_scan_finds_the_first_sign_change(name, delta, A, B, C, zero_at):
    # with zero_at, B puts an exact 0 at that grid point, where C = 0 and
    # the value is t + -t, t = quad + A * e (or NaN where t is infinite)
    fc = Forecaster(Game.from_json(name), SOB)
    grid, e_hi, quad = fc._scan_terms(delta)
    with np.errstate(all="ignore"):
        if zero_at is not None:
            k = zero_at % len(grid)  # a log grid has one point fewer
            C, B = 0.0, -float(quad[k] + A * e_hi[k])
        _, v, s0, i = fc._scan(delta, A, B, C)
        sgn = reference.sgn(*reference.ranges_on(fc.game, grid, A, B, C))
    assert s0 == sgn[0]
    flips = np.nonzero(sgn != s0)[0]
    assert i == (int(flips[0]) if s0 and flips.size else 0)


# -- stage 1 where S falls: the cell without the scan ----------------------

def fall_beta(fc, A, B, C):
    """_falling's bound on |scan value - exact S| over the grid."""
    k = fc._fall_terms()[4]
    return k[0] + k[1] * abs(A) + k[2] * abs(B) + k[3] * abs(C)


class ScanOnly(BracketRecorder):
    """Stage 1 by the scan alone."""

    def _falling(self, A, B, C):
        return None


def falling_report(name, A, B, C):
    """_falling's report at (A, B, C), or None, after checking that any
    report it gives is the scan's to the bit, and next_forecast too."""
    game = Game.from_json(name)
    fc = BracketRecorder(game, SOB, (A, B, C))
    with np.errstate(all="ignore"):
        got = fc._falling(A, B, C)
        want = repr(ScanOnly(game, SOB, (A, B, C)).next_forecast(0.0))
        assert repr(fc.next_forecast(0.0)) == want
    assert got is None or repr(got) == want
    return got


def grid_zero(name, A, k):
    """B that, with C = 0, makes the scan's value at grid point k exactly
    0: t + -t with t = quad + A * e."""
    grid, e, quad = Forecaster(Game.from_json(name), SOB)._scan_terms(
        _DELTA_START)
    return -float(quad[k] + A * e[k])


def cancelling(P, u0, K):
    """(A, B, C) of the square S = u^3/2 + P u + Q with its root at
    u = u0 and K(x, x) = K: at large K the scan's values carry rounding
    of order K * 1e-16, more than S moves between grid points near the
    root (near u = 0 where P is small, or u = +-1 at K near 1e15)."""
    Q = -(0.5 * u0 ** 3 + P * u0)
    return P - 0.5 * K, Q + 0.5 * K, -K


@given(st.sampled_from(["square", "log"]), COEFFICIENT, COEFFICIENT,
       COEFFICIENT)
@example("square", 1.0, 10.0, -0.5)  # positive endpoint
@example("square", 1.0, -10.0, -0.5)  # negative endpoint
@example("square", math.nan, 0.0, -0.5)
@example("square", math.inf, 0.0, -0.5)
@example("log", 1.0, math.nan, -0.5)
@example("square", 1e306, 0.0, -0.5)  # beta too large: no proof
@example("square", 5e-324, 0.0, 5e-324)  # the cube root underflows to 0
@example("log", 2.0, -60.0, -0.5)  # root below the first delta
@example("log", 0.0, 60.0, -0.5)  # root above 1 - delta
@example("square", *cancelling(1e-9, 0.0, 1e8))
@example("square", *cancelling(0.0, 1e-3, 1e8))
# noisy values near p = 0 and near p = 1: only 2 beta proves an endpoint
@example("square", -5770394524739182.0, 5770394524739181.0,
         -1.1540789049478368e+16)
@example("square", -443078130654394.0, 443078130654395.56, -886156261308789.0)
def test_falling_cell_is_the_scans(name, A, B, C):
    falling_report(name, A, B, C)


@given(st.sampled_from(["square", "log"]), st.floats(0.0, 10.0),
       st.integers(1, _P_GRID - 3), st.integers(-4, 4))
@example("square", 1.0, 300, 0)
@example("log", 1.0, 300, 0)
def test_falling_cell_at_a_zero_on_the_grid(name, A, k, ulps):
    # C = 0 and B puts an exact 0 at grid point k, or B is a few ulps off
    # it, so the value there is 0 or near it, of either sign
    B = grid_zero(name, A, k)
    for _ in range(abs(ulps)):
        B = math.nextafter(B, math.copysign(math.inf, ulps))
    falling_report(name, A, B, 0.0)


@given(st.floats(0.0, 8.0), st.sampled_from([-1.0, 0.0, 1.0]),
       st.floats(-3e-3, 3e-3), st.floats(1.0, 1e17))
def test_falling_cell_is_the_scans_where_values_are_noisy(r, end, du, K):
    # roots near p = 1/2 and near either end, where an endpoint round is
    # proved or not; P, a few ulps of K/2, keeps A - C/2 > 0 in floats
    falling_report("square", *cancelling(r * K * 2.0 ** -53, end + du, K))


@pytest.mark.parametrize("name", ["square", "log"])
def test_falling_takes_what_it_proves_and_no_more(name):
    grid = Forecaster(Game.from_json(name), SOB)._scan_terms(_DELTA_START)[0]
    # a value that is exactly 0: stage 3 at that grid point, as the scan
    A, k = 1.0, 300
    rep = falling_report(name, A, grid_zero(name, A, k), 0.0)
    assert rep.branch is Branch.ROOT and rep.forecast.p == grid[k]
    # left of that zero the value is a few ulps of B above 0, under 2 beta
    B = math.nextafter(grid_zero(name, A, k - 1), math.inf)
    assert falling_report(name, A, B, 0.0) is None
    assert falling_report(name, math.nan, 0.0, -0.5) is None
    # S may rise: square where A - C/2 <= 0, log where A < 0 or C > 0
    assert falling_report(name, -0.25, 0.0, -0.5) is None
    if name == "log":
        assert falling_report(name, 0.0, 0.0, 0.5) is None
    else:
        for B, branch in ((10.0, Branch.ENDPOINT_POSITIVE),
                          (-10.0, Branch.ENDPOINT_NEGATIVE)):
            assert falling_report(name, 1.0, B, -0.5).branch is branch


@functools.lru_cache(maxsize=None)
def exact_exposures(name):
    """The exposure at each point of the delta = 1e-6 grid to 60 digits,
    with the grid's points as decimals."""
    grid = Forecaster(Game.from_json(name), SOB)._scan_terms(_DELTA_START)[0]
    with decimal.localcontext(decimal.Context(prec=60)):
        gs = [Decimal(g) for g in grid.tolist()]
        if name == "square":
            return gs, [1 - 2 * g for g in gs]
        return gs, [((1 - g) / g).ln() for g in gs]


@given(st.sampled_from(["square", "log"]), st.floats(-1e6, 1e6),
       st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@example("square", 0.0, 0.0, 0.0)
@example("log", 0.0, 0.0, 0.0)
@example("log", 1e6, 0.0, 0.0)  # the exposure's error, scaled by A
@example("log", 0.0, 1e6, -1e6)
def test_fall_beta_bounds_the_scan_error(name, A, B, C):
    fc = Forecaster(Game.from_json(name), SOB)
    values = fc._scan(_DELTA_START, A, B, C)[1].tolist()
    beta = Decimal(fall_beta(fc, A, B, C))
    with decimal.localcontext(decimal.Context(prec=60)):
        a, b, c = Decimal(A), Decimal(B), Decimal(C)
        for v, g, e in zip(values, *exact_exposures(name)):
            exact = (1 - 2 * g) / 2 * e * e + a * e + b + c * g
            assert abs(Decimal(v) - exact) <= beta


@pytest.mark.parametrize("name", ["square", "log"])
def test_falling_keeps_every_round_log(name, monkeypatch):
    # the same runs with _falling and with the scan alone write the same
    # bytes, and most rounds take the cell without the scan
    taken = []
    falling = Forecaster._falling

    def counted(self, A, B, C):
        report = falling(self, A, B, C)
        taken.append(report is not None)
        return report

    for kernel in ({"kind": "sobolev"}, {"kind": "gaussian", "width": 0.5},
                   {"kind": "linear"}):
        for generator in ({"kind": "iid_logistic", "weights": [0.0, 2.0]},
                          {"kind": "deterministic", "threshold": 0.0,
                           "noise_rate": 0.1},
                          {"kind": "adversarial"}):
            config = ExperimentConfig.from_json({
                "game": name, "kernel": kernel, "generator": generator,
                "horizon": 300, "seed": 3})
            with monkeypatch.context() as m:
                m.setattr(Forecaster, "_falling", counted)
                rows = run_engine(config).round_log_rows()
            with monkeypatch.context() as m:
                m.setattr(Forecaster, "_falling",
                          lambda self, A, B, C: None)
                assert run_engine(config).round_log_rows() == rows
    assert len(taken) == 9 * 300 and sum(taken) > 0.9 * len(taken)


def small_root_history():
    """Rounds after which log-loss S is negative on the delta = 1e-6 grid.

    Rounds at p = 0.2 with y = 0 drive A to about -10, rounds at p = 1/2
    with y = 0 drive B to about -50, so the root lies below 1e-6.
    """
    return [(0.0, Forecast(0.2, 0.5), 0)] * 36 \
        + [(0.0, Forecast(0.5, 0.5), 0)] * 200


class GridCounter(Forecaster):
    """Counts the grid fills, per delta."""

    def __init__(self, game, kernel):
        super().__init__(game, kernel)
        self.fills = []

    def _p_grid(self, delta):
        self.fills.append(delta)
        return super()._p_grid(delta)


def test_scan_cache_fills_the_second_grid_once():
    game = Game.log()
    played = GridCounter(game, SOB)
    for x, f, y in small_root_history():
        played.next_forecast(x)
        played.update(x, f, y)
    reports = []
    for _ in range(10):
        rep = played.next_forecast(0.0)
        assert replayed(played).next_forecast(0.0) == rep
        reports.append(rep)
        played.update(0.0, rep.forecast, 0, s_residual=rep.s_residual,
                      branch=rep.branch)
    assert played.fills == [_DELTA_START, _NORMAL_MIN]
    assert reports[0].forecast.p < _DELTA_START  # on the second grid
    assert sum(r.forecast.p < _DELTA_START for r in reports) > 1


@pytest.mark.parametrize("p, y, end", [(0.25, 1, 1.0 - 2.0 ** -53),
                                       (0.75, 0, _NORMAL_MIN)],
                         ids=["above", "below"])
def test_a_root_beyond_the_last_float_plays_that_float(p, y, end):
    # after one round with residual r = +-3/4, S at x = 0 under K = 1e20 is
    # about ((1 - 2p)/2 + r) * 1e20, of r's sign at every grid float: the
    # root lies beyond 1 - 2^-53, the last float below 1, or below 2^-1022
    fc = Forecaster(Game.log(), Kernel.linear(offset=1e20))
    fc.update(0.0, Forecast(p, 0.5), y)
    rep = fc.next_forecast(0.0)
    assert rep.branch is Branch.ROOT and rep.forecast == Forecast(end, 0.5)
    assert rep.s_residual == pytest.approx(
        abs(fc.s_value(end, 0.5, 0.0)), rel=1e-15)
    assert rep.s_residual > 1e19


@pytest.mark.parametrize("k", [1e17, 1e18, 1e160, 1e300])
def test_log_loss_runs_at_every_kernel_scale(tmp_path, k):
    # K(x, x) = k at x = 0 puts log loss's roots as near 0 and 1 as floats
    # go: every round plays, stores the exposure S was rooted at, and the
    # run's certificate holds exactly, with a margin of the slack's order
    replay = tmp_path / "xy.csv"
    replay.write_text("".join(f"0.0,{n % 2}\n" for n in range(30)))
    kernel = Kernel.linear(offset=k)
    config = ExperimentConfig.from_json({
        "game": "log", "kernel": {"kind": "linear", "offset": k},
        "generator": {"kind": "replay", "path": str(replay)},
        "horizon": 30, "comparators": []})
    engine = run_engine(config)
    fc = engine.forecaster
    assert fc.round == 30
    for p, e in zip(fc.column("p").tolist(), fc.column("e").tolist()):
        want = float(np.log((1.0 - p) / p))
        assert abs(e - want) <= 4.0 * math.ulp(want)
    exact = exact_certificate(
        *(fc.column(c).tolist() for c in ("p", "y", "e", "s_residual")),
        reference.gram(kernel, fc.column("x")).tolist())
    assert 0 <= exact["margin"] <= 10 * exact["slack"]
    log = tmp_path / "round_log.csv"
    log.write_text("\n".join(engine.round_log_rows()) + "\n")
    cert = certify_log(log, Game.log(), kernel)["large_numbers_certificate"]
    shipped = fc.large_numbers_certificate()
    assert [cert[key] for key in ("lhs", "rhs", "slack")] == [
        shipped[key] for key in ("lhs", "rhs", "slack")]


# -- invariants -----------------------------------------------------------

@pytest.mark.parametrize("game_name", ["square", "absolute", "log"])
def test_root_residual_within_epsilon(game_name):
    game = Game.from_json(game_name)
    rng = np.random.default_rng(11)
    fc = Forecaster(game, SOB)
    for _ in range(40):
        x = float(rng.uniform(-1, 1))
        rep = fc.next_forecast(x)
        if rep.branch is Branch.ROOT:
            s = fc.s_value(rep.forecast.p, rep.forecast.q, x)
            assert abs(s) <= 1e-9
            assert rep.s_residual <= 1e-9
        y = int(rng.integers(0, 2))
        fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                  branch=rep.branch)


def test_log_runs_stay_strictly_inside():
    fc, reports = run_random(Game.log(), SOB, 60, seed=13)
    for p in fc.column("p"):
        assert 0.0 < p < 1.0


def test_absolute_off_half_q_only_at_special_p():
    fc, reports = run_random(Game.absolute(), SOB, 60, seed=17)
    for p, q, br in zip(fc.column("p"), fc.column("q"),
                        fc.column("branch")):
        if q != 0.5:
            assert p == 0.5 or br is not Branch.ROOT


def test_endpoint_branch_has_constant_sign():
    # a history of zero-exposure rounds with y=1 leaves S strictly positive
    game = Game.square()
    fc = Forecaster(game, SOB)
    for _ in range(10):
        fc.update(0.0, Forecast(0.5, 0.5), 1)
    rep = fc.next_forecast(0.0)
    assert rep.branch is Branch.ENDPOINT_POSITIVE
    assert rep.forecast == Forecast(1.0, 0.5)
    for p in np.linspace(0.0, 1.0, 10_000):
        assert fc.s_value(float(p), 0.5, 0.0) > 0.0


def test_endpoint_branch_negative():
    fc = Forecaster(Game.square(), SOB)
    for _ in range(10):
        fc.update(0.0, Forecast(0.5, 0.5), 0)
    rep = fc.next_forecast(0.0)
    assert rep.branch is Branch.ENDPOINT_NEGATIVE
    assert rep.forecast == Forecast(0.0, 0.5)
    for p in np.linspace(0.0, 1.0, 10_000):
        assert fc.s_value(float(p), 0.5, 0.0) < 0.0


def test_agg_a_matches_recomputation():
    fc, _ = run_random(Game.absolute(), SOB, 50, seed=19)
    resid = np.asarray(fc.column("y"), dtype=float) - fc.column("p")
    assert fc.agg_a == pytest.approx(float(fc.column("e") @ resid),
                                     abs=1e-12)


def test_agg_a_cancellation():
    # equal exposures, opposite residuals: at p = 1/2 the absolute game's
    # q picks the decision, so both rounds share exposure 1 - 2q
    fc = Forecaster(Game.absolute(), SOB)
    fc.update(0.0, Forecast(0.5, 0.25), 1)
    before = fc.agg_a
    fc.update(0.0, Forecast(0.5, 0.25), 1)   # residual +1/2, exposure 1/2
    fc.update(0.0, Forecast(0.5, 0.25), 0)   # residual -1/2, exposure 1/2
    assert fc.agg_a == pytest.approx(before, abs=1e-12)


def test_update_rejects_nonbinary_outcome():
    fc = Forecaster(Game.square(), SOB)
    with pytest.raises(DomainError):
        fc.update(0.0, Forecast(0.5, 0.5), 2)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               np.float64("nan")])
def test_update_rejects_non_finite_datum_before_any_write(x):
    # a full store, so that an accepted round would first double the columns;
    # the diagonal no longer turns a NaN x into a NaN variance, so the
    # rejection is what keeps it out of the certificates
    fc, _ = run_random(Game.square(), SOB, _INITIAL_CAPACITY, seed=5)
    cols = {name: col.copy() for name, col in fc._cols.items()}
    state = (fc.round, fc.agg_a, fc.residual_total,
             fc.large_numbers_certificate())
    with pytest.raises(DomainError, match="finite"):
        fc.update(x, Forecast(0.5, 0.5), 1, s_residual=1.0)
    assert fc._cols.keys() == cols.keys()
    for name, col in cols.items():
        assert len(fc._cols[name]) == len(col)
        assert np.array_equal(fc._cols[name], col, equal_nan=name != "branch")
    assert (fc.round, fc.agg_a, fc.residual_total,
            fc.large_numbers_certificate()) == state


@pytest.mark.parametrize("x", ["5", "0.5", b"0.5", None, (0.5,), [0.5],
                               0.5j], ids=["str", "str-in-range", "bytes",
                                           "none", "tuple", "list", "complex"])
def test_builtin_kernel_refuses_a_non_real_datum_and_writes_nothing(x):
    # numpy would parse "5" into the float x column, outside the range;
    # load's refusal is a case of the load test above
    kernel = Kernel.linear(range=1.0)
    fc = Forecaster(Game.square(), kernel)
    fc.update(0.5, Forecast(0.5, 0.5), 1)
    cols = {name: col.copy() for name, col in fc._cols.items()}
    state = (fc.round, fc.agg_a, fc.k29_certificate())
    with pytest.raises(DomainError, match="real number"):
        fc.update(x, Forecast(0.5, 0.5), 1)
    assert (fc.round, fc.agg_a, fc.k29_certificate()) == state
    for name, col in cols.items():
        assert np.array_equal(fc._cols[name], col, equal_nan=name != "branch")
    engine = Engine(Game.square(), kernel)
    with pytest.raises(DomainError, match="real number"):
        engine.decide(x)
    assert engine.rounds == 0 and engine.pending_forecast is None
    engine.decide(0.5)  # nothing is left pending


# -- certificates ---------------------------------------------------------

def test_k29_empty():
    fc = Forecaster(Game.square(), SOB)
    assert fc.k29_certificate() == (0.0, 0.0)


def test_k29_single_round():
    fc = Forecaster(Game.square(), SOB)
    fc.update(0.0, Forecast(0.5, 0.5), 1)  # exposure 0 at gamma = 1/2
    lhs, rhs = fc.k29_certificate()
    assert lhs == pytest.approx(0.125, abs=1e-12)
    assert rhs == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("game_name", ["square", "absolute", "log"])
def test_k29_holds_on_random_runs(game_name):
    # the reported verdict, exact for its floats, not a float re-check
    fc, _ = run_random(Game.from_json(game_name), SOB, 120, seed=23)
    assert fc.large_numbers_certificate()["pass"]


def test_k29_equals_the_gram_formulas():
    # rhs takes the diagonal from Kernel.diags.  Gaussian and custom: lhs is
    # the exposure part, exact at the exact residuals y - p, plus the kernel
    # part, the point sum: the residuals' ordered_dot with ordered_dot of
    # each row of func(x_i, x_j) (gram's rows for the Gaussian), rounded
    # once; its bits agree for any BLAS thread count.  Sobolev's lhs is
    # within 2 u of sum |terms| of the exact value (tests/quad_reference.py)
    tagged = Kernel.custom(lambda a, b: 0.5 * math.exp(-abs(a[1] - b[1])))
    for game, kernel, opaque in ((Game.log(), SOB, False),
                                 (POLY, Kernel.gaussian(0.5), False),
                                 (Game.square(), tagged, True)):
        fc, _ = run_random(game, SOB, 300, seed=47)
        if kernel is not SOB:  # replay the history under the other kernel
            rows = zip(*(fc.column(c).tolist() for c in "xpqy"))
            fc = Forecaster(game, kernel)
            for i, (x, p, q, y) in enumerate(rows):
                fc.update((i, x) if opaque else x, Forecast(p, q), y)
        resid, es, ps, xs = (fc.column(c) for c in ("residual", "e", "p", "x"))
        gram = reference.gram(kernel, xs)
        rhs = float(np.sum(ps * (1.0 - ps) * (es * es + np.diag(gram))))
        got, got_rhs = fc.k29_certificate()
        assert got_rhs == rhs
        exact = [y - Fraction(p) for y, p in
                 zip(fc.column("y").tolist(), ps.tolist())]
        cross = sum(r * Fraction(e) for r, e in zip(exact, es.tolist()))
        if kernel is not SOB:
            rows = np.array([[float(kernel(a, b)) for b in xs] for a in xs])
            quad = ordered_dot(ordered_dot(rows, resid), resid)
            assert got == float(cross * cross + Fraction(quad))
            continue
        cross_scale = sum(abs(r * Fraction(e))
                          for r, e in zip(exact, es.tolist()))
        quad, scale = (Fraction(v) for v in quad_reference.sobolev(
            xs.tolist(), exact))
        assert abs(Fraction(got) - cross * cross - quad) \
            <= 2 * Fraction(2.0 ** -53) * (cross_scale ** 2 + scale)


def certificate_json(kernel: str, n: int) -> str:
    """The large-number certificate of n synthetic log-loss rounds under the
    named kernel, as JSON, for a process of its own."""
    rng = np.random.default_rng(n)
    fc = Forecaster(Game.log(), Kernel.from_json(kernel))
    p = rng.uniform(0.02, 0.98, n)
    fc.load(rng.normal(size=n), p, p, (rng.uniform(size=n) < p).astype(int),
            np.zeros(n), np.full(n, Branch.ROOT))
    return json.dumps(fc.large_numbers_certificate())


@pytest.mark.parametrize("kernel", [
    "sobolev", "linear",
    pytest.param('{"kind": "gaussian", "width": 0.5}', id="gaussian")])
def test_closed_form_certificate_keeps_its_bits_across_blas_threads(kernel):
    # N = 20,000 is past both OpenBLAS's threaded dot (10,000 entries) and
    # ordered_dot's slices; the closed forms call no BLAS routine, and the
    # Gaussian's point sums run every dot in slices of one BLAS thread
    code = ("import test_forecaster as t; "
            f"print(t.certificate_json({kernel!r}, 20_000))")
    paths = [str(Path(defcast.__file__).parents[1]),
             str(Path(__file__).parent)]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(paths))
        outs.append(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    one, two = (json.loads(out) for out in outs)
    assert one == two  # lhs, rhs, slack, margin and pass


@pytest.mark.parametrize("seed", [401, 402, 403])
def test_large_numbers_verdict_is_the_exact_one(seed):
    # the benchmark's polyline/Gaussian config: a margin rhs + slack - lhs
    # of about 1e-13, as small as the rounding of lhs and rhs
    config = ExperimentConfig.from_json({
        "game": {"kind": "custom", "boundary": [[0.0, 1.0], [0.2, 0.5],
                                                [0.5, 0.2], [1.0, 0.0]]},
        "kernel": {"kind": "gaussian", "width": 0.5},
        "generator": "adversarial", "horizon": 500, "seed": seed})
    fc = run_engine(config).forecaster
    shipped = fc.large_numbers_certificate()
    exact = exact_certificate(
        *(fc.column(c).tolist() for c in ("p", "y", "e", "s_residual")),
        reference.gram(config.kernel, fc.column("x")).tolist())
    for key in ("lhs", "rhs", "slack"):
        assert shipped[key] == pytest.approx(float(exact[key]), rel=1e-12)
    assert shipped["pass"] == (exact["margin"] >= 0)


POINT_SUM_KERNELS = {"gaussian": Kernel.gaussian(0.5),
                "custom": Kernel.custom(lambda a, b: math.exp(-2 * (a - b) ** 2))}


@pytest.mark.parametrize("name", sorted(POINT_SUM_KERNELS))
def test_slab_kernel_verdict_is_exact_where_the_float_test_ties(
        tmp_path, capsys, name):
    # two square-loss rounds with lhs > rhs; one s_residual makes
    # fl(rhs + slack) = lhs while rhs + slack - lhs < 0 exactly.  The
    # float test (rhs + slack) - lhs would read 0.0 and pass
    kernel, x, p = POINT_SUM_KERNELS[name], [0.0, 3.0], [0.45, 0.45]
    fc = Forecaster(Game.square(), kernel)
    fc.load(x, p, p, [1, 1], [0.0, 0.0], [Branch.ROOT] * 2)
    lhs, rhs = fc.k29_certificate()
    gap = Fraction(lhs) - Fraction(rhs)
    slack = float(gap)
    if Fraction(slack) >= gap:
        slack = math.nextafter(slack, 0.0)
    assert rhs + slack == lhs and Fraction(rhs) + Fraction(slack) < lhs
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                   f"1,0.0,0.45,0.45,0.45,1,0.3025,{slack / 2!r},root\n"
                   "2,3.0,0.45,0.45,0.45,1,0.3025,0.0,root\n")
    certs = [certify_log(log, Game.square(), kernel)
             ["large_numbers_certificate"]]
    if name == "gaussian":
        assert main(["certify", "--log", str(log), "--game", "square",
                     "--kernel", '{"kind": "gaussian", "width": 0.5}']) == 1
        certs.append(json.loads(capsys.readouterr().out)
                     ["large_numbers_certificate"])
    exact = Fraction(rhs) + Fraction(slack) - Fraction(lhs)
    for cert in certs:
        assert (cert["lhs"], cert["rhs"], cert["slack"]) == (lhs, rhs, slack)
        assert cert["margin"] == float(exact) < 0.0 and not cert["pass"]


def test_k29_certificate_memory_is_linear_in_rounds():
    # 12,000 rounds: the Gram path needs about 16 N^2 bytes (the Gram and
    # a ufunc temporary), 2.3 GB here; the closed form keeps the process
    # small
    code = textwrap.dedent("""
        import json, resource
        import numpy as np
        from defcast.forecaster import Forecaster
        from defcast.games import Forecast, Game
        from defcast.kernels import Kernel
        rng = np.random.default_rng(5)
        n = 12_000
        fc = Forecaster(Game.square(), Kernel.sobolev())
        for x, p, y in zip(rng.uniform(-1, 1, n).tolist(),
                           rng.uniform(0.05, 0.95, n).tolist(),
                           rng.integers(0, 2, n).tolist()):
            fc.update(x, Forecast(p, 0.5), y)
        lhs, rhs = fc.k29_certificate()
        try:  # this process's own peak: ru_maxrss keeps the parent's
            with open("/proc/self/status") as fh:
                kb = next(int(line.split()[1]) for line in fh
                          if line.startswith("VmHWM:"))
        except OSError:  # no /proc
            kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps([lhs, rhs, kb / 1024]))
    """)
    env = dict(os.environ,
               PYTHONPATH=str(Path(defcast.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    lhs, rhs, peak_mb = json.loads(out.stdout)
    assert math.isfinite(lhs) and 0.0 < lhs and 0.0 < rhs
    assert peak_mb < 300.0, peak_mb


def test_resolution_with_given_values_equals_recomputed():
    fc, _ = run_random(Game.log(), SOB, 60, seed=53)
    f = KernelExpansion.build([-0.5, 0.5], [0.6, -0.6], SOB)
    fx = [float(f(x)) for x in fc.column("x").tolist()]
    assert fc.resolution_certificate(f, fx) == fc.resolution_certificate(f)


def test_resolution_zero_expansion():
    fc, _ = run_random(Game.square(), SOB, 20, seed=29)
    lhs, bound = fc.resolution_certificate(KernelExpansion((), (), SOB))
    assert (lhs, bound) == (0.0, 0.0)


def test_resolution_single_round():
    fc = Forecaster(Game.square(), SOB)
    fc.update(0.0, Forecast(0.5, 0.5), 1)
    f = KernelExpansion.build([0.0], [1.0], SOB)
    lhs, bound = fc.resolution_certificate(f)
    assert lhs == pytest.approx(0.25, abs=1e-12)
    assert bound == pytest.approx(math.sqrt(0.5) * math.sqrt(0.125),
                                  abs=1e-12)
    assert lhs <= bound + 1e-12  # equality is the boundary case here


def test_resolution_kernel_mismatch_rejected():
    fc = Forecaster(Game.square(), SOB)
    fc.update(0.0, Forecast(0.5, 0.5), 1)
    f = KernelExpansion.build([0.0], [1.0], Kernel.gaussian(1.0))
    with pytest.raises(DomainError):
        fc.resolution_certificate(f)


def test_resolution_holds_for_random_expansions():
    rng = np.random.default_rng(31)
    for game_name in ("square", "absolute", "log"):
        fc, _ = run_random(Game.from_json(game_name), SOB, 80, seed=37)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            f = KernelExpansion.build(rng.uniform(-1, 1, m),
                                      rng.normal(size=m), SOB)
            lhs, bound = fc.resolution_certificate(f)
            slack = f.norm() * math.sqrt(2.0 * fc.residual_total)
            assert lhs <= bound + slack + 1e-9


# -- determinism ----------------------------------------------------------

def test_next_forecast_is_deterministic():
    for game_name in ("square", "absolute", "log"):
        a, ra = run_random(Game.from_json(game_name), SOB, 40, seed=41)
        b, rb = run_random(Game.from_json(game_name), SOB, 40, seed=41)
        assert np.array_equal(a.column("p"), b.column("p"))
        assert np.array_equal(a.column("q"), b.column("q"))


def test_gaussian_kernel_runs():
    fc, _ = run_random(Game.square(), Kernel.gaussian(0.5), 40, seed=43)
    lhs, rhs = fc.k29_certificate()
    assert lhs <= rhs + 2.0 * fc.residual_total
