"""Loss games: losses, exposures, choice functions, and the game constant."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import defcast
from defcast.games import _FACE_TOL, Decision, DomainError, Forecast, Game
import reference

SQ = Game.square()
AB = Game.absolute()
LG = Game.log()

# a convex polyline strictly between the absolute and square boundaries
POLY = Game.custom([(0.0, 1.0), (0.2, 0.55), (0.55, 0.2), (1.0, 0.0)])

ALL_GAMES = [SQ, AB, LG, POLY]
# absolute loss is a polyline too, so its kind cannot name it
ALL_IDS = ["square", "absolute", "log", "custom"]


def dense_gammas(game, n=400):
    if game.kind.value == "log":
        return np.linspace(1e-6, 1.0 - 1e-6, n)
    if game.kind.value == "custom":
        return np.linspace(0.0, len(game.boundary) - 1, n)
    return np.linspace(0.0, 1.0, n)


# -- loss -----------------------------------------------------------------

def test_loss_values():
    assert SQ.loss(1, 0.25) == 0.5625
    assert AB.loss(0, 0.3) == 0.3
    assert LG.loss(1, 0.5) == pytest.approx(math.log(2), abs=1e-12)


def test_loss_rejects_out_of_domain_gamma():
    with pytest.raises(DomainError):
        SQ.loss(1, 1.5)
    with pytest.raises(DomainError):
        LG.loss(1, 0.0)
    with pytest.raises(DomainError):
        LG.loss(0, 1.0)
    with pytest.raises(DomainError):
        POLY.loss(0, 3.5)
    # an outcome other than 0 or 1, with update's message
    for game, y in ((SQ, 2), (SQ, 0.5), (LG, 2), (POLY, -1), (POLY, 0.5)):
        with pytest.raises(DomainError, match="observation must be binary"):
            game.loss(y, 0.5)


def test_log_loss_clamp_keeps_losses_finite():
    # decisions arbitrarily close to the open ends evaluate to finite loss
    assert math.isfinite(LG.loss(1, 1e-300))
    assert math.isfinite(LG.loss(0, 1.0 - 1e-16))


# -- expected loss --------------------------------------------------------

def test_expected_loss_values():
    assert reference.expected_loss(SQ, 0.5, 0.5) == 0.25
    for g in (0.0, 0.3, 1.0):
        assert reference.expected_loss(AB, 0.5, g) == pytest.approx(
            0.5, abs=1e-12)
    want = 0.3 * math.log(1 / 0.3) + 0.7 * math.log(1 / 0.7)
    assert reference.expected_loss(LG, 0.3, 0.3) == pytest.approx(
        want, abs=1e-12)
    assert want == pytest.approx(0.610864, abs=1e-6)


def test_expected_loss_rejects_bad_p():
    with pytest.raises(DomainError):
        reference.expected_loss(SQ, 1.2, 0.5)


# -- exposure -------------------------------------------------------------

def test_exposure_values():
    assert reference.exposure(SQ, 0.3) == pytest.approx(0.4, abs=1e-12)
    assert reference.exposure(AB, 0.5) == 0.0
    assert reference.exposure(LG, 0.5) == 0.0


@pytest.mark.parametrize("game", ALL_GAMES, ids=ALL_IDS)
def test_exposure_is_loss_difference(game):
    for g in dense_gammas(game):
        want = game.loss(1, g) - game.loss(0, g)
        assert reference.exposure(game, g) == pytest.approx(want, abs=1e-9)


def test_decision_exposure_property():
    d = Decision(0.25, 0.25, 0.75)
    assert d.exposure == 0.5


# -- canonical choice -----------------------------------------------------

def test_canonical_choice_values():
    assert SQ.canonical_choice(Forecast(0.7, 0.2)).gamma == 0.7
    assert AB.canonical_choice(Forecast(0.5, 0.25)).gamma == 0.25
    assert AB.canonical_choice(Forecast(0.3, 0.9)).gamma == 0.0
    assert AB.canonical_choice(Forecast(0.8, 0.1)).gamma == 1.0
    assert LG.canonical_choice(Forecast(0.4, 0.0)).gamma == 0.4


def test_check_forecast_domains():
    with pytest.raises(DomainError):
        LG.check_forecast(Forecast(0.0, 0.5))
    with pytest.raises(DomainError):
        LG.check_forecast(Forecast(1.0, 0.5))
    with pytest.raises(DomainError):
        SQ.check_forecast(Forecast(0.5, 1.5))
    SQ.check_forecast(Forecast(0.0, 0.0))  # closed square: fine
    SQ.check_forecast(Forecast(1.0, 1.0))


@pytest.mark.parametrize("game", ALL_GAMES, ids=ALL_IDS)
def test_choice_minimizes_expected_loss(game):
    ps = np.linspace(0.01, 0.99, 41)
    gammas = dense_gammas(game)
    for p in ps:
        best = min(reference.expected_loss(game, p, g) for g in gammas)
        for q in (0.0, 0.5, 1.0):
            d = game.canonical_choice(Forecast(float(p), q))
            assert reference.expected_loss(game, p, d.gamma) <= best + 1e-9


def test_absolute_choice_interpolates_across_the_half_jump():
    # loss pairs at p = 1/2 sweep linearly between the two one-sided limits
    left = AB.canonical_choice(Forecast(0.5 - 1e-9, 0.3))
    right = AB.canonical_choice(Forecast(0.5 + 1e-9, 0.7))
    for q in np.linspace(0.0, 1.0, 11):
        d = AB.canonical_choice(Forecast(0.5, float(q)))
        want0 = (1 - q) * left.loss0 + q * right.loss0
        want1 = (1 - q) * left.loss1 + q * right.loss1
        assert d.loss0 == pytest.approx(want0, abs=1e-8)
        assert d.loss1 == pytest.approx(want1, abs=1e-8)


@given(st.one_of(st.floats(0.0, 1.0), st.floats(0.5 - 2e-12, 0.5 + 2e-12)),
       st.floats(0.0, 1.0))
def test_absolute_polyline_keeps_the_closed_form_rule(p, q):
    # the old closed form: gamma = 0 below 1/2, 1 above, q at 1/2; within
    # the face tolerance of 1/2 (1.5e-12 on a score near 1/2) the whole
    # segment is optimal, so gamma = q there
    d = AB.canonical_choice(Forecast(p, q))
    if abs(p - 0.5) >= 1e-12:
        gamma = 0.0 if p < 0.5 else 1.0
        assert (d.gamma, d.loss0, d.loss1) == (gamma, gamma, 1.0 - gamma)
    elif abs(p - 0.5) < 7e-13:
        assert (d.gamma, d.loss0, d.loss1) == (q, q, 1.0 - q)


def test_custom_choice_loss_pair_matches_face_interpolation():
    # on a non-singleton face the q coordinate moves along the segment
    for p in POLY.special_ps():
        d0 = POLY.canonical_choice(Forecast(p, 0.0))
        d1 = POLY.canonical_choice(Forecast(p, 1.0))
        dm = POLY.canonical_choice(Forecast(p, 0.5))
        assert dm.loss0 == pytest.approx(0.5 * (d0.loss0 + d1.loss0), abs=1e-12)
        assert dm.loss1 == pytest.approx(0.5 * (d0.loss1 + d1.loss1), abs=1e-12)
        assert d0.loss0 < d1.loss0 and d0.loss1 > d1.loss1


# -- exposure interval ----------------------------------------------------

def test_exposure_interval_values():
    assert SQ.exposure_interval(0.25) == (0.5, 0.5)
    assert AB.exposure_interval(0.5) == (1.0, -1.0)
    assert AB.exposure_interval(0.8) == (-1.0, -1.0)


def test_exposure_interval_matches_choice_endpoints():
    for game in ALL_GAMES:
        for p in np.linspace(0.05, 0.95, 19):
            e_hi, e_lo = game.exposure_interval(float(p))
            d0 = game.canonical_choice(Forecast(float(p), 0.0))
            d1 = game.canonical_choice(Forecast(float(p), 1.0))
            assert e_hi == pytest.approx(d0.exposure, abs=1e-9)
            assert e_lo == pytest.approx(d1.exposure, abs=1e-9)


@st.composite
def convex_polylines(draw):
    """Random convex polylines: loss0 up, loss1 down, slopes increasing."""
    slopes = sorted(draw(st.lists(st.floats(-40.0, -0.025), min_size=1,
                                  max_size=6, unique=True)))
    # slopes closer than the points' rounding can come out decreasing
    assume(all(t - s > 1e-9 for s, t in zip(slopes, slopes[1:])))
    a = draw(st.floats(-1.0, 1.0))
    b = draw(st.floats(-1.0, 1.0))
    pts = [(a, b)]
    for s in slopes:
        dx = draw(st.floats(0.01, 2.0))
        a, b = a + dx, b + s * dx
        pts.append((a, b))
    return Game.custom(pts)


def parity_grid(game):
    """A p-grid holding every special p, both its neighbours, 0 and 1.

    Points 1e-13 to 1e-12 away from each special p probe the face
    tolerance, whose score gap is about that size there.
    """
    ps = [0.0, 1.0, *np.linspace(0.0, 1.0, 129).tolist()]
    for p in game.special_ps():
        ps += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, 1.0))]
        ps += [p + d for d in (-1e-12, -3e-13, -1e-13, 1e-13, 3e-13, 1e-12)]
    return np.array(sorted({p for p in ps if 0.0 <= p <= 1.0}))


def reference_exposures(game, p):
    """(e_hi, e_lo) at p from the definitions, not from the game's code:
    1 - 2p for square loss, np.log((1 - p)/p) for log loss, and for a
    polyline the exposures b - a of the first and last vertex of the
    optimal face: the vertices whose score (1 - p) a + p b is within the
    face tolerance of the least, or the end vertex at p = 0 and p = 1."""
    if game.kind.value == "square":
        return 1.0 - 2.0 * p, 1.0 - 2.0 * p
    if game.kind.value == "log":
        e = float(np.log((1.0 - p) / p))
        return e, e
    a, b = np.array(game.boundary).T
    if p <= 0.0 or p >= 1.0:
        i = j = 0 if p <= 0.0 else len(a) - 1
    else:
        scores = (1.0 - p) * a + p * b
        best = scores.min()
        i, j = np.flatnonzero(
            scores <= best + _FACE_TOL * (1.0 + abs(best)))[[0, -1]]
    return float(b[i] - a[i]), float(b[j] - a[j])


def assert_arrays_equal_reference(game):
    ps = parity_grid(game)
    hi, lo = game.exposure_interval_arrays(ps)
    pairs = np.array([reference_exposures(game, p) for p in ps.tolist()])
    assert np.array_equal(hi, pairs[:, 0])
    assert np.array_equal(lo, pairs[:, 1])


@given(convex_polylines())
def test_polyline_exposure_arrays_equal_per_point(game):
    assert_arrays_equal_reference(game)


def test_polyline_exposure_arrays_equal_per_point_on_near_degenerate_faces():
    # vertices 1e-13 apart in one loss sit inside the face tolerance at
    # p = 0 or p = 1, where the face is pinned to the end vertex instead
    assert_arrays_equal_reference(
        Game.custom([(0.0, 1.0), (1e-13, 0.5), (1.0, 0.0)]))
    assert_arrays_equal_reference(
        Game.custom([(0.0, 1.0), (0.5, 1e-13), (1.0, 0.0)]))


def test_exposure_interval_arrays_shape_type_and_values():
    # float64 arrays of the input's shape, or a float pair for a scalar p;
    # the face at a special p (absolute and POLY at 1/2) is wide
    ps = np.array([0.1, 0.25, 0.5, 0.8])
    want = {
        "square": [(0.8, 0.8), (0.5, 0.5), (0.0, 0.0), (-0.6, -0.6)],
        "absolute": [(1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)],
        "log": [(e, e) for e in np.log((1.0 - ps) / ps).tolist()],
        "custom": [(1.0, 1.0), (1.0, 1.0), (0.35, -0.35), (-1.0, -1.0)],
    }
    for game, name in zip(ALL_GAMES, ALL_IDS):
        hi, lo = game.exposure_interval_arrays(ps)
        assert hi.dtype == lo.dtype == np.float64
        assert hi.shape == lo.shape == ps.shape
        assert hi.tolist() == pytest.approx([w[0] for w in want[name]],
                                            abs=1e-12)
        assert lo.tolist() == pytest.approx([w[1] for w in want[name]],
                                            abs=1e-12)
        for i, p in enumerate(ps.tolist()):
            pair = game.exposure_interval_arrays(p)
            assert [type(v) for v in pair] == [float, float]
            assert pair == (hi[i], lo[i])


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# ps where numpy's (1 - p)**2, p**2, log(p) and log1p(-p) differ from the
# scalar loss's pow, math.log and math.log1p in the last bit, and ps that
# the log loss clamps
SCALAR_LOSS_PS = [0.18271225766227794, 0.42672114373024106,
                          0.9833347065534214, 0.6066357757671799,
                          5e-13, 1.0 - 5e-13]
CHOICE_GAMES = ALL_GAMES + [
    Game.custom([(0.0, 1.0), (1e-13, 0.5), (1.0, 0.0)]),
    Game.custom([(0.3, 0.7)])]


@pytest.mark.parametrize("game", CHOICE_GAMES, ids=ALL_IDS + [
    "near-degenerate", "one-vertex"])
@given(st.data())
def test_choices_have_the_bits_of_canonical_choice(game, data):
    # every parity-grid p (0, 1, each special p, its neighbouring floats
    # and points inside the face tolerance) and the SCALAR_LOSS_PS
    # ps at q in {0, 1/2, 1}, then drawn rows of such ps or any p, at
    # those qs or any q
    grid = parity_grid(game).tolist() + SCALAR_LOSS_PS
    rows = [(p, q) for p in grid for q in (0.0, 0.5, 1.0)]
    rows += data.draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(grid), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))))
    rows = [(p, q) for p, q in rows if not game.stripped or 0.0 < p < 1.0]
    ps, qs = (np.array(c) for c in zip(*rows))
    want = [game.canonical_choice(Forecast(p, q)) for p, q in rows]
    got = game.choices(ps, qs)
    for name, column in zip(("gamma", "loss0", "loss1"), got):
        assert bits(column) == bits([getattr(d, name) for d in want]), name


@pytest.mark.parametrize("game", ALL_GAMES, ids=ALL_IDS)
def test_choices_check_every_row_and_take_no_rows(game):
    for p, q in ((0.0 if game.stripped else -0.1, 0.5), (0.5, 1.5),
                 (0.5, math.nan), (math.nan, 0.5)):
        with pytest.raises(DomainError):
            game.choices([0.25, p, 0.75], [0.5, q, 0.5])
    assert [c.tolist() for c in game.choices([], [])] == [[], [], []]


def test_polyline_exposure_arrays_reject_p_outside_domain():
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            POLY.exposure_interval_arrays(np.array([0.5, bad]))


def assert_float_matches_one_element(game, p):
    hi, lo = game.exposure_interval_arrays(p)
    hi1, lo1 = game.exposure_interval_arrays(np.array([p]))
    assert type(hi) is float and type(lo) is float
    assert (hi, lo) == (hi1[0], lo1[0]) == reference_exposures(game, p)


# math.log((1 - p)/p) differs from np.log's in the last place at these p
@example(0.5882931558557919)
@example(0.6434724541360264)
@given(st.floats(1e-300, 1.0, exclude_max=True))
def test_float_exposure_interval_has_the_one_element_bits(p):
    for game in ALL_GAMES + [Game.custom([(0.0, 1.0), (1.0, 0.0)])]:
        for q in (p, *game.special_ps()):
            assert_float_matches_one_element(game, q)


def test_log_exposure_interval_has_the_bits_of_numpy_log():
    # the grid and stage 2 both take exposure_interval's floats, and every
    # recorded artifact has np.log's bits: math.log differs in the last
    # place on a few p in a thousand
    ps = np.random.default_rng(3).random(20_000)
    got = [LG.exposure_interval(p)[0] for p in ps.tolist()]
    assert got == np.log((1.0 - ps) / ps).tolist()


def test_special_ps():
    assert SQ.special_ps() == []
    assert LG.special_ps() == []
    assert AB.special_ps() == [0.5]
    specials = POLY.special_ps()
    assert len(specials) == 3
    # at a special p both segment endpoints achieve the same expected loss
    for p, (v0, v1) in zip(specials, zip(POLY.boundary, POLY.boundary[1:])):
        s0 = (1 - p) * v0[0] + p * v0[1]
        s1 = (1 - p) * v1[0] + p * v1[1]
        assert s0 == pytest.approx(s1, abs=1e-12)


# -- inverse exposure -----------------------------------------------------

def test_decision_from_exposure_values():
    assert SQ.decision_from_exposure(0.0) == 0.5
    assert LG.decision_from_exposure(0.0) == 0.5
    assert LG.decision_from_exposure(math.log(3)) == pytest.approx(
        0.25, abs=1e-12)


@pytest.mark.parametrize("game", [
    Game.custom([(0.0, 1.0), (0.2, 0.5), (0.5, 0.2), (1.0, 0.0)]), AB, SQ],
    ids=["polyline", "absolute", "square"])
def test_decision_from_exposure_clamps_near_the_ends(game):
    # an exposure up to 1e-12 past an end is that end's decision (not the
    # far vertex); further out it is rejected
    t_max = float(len(game.boundary) - 1) if game.boundary else 1.0
    top = reference.exposure(game, 0.0)
    bottom = reference.exposure(game, t_max)
    for e, t in ((top + 5e-13, 0.0), (top, 0.0),
                 (bottom, t_max), (bottom - 5e-13, t_max)):
        assert game.decision_from_exposure(e) == t
    for e in (top + 2e-12, bottom - 2e-12):
        with pytest.raises(DomainError):
            game.decision_from_exposure(e)


def test_decision_from_exposure_rejects_out_of_range():
    with pytest.raises(DomainError):
        SQ.decision_from_exposure(1.5)
    with pytest.raises(DomainError):
        POLY.decision_from_exposure(5.0)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_inverse_exposure_round_trip_square(g):
    e = reference.exposure(SQ, g)
    assert SQ.decision_from_exposure(e) == pytest.approx(g, abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_inverse_exposure_round_trip_log(g):
    e = reference.exposure(LG, g)
    assert LG.decision_from_exposure(e) == pytest.approx(g, abs=1e-12)


def test_inverse_exposure_round_trip_custom():
    for t in np.linspace(0.0, 3.0, 61):
        e = reference.exposure(POLY, float(t))
        back = POLY.decision_from_exposure(e)
        # boundary param may differ, but the loss pair must match
        assert reference.exposure(POLY, back) == pytest.approx(e, abs=1e-9)


def test_decision_from_exposure_log_extreme_values_stay_in_domain():
    for e in (1e6, -1e6, 800.0, -800.0):
        g = LG.decision_from_exposure(e)
        assert 0.0 < g < 1.0
        assert math.isfinite(LG.loss(1, g))


# -- game constant --------------------------------------------------------

CF_SOBOLEV = 1.0 / math.sqrt(2.0)


def test_clambda_closed_forms():
    assert SQ.clambda(CF_SOBOLEV) == 0.375
    assert AB.clambda(CF_SOBOLEV) == pytest.approx(
        math.sqrt(6) / 4, abs=1e-12)
    assert SQ.clambda(2.0) == 1.0  # c_f/2 branch once c_f >= 1


def test_clambda_log_in_reference_window():
    v = LG.clambda(CF_SOBOLEV)
    assert 0.688 <= v <= 0.698
    assert v == pytest.approx(0.693, abs=0.005)


def test_clambda_numeric_reproduces_closed_forms():
    assert SQ.clambda_numeric(CF_SOBOLEV) == pytest.approx(0.375, abs=1e-3)
    assert AB.clambda_numeric(CF_SOBOLEV) == pytest.approx(
        math.sqrt(6) / 4, abs=1e-3)
    assert LG.clambda_numeric(CF_SOBOLEV) == pytest.approx(
        LG.clambda(CF_SOBOLEV), abs=1e-9)


def test_clambda_rejects_bad_cf():
    with pytest.raises(DomainError):
        SQ.clambda(-1.0)
    with pytest.raises(DomainError):
        SQ.clambda(math.inf)


def polyline_sup(boundary, c_f):
    """max of p(1-p)(e^2 + c_f^2) over p = 1/2 and every kink of the
    boundary, with the larger e^2 of the two vertices at a kink."""
    exps = [b - a for a, b in boundary]
    cands = []
    for i, ((a0, b0), (a1, b1)) in enumerate(zip(boundary, boundary[1:])):
        p = 1.0 / (1.0 - (b1 - b0) / (a1 - a0))
        e2 = max(exps[i] * exps[i], exps[i + 1] * exps[i + 1])
        cands.append(p * (1.0 - p) * (e2 + c_f * c_f))
    half = min(range(len(boundary)), key=lambda i: sum(boundary[i]))
    cands.append(0.25 * (exps[half] * exps[half] + c_f * c_f))
    return math.sqrt(max(cands))


def grid_sup(game, c_f, ps):
    """sqrt of the max of p(1-p)(e^2 + c_f^2) over the grid ps."""
    hi, lo = game.exposure_interval_arrays(ps)
    e2 = np.maximum(hi * hi, lo * lo)
    return math.sqrt(float(np.max(ps * (1.0 - ps) * (e2 + c_f * c_f))))


@pytest.mark.parametrize("c_f", [CF_SOBOLEV, 1.0, 2.0])
def test_polyline_clambda_is_the_closed_form_max(c_f):
    bench = Game.custom([(0.0, 1.0), (0.2, 0.5), (0.5, 0.2), (1.0, 0.0)])
    ps = np.linspace(0.0, 1.0, 100_001)
    for game in (POLY, bench, Game.custom([(0.0, 1.0), (1.0, 0.0)]),
                 Game.custom([(0.2, 0.7)])):
        v = game.clambda(c_f)
        assert v == polyline_sup(game.boundary, c_f)
        assert v >= grid_sup(game, c_f, ps)
    # absolute loss keeps the bits of its old closed form
    assert AB.clambda(c_f) == 0.5 * math.sqrt(1.0 + c_f * c_f)
    # the kink at p = 2/7 holds the sup, which a bounded search on a grid
    # bracket understated as 0.55328333264
    if c_f == CF_SOBOLEV:
        assert bench.clambda(c_f) == pytest.approx(
            math.sqrt(2 / 7 * 5 / 7 * 1.5), rel=1e-15)


@pytest.mark.parametrize("c_f", [CF_SOBOLEV, 1.0, 2.0, 0.1])
def test_log_clambda_bounds_a_dense_grid(c_f):
    grid = grid_sup(LG, c_f, np.linspace(0.0, 1.0, 1_000_001)[1:-1])
    v = LG.clambda(c_f)
    assert grid <= v <= grid * (1.0 + 1e-9)


def test_importing_experiments_leaves_scipy_unloaded():
    code = ("import sys, defcast.experiments, defcast.cli; "
            "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(defcast.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


# -- custom boundaries and serialization ----------------------------------

def test_custom_boundary_validation():
    with pytest.raises(DomainError):
        Game.custom([])
    with pytest.raises(DomainError):
        Game.custom([(0.0, 1.0), (0.0, 0.5)])  # loss0 not increasing
    with pytest.raises(DomainError):
        Game.custom([(0.0, 1.0), (0.5, 1.2)])  # loss1 not decreasing
    with pytest.raises(DomainError):
        # slopes -3 then -1/3 then -3 again: convexity broken at the end
        Game.custom([(0.0, 1.0), (0.1, 0.7), (0.7, 0.5), (0.8, 0.2)])


@pytest.mark.parametrize("boundary", [
    "0110", ["01", "10"], [["0", "1"], [1, 0]], [[0, True], [1, 0]]],
    ids=["string", "string-points", "string-losses", "bool-loss"])
def test_custom_boundary_takes_no_strings(boundary):
    # each would iterate or float() into the absolute-loss polyline
    with pytest.raises(TypeError, match="boundary"):
        Game.custom(boundary)


@pytest.mark.parametrize("boundary", [[[0, 1, 2]], [[0, 1], [1]]])
def test_custom_boundary_points_are_pairs(boundary):
    with pytest.raises(DomainError, match="pairs"):
        Game.custom(boundary)


def test_single_point_boundary():
    g = Game.custom([(0.2, 0.7)])
    assert g.loss(0, 0.0) == 0.2
    assert g.loss(1, 0.0) == 0.7
    assert reference.exposure(g, 0.0) == pytest.approx(0.5, abs=1e-12)
    d = g.canonical_choice(Forecast(0.3, 0.5))
    assert (d.loss0, d.loss1) == (0.2, 0.7)
    # its one exposure inverts to its one decision, t = 0
    assert g.decision_from_exposure(reference.exposure(g, 0.0)) == 0.0
    assert g.decision_from_exposure(reference.exposure(g, 0.0) + 1e-13) == 0.0
    with pytest.raises(DomainError):
        g.decision_from_exposure(0.0)


def test_from_name_and_from_json():
    assert Game.from_json("square").kind.value == "square"
    assert Game.from_json("log").kind.value == "log"
    assert Game.from_json('{"kind": "absolute"}') == Game.absolute()
    doc = {"kind": "custom", "boundary": [[0.0, 1.0], [1.0, 0.0]]}
    g = Game.from_json(json.dumps(doc))
    assert g.boundary == ((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(DomainError):
        Game.from_json("huber")
    with pytest.raises(DomainError, match="boundary"):
        Game.from_json("custom")  # needs an explicit boundary


def test_domain_tags():
    assert not SQ.stripped
    assert not AB.stripped
    assert LG.stripped
    with pytest.raises(DomainError, match=r"outside \(0, 1\)"):
        LG.check_forecast(Forecast(0.0, 0.5))
    with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
        SQ.check_forecast(Forecast(1.5, 0.5))
