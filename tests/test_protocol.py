"""The online decision loop, comparators, and regret reports."""

import math
import warnings

import numpy as np
import pytest

from defcast.forecaster import _INITIAL_CAPACITY, Branch
from defcast.games import DomainError, Forecast, Game
from defcast.kernels import Kernel, KernelExpansion
from defcast.protocol import Comparator, ComparatorError, Engine, UsageError

SOB = Kernel.sobolev()

ZERO = Comparator.build(KernelExpansion.zero(SOB))


def run_engine_random(game, n_rounds, seed, kernel=SOB):
    rng = np.random.default_rng(seed)
    engine = Engine(game, kernel)
    for _ in range(n_rounds):
        engine.decide(float(rng.uniform(-1, 1)))
        engine.observe(int(rng.integers(0, 2)))
    return engine


# -- decide / observe -----------------------------------------------------

@pytest.mark.parametrize("game_name", ["square", "absolute", "log"])
def test_first_decision_is_one_half(game_name):
    engine = Engine(Game.from_json(game_name), SOB)
    assert engine.decide(0.0) == pytest.approx(0.5, abs=1e-9)


def test_observe_accumulates_loss():
    for game_name, y, inc in (("square", 1, 0.25),
                              ("absolute", 0, 0.5),
                              ("log", 1, math.log(2)),
                              ("log", 0, math.log(2))):
        engine = Engine(Game.from_json(game_name), SOB)
        engine.decide(0.0)
        engine.observe(y)
        assert engine.cumulative_loss == pytest.approx(inc, abs=1e-9)


def test_protocol_order_enforced():
    engine = Engine(Game.square(), SOB)
    with pytest.raises(UsageError):
        engine.observe(1)
    engine.decide(0.0)
    with pytest.raises(UsageError):
        engine.decide(0.5)
    engine.observe(1)
    assert engine.rounds == 1
    assert engine.pending_forecast is None


def test_rejected_observation_leaves_engine_unchanged():
    engine = Engine(Game.square(), SOB)
    engine.decide(0.0)
    pending = engine.pending_forecast
    with pytest.raises(DomainError):
        engine.observe(2)
    assert engine.cumulative_loss == 0.0
    assert engine.rounds == 0 and engine.forecaster.round == 0
    assert engine.pending_forecast == pending
    engine.observe(1)
    assert engine.cumulative_loss == 0.25
    assert engine.rounds == 1


@pytest.mark.parametrize("game_name", ["square", "log"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf,
                               np.float64("nan")])
def test_non_finite_datum_rejected_before_any_state_change(game_name, x):
    engine = Engine(Game.from_json(game_name), SOB)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            engine.decide(x)
    assert engine.pending_forecast is None
    assert engine.forecaster.round == 0
    assert engine.decide(0.0) == pytest.approx(0.5, abs=1e-9)


def test_opaque_points_still_accepted_by_custom_kernels():
    kernel = Kernel.custom(lambda a, b: 1.0 if a == b else 0.0,
                           data_range=1.0)
    engine = Engine(Game.square(), kernel)
    for x, y in (("red", 1), (("a", 2), 0), ("red", 1)):
        engine.decide(x)
        engine.observe(y)
    assert engine.rounds == 3


def test_round_log_reads_back_opaque_points_past_a_doubling():
    # strings and tuples as points; K is a Laplace kernel of their index
    names = ["red", ("a", 2), "blue", ("b", (1, 2)), ("c",)]
    index = {name: i for i, name in enumerate(names)}
    kernel = Kernel.custom(
        lambda a, b: 0.5 * math.exp(-abs(index[a] - index[b]) / 4.0),
        data_range=1.0)
    engine = Engine(Game.square(), kernel)
    rng = np.random.default_rng(73)
    points = [names[n % len(names)] for n in range(_INITIAL_CAPACITY + 10)]
    for x in points:
        engine.decide(x)
        engine.observe(int(rng.integers(0, 2)))
    xs = [r.x for r in engine.round_log]
    assert xs == points
    assert all(type(a) is type(b) for a, b in zip(xs, points))
    assert engine.round_log[-1].x == points[-1]


def test_round_log_is_a_view_of_plain_records():
    engine = run_engine_random(Game.log(), 5, seed=23)
    log = engine.round_log
    recs = list(log)
    assert len(log) == engine.rounds == 5
    assert [r.n for r in recs] == [1, 2, 3, 4, 5]
    assert log[0] == recs[0] and log[-1] == recs[-1]
    assert log[1:3] == recs[1:3]
    for r in recs:
        for v in (r.x, r.p, r.q, r.gamma, r.loss, r.s_residual):
            assert type(v) is float
        assert type(r.y) is int and isinstance(r.branch, Branch)
    assert sum(r.loss for r in recs) == engine.cumulative_loss
    with pytest.raises(IndexError):
        log[5]
    assert not hasattr(log, "append")
    engine.decide(0.1)
    engine.observe(1)
    assert len(log) == 6 and log[-1].x == 0.1


# -- comparators ----------------------------------------------------------

def test_zero_comparator_losses():
    n = 16
    sq = run_engine_random(Game.square(), n, seed=3)
    assert sq.comparator_loss(ZERO) == pytest.approx(n / 4, abs=1e-9)
    lg = run_engine_random(Game.log(), n, seed=3)
    assert lg.comparator_loss(ZERO) == pytest.approx(n * math.log(2),
                                                     abs=1e-9)


def test_informed_comparator_beats_constant_on_deterministic_data():
    # y = 1{x > 0}; an expansion whose exposure is negative for x > 0 and
    # positive for x < 0 replays to decisions near 1{x > 0}
    rng = np.random.default_rng(4)
    engine = Engine(Game.square(), SOB)
    for _ in range(200):
        x = float(rng.uniform(-1, 1))
        engine.decide(x)
        engine.observe(int(x > 0))
    f = KernelExpansion.build([-0.5, 0.5], [0.9, -0.9], SOB)
    vals = [abs(float(f(r.x))) for r in engine.round_log]
    assert max(vals) <= 1.0  # admissible for the square game
    informed = Comparator.build(f)
    assert engine.comparator_loss(informed) < engine.comparator_loss(ZERO)


def test_out_of_range_comparator_rejected():
    engine = run_engine_random(Game.square(), 10, seed=5)
    too_big = Comparator.build(
        KernelExpansion.build([0.0], [4.0], SOB))  # exposure up to 2
    with pytest.raises(ComparatorError):
        engine.comparator_loss(too_big)
    # the same rule for polylines, absolute loss included
    for game in (Game.absolute(), Game.custom([(0.0, 0.8), (0.5, 0.0)])):
        with pytest.raises(ComparatorError):
            run_engine_random(game, 10, seed=5).comparator_loss(too_big)
    # same expansion is fine for the log game: exposure is unrestricted
    engine_log = run_engine_random(Game.log(), 10, seed=5)
    engine_log.comparator_loss(too_big)


def test_comparator_exposures_refresh_after_each_round():
    engine = run_engine_random(Game.square(), 20, seed=21)
    c = Comparator.build(KernelExpansion.build([0.3], [0.7], SOB))
    before = engine.comparator_round_losses(c)
    assert engine.comparator_round_losses(c) == before  # cached, same values
    engine.decide(0.25)
    engine.observe(1)
    after = engine.comparator_round_losses(c)
    fresh = Engine(Game.square(), SOB)
    for r in engine.round_log:
        fresh.forecaster.update(r.x, Forecast(r.p, r.q), r.y)
    assert len(after) == 21 and after[:20] == before
    assert after == fresh.comparator_round_losses(c)


def test_canonical_choice_runs_once_per_round(monkeypatch):
    calls = []
    choice = Game.canonical_choice

    def counted(self, f):
        calls.append(f)
        return choice(self, f)

    monkeypatch.setattr(Game, "canonical_choice", counted)
    engine = run_engine_random(Game.log(), 25, seed=23)
    assert len(calls) == 25
    monkeypatch.undo()
    # the forecaster stores what it would have computed itself
    replay = Engine(Game.log(), SOB)
    for r in engine.round_log:
        replay.forecaster.update(r.x, Forecast(r.p, r.q), r.y,
                                 s_residual=r.s_residual, branch=r.branch)
    assert replay.round_log_rows() == engine.round_log_rows()
    assert replay.cumulative_loss == engine.cumulative_loss


# -- regret bound ---------------------------------------------------------

def test_regret_bound_values():
    sq = run_engine_random(Game.square(), 64, seed=7)
    assert sq.regret_bound(ZERO) == pytest.approx(3.0, abs=1e-9)
    ab = run_engine_random(Game.absolute(), 16, seed=7)
    assert ab.regret_bound(ZERO) == pytest.approx(math.sqrt(6), abs=1e-9)


def test_regret_bound_zero_rounds():
    engine = Engine(Game.square(), SOB)
    assert engine.regret_bound(ZERO) == 0.0


# -- regret report --------------------------------------------------------

def test_report_without_comparators():
    engine = run_engine_random(Game.square(), 30, seed=9)
    report = engine.regret_report([])
    assert report["comparators"] == []
    assert report["large_numbers_certificate"]["pass"]
    assert report["rounds"] == 30


def test_report_zero_comparator_passes():
    for game_name in ("square", "absolute", "log"):
        engine = run_engine_random(Game.from_json(game_name), 60, seed=11)
        report = engine.regret_report([ZERO])
        row = report["comparators"][0]
        assert row["pass"]
        assert row["resolution"]["pass"]
        assert row["own_loss"] == pytest.approx(engine.cumulative_loss)


def test_duplicate_comparators_identical_rows():
    engine = run_engine_random(Game.square(), 40, seed=13)
    c = Comparator.build(KernelExpansion.build([0.2, -0.4], [0.5, -0.3], SOB))
    report = engine.regret_report([c, c])
    assert report["comparators"][0] == report["comparators"][1]


def test_regret_inequality_random_comparators():
    rng = np.random.default_rng(15)
    for game_name in ("square", "absolute", "log"):
        engine = run_engine_random(Game.from_json(game_name), 100, seed=17)
        for _ in range(4):
            m = int(rng.integers(1, 6))
            f = KernelExpansion.build(rng.uniform(-1, 1, m),
                                      rng.normal(size=m), SOB)
            scale = f.norm()
            if scale > 1.0:  # keep exposures admissible for [0,1] games
                f = KernelExpansion.build(f.centers,
                                          np.asarray(f.weights) / scale, SOB)
            c = Comparator.build(f)
            row = engine.regret_report([c])["comparators"][0]
            assert row["pass"], row


def in_round_order(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def test_curve_and_report_rows_read_one_record():
    engine = run_engine_random(Game.square(), 64, seed=31)
    comparators = [ZERO, Comparator.build(
        KernelExpansion.build([-0.5, 0.5], [0.6, -0.6], SOB))]
    report = engine.regret_report(comparators)
    curve = engine.regret_curve(comparators)
    assert [pt["n"] for pt in curve] == [1, 2, 4, 8, 16, 32, 64]
    last = curve[-1]
    for row, point_row in zip(report["comparators"], last["comparators"]):
        assert row["own_loss"] == last["own_loss"]
        for key in ("comparator_loss", "bound", "slack", "pass"):
            assert row[key] == point_row[key], key
    fc = engine.forecaster
    assert engine.cumulative_loss == in_round_order(
        fc.column("loss").tolist())
    assert fc.residual_total == in_round_order(
        abs(r) for r in fc.column("s_residual").tolist())
    for c in comparators:
        assert engine.comparator_loss(c) == in_round_order(
            engine.comparator_round_losses(c))


# -- per-round identities -------------------------------------------------

def test_exposure_identity_per_round():
    # loss(y, gamma) - expected_loss(p, gamma) = (y - p) * exposure(gamma)
    for game_name in ("square", "absolute", "log"):
        game = Game.from_json(game_name)
        engine = run_engine_random(game, 50, seed=19)
        for r in engine.round_log:
            lhs = game.loss(r.y, r.gamma) - game.expected_loss(r.p, r.gamma)
            rhs = (r.y - r.p) * game.exposure(r.gamma)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_stored_loss_and_gamma_match_the_game():
    poly = Game.custom([(0.0, 1.0), (0.2, 0.55), (0.55, 0.2), (1.0, 0.0)])
    for game in (Game.square(), Game.absolute(), Game.log(), poly):
        rng = np.random.default_rng(29)
        engine = Engine(game, SOB)
        cumulative = 0.0
        for _ in range(60):
            gamma = engine.decide(float(rng.uniform(-1, 1)))
            y = int(rng.integers(0, 2))
            engine.observe(y)
            rec = engine.round_log[-1]
            assert rec.gamma == gamma
            assert rec.loss == game.loss(y, gamma)
            cumulative += game.loss(y, gamma)
        assert engine.cumulative_loss == cumulative


# -- CSV export -----------------------------------------------------------

def test_round_log_rows_format():
    engine = run_engine_random(Game.square(), 3, seed=21)
    rows = engine.round_log_rows()
    assert rows[0] == "n,x,p,q,gamma,y,loss,s_residual,branch"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == engine.round_log[0].p
    assert first[8] in ("root", "endpoint_positive", "endpoint_negative")
    # repr round-trips exactly; a numpy scalar's repr would not
    for row in rows[1:]:
        fields = row.split(",")
        assert not any("np." in f for f in fields)
        for i in (1, 2, 3, 4, 6, 7):  # x, p, q, gamma, loss, s_residual
            assert repr(float(fields[i])) == fields[i]
