"""Acceptance suite: one test per criterion, printing a pass/fail line each.

The battery shared by the certificate criteria runs the three built-in
games against four data sources (logistic iid, noisy threshold,
adversarial, and a frozen replay fixture) for 1000 rounds each with three
benchmark rules per run.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from defcast.cli import main
from defcast.experiments import (AdversarialAntiForecast, Deterministic,
                                 ExperimentConfig, IidLogistic, Replay, run)
from defcast.games import Game
from defcast.kernels import Kernel, KernelExpansion
from defcast.protocol import Engine
from oracle import oracle_forecast
import reference

SOB = Kernel.sobolev()
FIXTURE = Path(__file__).parent / "fixtures" / "replay_fixture.csv"
HORIZON = 1000
CENTERS = [-1.0, -0.5, 0.0, 0.5, 1.0]


def report_line(criterion, name, ok):
    print(f"criterion {criterion} ({name}): {'PASS' if ok else 'FAIL'}")


# -- battery construction -------------------------------------------------

def matched_targets(gen_name):
    """Exposure values at CENTERS of a rule aligned with the generator."""
    if gen_name == "iid_logistic":
        return [1.0 - 2.0 / (1.0 + math.exp(-2.0 * z)) for z in CENTERS]
    if gen_name in ("deterministic", "replay"):
        # ideal rule 1{x > 0}: exposure -1 right of the threshold, +1 left
        return [0.9 if z < 0 else (-0.9 if z > 0 else 0.0) for z in CENTERS]
    return [0.2] * len(CENTERS)  # adversarial data: any fixed rule


def fit_expansion(targets):
    """Interpolate targets at CENTERS, scaled so sup |f| stays below 1."""
    g = reference.gram(SOB, CENTERS)
    alpha = np.linalg.solve(g, np.asarray(targets, dtype=float))
    f = KernelExpansion.build(CENTERS, alpha, SOB)
    sup = float(np.max(np.abs(f(np.linspace(-1, 1, 2001)))))
    if sup > 0.999:
        alpha = alpha * (0.999 / sup)
        f = KernelExpansion.build(CENTERS, alpha, SOB)
    return f


def random_unit_expansion(rng):
    f = KernelExpansion.build(rng.uniform(-1, 1, 5), rng.normal(size=5), SOB)
    n = f.norm()
    if n > 1.0:
        f = KernelExpansion.build(f.centers, np.asarray(f.weights) / n, SOB)
    # norm <= 1 implies sup |f| <= c_f < 1: admissible for every game
    return f


def generators():
    return [
        ("iid_logistic", IidLogistic([0.0, 2.0])),
        ("deterministic", Deterministic(threshold=0.0, noise_rate=0.1)),
        ("adversarial", AdversarialAntiForecast()),
        ("replay", Replay(FIXTURE)),
    ]


@pytest.fixture(scope="module")
def battery():
    rng = np.random.default_rng(20240817)
    runs = []
    for game_name in ("square", "absolute", "log"):
        for gen_name, gen in generators():
            start = time.perf_counter()
            engine = Engine(Game.from_json(game_name), SOB)
            for n in range(1, HORIZON + 1):
                x = gen.datum(77, n)
                engine.decide(x)
                y = gen.outcome(77, n, x, engine.pending_forecast.p)
                engine.observe(y)
            comparators = [
                KernelExpansion((), (), SOB),
                random_unit_expansion(rng),
                fit_expansion(matched_targets(gen_name)),
            ]
            report = engine.regret_report(comparators)
            elapsed = time.perf_counter() - start
            runs.append((game_name, gen_name, report, elapsed))
    return runs


# -- criteria -------------------------------------------------------------

def test_criterion_1_constants_reproduction(capsys):
    values = {}
    start = time.perf_counter()
    for game in ("square", "absolute", "log"):
        assert main(["constants", "--game", game, "--kernel", "sobolev"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values[game] = {k: float(v)
                        for k, v in (line.split(" = ") for line in out)}
    elapsed = time.perf_counter() - start
    ok = (abs(values["square"]["C_F"] - 0.7071068) <= 1e-6
          and values["square"]["C_lambda_F"] == 0.375
          and abs(values["absolute"]["C_lambda_F"] - 0.6123724) <= 1e-6
          and 0.688 <= values["log"]["C_lambda_F"] <= 0.698
          and elapsed < 1.0)
    report_line(1, "constants reproduction", ok)
    assert ok, (values, elapsed)


def test_criterion_2_large_numbers_certificate(battery):
    ok = True
    for game_name, gen_name, report, elapsed in battery:
        cert = report["large_numbers_certificate"]
        run_ok = cert["pass"] and elapsed < 5.0
        ok = ok and run_ok
        assert run_ok, (game_name, gen_name, cert, elapsed)
    assert len(battery) == 12
    report_line(2, "large-number certificate on 12-run battery", ok)
    assert ok


def test_criterion_3_regret_inequality(battery):
    ok = True
    for game_name, gen_name, report, _ in battery:
        assert len(report["comparators"]) == 3
        for row in report["comparators"]:
            ok = ok and row["pass"]
            assert row["pass"], (game_name, gen_name, row)
    report_line(3, "regret bound for three comparators per run", ok)
    assert ok


def test_criterion_4_resolution(battery):
    ok = True
    for game_name, gen_name, report, _ in battery:
        for row in report["comparators"]:
            res = row["resolution"]
            ok = ok and res["pass"]
            assert res["pass"], (game_name, gen_name, res)
    report_line(4, "resolution certificate", ok)
    assert ok


def test_criterion_5_root_finder_oracle_equivalence():
    from defcast.forecaster import Forecaster

    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    worst = 0.0
    for game_name in ("square", "absolute", "log"):
        game = Game.from_json(game_name)
        for _ in range(50):
            fc = Forecaster(game, SOB)
            history = []
            for _ in range(int(rng.integers(1, 51))):
                x = float(rng.uniform(-1, 1))
                rep = fc.next_forecast(x)
                p_oracle, _ = oracle_forecast(game, SOB, history, x,
                                              grid_n=1_000_000)
                worst = max(worst, abs(rep.forecast.p - p_oracle))
                y = int(rng.integers(0, 2))
                fc.update(x, rep.forecast, y, s_residual=rep.s_residual,
                          branch=rep.branch)
                history.append((x, rep.forecast.p, rep.forecast.q, y,
                                float(fc.column("e")[-1])))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report_line(5, "root finder matches brute-force oracle", ok)
    assert ok, (worst, elapsed)


def test_criterion_6_worked_traces():
    from defcast.forecaster import Forecaster

    fc = Forecaster(Game.square(), SOB)
    rep1 = fc.next_forecast(0.0)
    fc.update(0.0, rep1.forecast, 1, s_residual=rep1.s_residual)
    rep2 = fc.next_forecast(0.0)
    p2 = rep2.forecast.p
    e2 = 1.0 - 2.0 * p2
    p2_oracle, _ = oracle_forecast(Game.square(), SOB,
                                   [(0.0, 0.5, 0.5, 1, 0.0)], 0.0,
                                   grid_n=1_000_000)
    ab = Forecaster(Game.absolute(), SOB).next_forecast(0.0)
    ok = (rep1.forecast.p == 0.5
          and abs(p2 - 0.7949) < 1e-3
          and abs(p2 - p2_oracle) <= 1e-6
          and abs(2 * e2 ** 3 + e2 + 1) < 1e-8
          and (ab.forecast.p, ab.forecast.q) == (0.5, 0.5))
    report_line(6, "worked trace fixtures", ok)
    assert ok, (rep1, p2, ab)


def test_criterion_7_determinism(tmp_path):
    doc = {
        "game": "log",
        "kernel": {"kind": "sobolev"},
        "generator": {"kind": "iid_logistic", "weights": [0.5, 1.5]},
        "horizon": 100,
        "seed": 31337,
        "comparators": [{"centers": [0.0, 0.5], "weights": [0.4, -0.4]}],
    }
    config = ExperimentConfig.from_json(doc)
    a = run(config, tmp_path / "a")
    b = run(config, tmp_path / "b")
    ok = (a.round_log_path.read_bytes() == b.round_log_path.read_bytes()
          and a.regret_report_path.read_bytes()
          == b.regret_report_path.read_bytes())
    report_line(7, "byte-identical artifacts", ok)
    assert ok
