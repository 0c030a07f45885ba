"""The program names the benchmark calls, guarded in the test suite.

perfbench/check_smoke.py runs the benchmark end to end, but only when run
on its own; this guard fails the suite if a name it calls, or a field of a
round record it reads, goes away.
"""

import json

import numpy as np

from defcast import cli, experiments
from defcast.forecaster import Forecaster
from defcast.games import Forecast, Game
from defcast.kernels import Kernel
from defcast.protocol import Engine

METHODS = {
    Forecaster: ("s_value", "coefficients", "k29_certificate"),
    Engine: ("comparator_round_losses", "round_log_rows"),
    Game: ("exposure_interval_arrays", "exposure_interval"),
}
FUNCTIONS = {experiments: ("run", "run_engine", "certify_log"),
             experiments.ExperimentConfig: ("from_json",),
             cli: ("cmd_certify", "main")}


def test_the_benchmark_names_are_callable():
    for owner, names in (*METHODS.items(), *FUNCTIONS.items()):
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)


def test_the_engine_has_the_fields_the_benchmark_reads():
    engine = Engine(Game.square(), Kernel.sobolev())
    assert engine.pending_forecast is None
    rng = np.random.default_rng(3)
    for n in range(3):
        assert engine.rounds == n
        x = float(rng.uniform(-1, 1))
        engine.decide(x)
        f = engine.pending_forecast
        assert isinstance(f, Forecast)
        assert isinstance(engine.forecaster.s_value(f.p, f.q, x), float)
        engine.observe(int(rng.integers(0, 2)))
    rec = engine.round_log[-1]  # the s_value check reads both fields
    assert rec.branch.value in ("root", "endpoint_positive",
                                "endpoint_negative")
    assert isinstance(rec.s_residual, float)
    assert len(engine.round_log) == 3


def test_a_run_has_the_fields_the_benchmark_reads(tmp_path, capsys):
    # the benchmark's config shape, with one comparator; its checks read
    # these report keys, and certify must print the run's certificate
    config = experiments.ExperimentConfig.from_json({
        "game": "square", "kernel": {"kind": "sobolev"},
        "generator": {"kind": "iid_logistic"}, "horizon": 5, "seed": 1,
        "comparators": [{"centers": [0.5], "weights": [0.4]}]})
    assert config.horizon == 5
    assert isinstance(config.game, Game) and isinstance(config.kernel, Kernel)
    artifacts = experiments.run(config, tmp_path)
    report = artifacts.report
    assert json.loads(artifacts.regret_report_path.read_text()) == report
    cert = report["large_numbers_certificate"]
    assert {"lhs", "rhs", "slack", "pass"} <= cert.keys()
    row, = report["comparators"]
    assert {"pass", "own_loss", "comparator_loss", "bound", "slack",
            "resolution"} <= row.keys()
    assert {"lhs", "bound", "slack", "pass"} <= row["resolution"].keys()
    assert report["regret_curve"]
    for point in report["regret_curve"]:
        assert "own_loss" in point
        row, = point["comparators"]
        assert {"pass", "comparator_loss", "bound", "slack"} <= row.keys()
    capsys.readouterr()
    assert cli.main(["certify", "--log", str(artifacts.round_log_path),
                     "--game", "square", "--kernel", "sobolev"]) == 0
    got = json.loads(capsys.readouterr().out)["large_numbers_certificate"]
    assert all(got[k] == cert[k] for k in ("lhs", "rhs", "slack"))
