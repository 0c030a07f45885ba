"""The program names the benchmark calls, guarded in the test suite.

perfbench/check_smoke.py runs the benchmark end to end, but only when run
on its own; this guard fails the suite if a name it calls, or a field of a
round record it reads, goes away.
"""

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
    Kernel: ("gram",),
}
FUNCTIONS = {experiments: ("run", "run_engine", "certify_log"),
             cli: ("cmd_certify",)}


def test_the_benchmark_names_are_callable():
    for owner, names in (*METHODS.items(), *FUNCTIONS.items()):
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)


def test_the_engine_has_the_fields_the_benchmark_reads():
    engine = Engine(Game.square(), Kernel.sobolev())
    assert engine.pending_forecast is None
    rng = np.random.default_rng(3)
    for _ in range(3):
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
