"""Experiment configs, data generators, artifacts, and log certification."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import defcast
from defcast.cli import main
from defcast.experiments import (AdversarialAntiForecast, ConfigError,
                                 Deterministic, ExperimentConfig, IidLogistic,
                                 Replay, certify_log, generator_from_json,
                                 read_round_log, round_rng, run, run_engine)
from defcast.games import Game
from defcast.kernels import Kernel, KernelError, KernelExpansion

FIXTURE = Path(__file__).parent / "fixtures" / "replay_fixture.csv"


def config_doc(**overrides):
    doc = {
        "game": "square",
        "kernel": {"kind": "sobolev"},
        "generator": {"kind": "deterministic", "threshold": 0.0,
                      "noise_rate": 0.1},
        "horizon": 40,
        "seed": 12345,
        "comparators": [{"centers": [0.0], "weights": [0.5]}],
    }
    doc.update(overrides)
    return doc


# -- rng ------------------------------------------------------------------

def test_round_rng_deterministic_and_stream_split():
    a = round_rng(7, 3, 0).random(4)
    b = round_rng(7, 3, 0).random(4)
    assert (a == b).all()
    c = round_rng(7, 3, 1).random(4)
    assert (a != c).any()
    d = round_rng(7, 4, 0).random(4)
    assert (a != d).any()


# -- generators -----------------------------------------------------------

def test_deterministic_generator():
    gen = Deterministic(threshold=0.0, noise_rate=0.0)
    assert gen.outcome(0, 1, 0.5, 0.5) == 1
    assert gen.outcome(0, 1, -0.5, 0.5) == 0
    with pytest.raises(ConfigError):
        Deterministic(noise_rate=0.6)


def test_iid_logistic_probability_underflows_to_zero():
    # z = -800: exp(800) overflows a float, and the probability is below
    # 6e-309, so every outcome is 0
    gen = IidLogistic([-800.0])
    assert [gen.outcome(7, n, 0.5, 0.5) for n in range(1, 20)] == [0] * 19


def test_adversarial_generator():
    gen = AdversarialAntiForecast()
    assert gen.outcome(0, 1, 0.0, 0.3) == 1
    assert gen.outcome(0, 1, 0.0, 0.5) == 1
    assert gen.outcome(0, 1, 0.0, 0.7) == 0


def test_same_seed_same_sequence():
    gen = IidLogistic([0.0, 2.0])
    xs1 = [gen.datum(99, n) for n in range(1, 20)]
    xs2 = [gen.datum(99, n) for n in range(1, 20)]
    assert xs1 == xs2
    ys1 = [gen.outcome(99, n, x, 0.5) for n, x in enumerate(xs1, 1)]
    ys2 = [gen.outcome(99, n, x, 0.5) for n, x in enumerate(xs2, 1)]
    assert ys1 == ys2


def test_generator_from_json():
    assert isinstance(generator_from_json({"kind": "adversarial"}),
                      AdversarialAntiForecast)
    gen = generator_from_json({"kind": "iid_logistic", "weights": [1.0]})
    assert gen.weights == (1.0,)
    with pytest.raises(ConfigError):
        generator_from_json({"kind": "markov"})
    # a name, bare or a JSON string, as for games and kernels
    assert isinstance(generator_from_json('"adversarial"'),
                      AdversarialAntiForecast)
    with pytest.raises(ConfigError, match="path"):
        generator_from_json("replay")


@pytest.mark.parametrize("weights", ["12", ["1", "2"], [1.0, None]])
def test_generator_weights_are_numbers(weights):
    # "12" would iterate, and float() convert, into weights (1.0, 2.0)
    with pytest.raises(TypeError, match="weights"):
        generator_from_json({"kind": "iid_logistic", "weights": weights})


# -- replay ---------------------------------------------------------------

def test_replay_plain_pairs(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("0.5,1\n-0.25,0\n")
    gen = Replay(path)
    assert gen.datum(0, 1) == 0.5
    assert gen.outcome(0, 1, 0.5, 0.5) == 1
    assert gen.datum(0, 2) == -0.25
    with pytest.raises(ConfigError):
        gen.datum(0, 3)  # exhausted


def test_replay_round_log_format(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                    "1,0.5,0.5,0.5,0.5,1,0.25,0.0,root\n")
    gen = Replay(path)
    assert gen.datum(0, 1) == 0.5
    assert gen.outcome(0, 1, 0.5, 0.5) == 1


def test_replay_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,1\nnot-a-number,0\n")
    with pytest.raises(ConfigError, match=r"bad\.csv:2"):
        Replay(path)


def test_replay_fixture_loads():
    gen = Replay(FIXTURE)
    assert len(gen.pairs) == 1000
    assert all(y in (0, 1) for _, y in gen.pairs)


# -- config ---------------------------------------------------------------

def test_config_from_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_doc()))
    config = ExperimentConfig.from_json(path)
    assert config.horizon == 40
    assert config.game.kind.value == "square"
    assert len(config.comparators) == 1


def test_config_rejects_zero_horizon():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(config_doc(horizon=0))


def test_comparators_need_a_kernel_with_a_range():
    # a linear kernel without a range has C_F = inf: no regret bound
    doc = config_doc(kernel={"kind": "linear"})
    with pytest.raises(ConfigError, match="range"):
        ExperimentConfig.from_json(doc)
    assert ExperimentConfig.from_json(dict(doc, comparators=[])).kernel.c_f \
        == math.inf
    config = ExperimentConfig.from_json(
        dict(doc, kernel={"kind": "linear", "range": 1.0}))
    assert config.kernel.c_f == 1.0


def test_a_comparator_on_a_broken_kernel_fails_with_the_config():
    bad = Kernel.custom(lambda a, b: -1.0 if a != b else 0.0, c_f=1.0)
    f = KernelExpansion.build([0.0, 1.0], [1.0, 1.0], bad)
    with pytest.raises(KernelError, match="not PSD"):
        ExperimentConfig(Game.square(), bad, IidLogistic(), horizon=1, seed=0,
                         comparators=(f,))


@pytest.mark.parametrize("comparator", [
    {"centers": [0.5], "weights": [1e308]},  # w'Gw overflows to inf
    {"centers": [0.0, 1.0], "weights": [1e300, -1e300]},  # inf - inf: NaN
], ids=["inf", "nan"])
def test_a_comparator_with_no_finite_norm_fails_with_the_config(
        tmp_path, capsys, comparator):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_doc(game="log",
                                            comparators=[comparator])))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning first
        assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err and not out.exists()


# -- running --------------------------------------------------------------

def test_single_round_run(tmp_path):
    doc = config_doc(horizon=1, comparators=[],
                     generator={"kind": "deterministic", "threshold": 0.0,
                                "noise_rate": 0.0})
    artifacts = run(ExperimentConfig.from_json(doc), tmp_path / "out")
    lines = artifacts.round_log_path.read_text().splitlines()
    assert len(lines) == 2  # header plus one row
    assert lines[1].split(",")[2] == "0.5"  # round-1 forecast


def test_two_runs_byte_identical(tmp_path):
    config = ExperimentConfig.from_json(config_doc())
    a = run(config, tmp_path / "a")
    b = run(config, tmp_path / "b")
    assert a.round_log_path.read_bytes() == b.round_log_path.read_bytes()
    assert (a.regret_report_path.read_bytes()
            == b.regret_report_path.read_bytes())
    assert a.all_pass


def test_round_log_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a dot product of more than 10,000 entries over its
    # threads; from round 10,002 on, the kernel sum behind each forecast
    # is one, unless it is added up in slices
    doc = config_doc(horizon=10_050, seed=7, comparators=[],
                     generator={"kind": "iid_logistic"})
    code = ("import json, sys; from defcast.experiments import "
            "ExperimentConfig, run_engine; engine = run_engine("
            "ExperimentConfig.from_json(json.loads(sys.argv[1]))); "
            "print('\\n'.join(engine.round_log_rows()))")
    src = str(Path(defcast.__file__).parents[1])
    procs = [subprocess.Popen(  # one process per BLAS thread count, at once
        [sys.executable, "-c", code, json.dumps(doc)], text=True,
        stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src,
                                         OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")]
    one, two = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(one.splitlines()) == 10_051
    assert one == two


def test_report_contents(tmp_path):
    artifacts = run(ExperimentConfig.from_json(config_doc()), tmp_path / "o")
    report = json.loads(artifacts.regret_report_path.read_text())
    assert report["rounds"] == 40
    assert report["large_numbers_certificate"]["pass"]
    assert len(report["comparators"]) == 1
    curve_ns = [pt["n"] for pt in report["regret_curve"]]
    assert curve_ns == [1, 2, 4, 8, 16, 32]


def test_run_evaluates_each_comparator_once_per_round(tmp_path, monkeypatch):
    # the report's losses, its resolution certificate and the regret curve
    # share one evaluation of each comparator at each x: one Kernel.sums
    # over the x column per comparator; each call records how many points
    # it took
    calls = []
    sums = Kernel.sums

    def counted(self, xs, points, w):
        calls.append(np.size(xs))
        return sums(self, xs, points, w)

    doc = config_doc(horizon=30, comparators=[
        {"centers": [], "weights": []},
        {"centers": [-0.5, 0.5], "weights": [0.6, -0.6]}])
    expected = run(ExperimentConfig.from_json(doc), tmp_path / "a")
    monkeypatch.setattr(Kernel, "sums", counted)
    counted_run = run(ExperimentConfig.from_json(doc), tmp_path / "b")
    assert calls == [30, 30]
    assert counted_run.report == expected.report


def test_run_replays_each_comparator_and_clambda_once(tmp_path, monkeypatch):
    # the report's comparator losses and the regret curve share one replay
    # of each comparator, and the report's bounds share one constant
    counts = {"decision_from_exposure": 0, "clambda": 0}
    for name in counts:
        original = getattr(Game, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Game, name, counted)
    doc = config_doc(game="log", horizon=30, comparators=[
        {"centers": [], "weights": []},
        {"centers": [-0.5, 0.5], "weights": [0.6, -0.6]}])
    artifacts = run(ExperimentConfig.from_json(doc), tmp_path)
    assert counts == {"decision_from_exposure": 2 * 30, "clambda": 1}
    assert len(artifacts.report["regret_curve"]) == 5


def test_certify_matches_run(tmp_path):
    config = ExperimentConfig.from_json(config_doc())
    artifacts = run(config, tmp_path / "out")
    cert = certify_log(artifacts.round_log_path, config.game, config.kernel)
    want = artifacts.report["large_numbers_certificate"]
    got = cert["large_numbers_certificate"]
    assert got["pass"]
    assert got == want


@pytest.mark.parametrize("game, kernel, generator", [
    ("square", {"kind": "sobolev"},
     {"kind": "iid_logistic", "weights": [0.0, 2.0]}),
    ("log", {"kind": "sobolev"},
     {"kind": "deterministic", "threshold": 0.0, "noise_rate": 0.1}),
    ({"kind": "custom", "boundary": [[0.0, 1.0], [0.2, 0.5], [0.5, 0.2],
                                     [1.0, 0.0]]},
     {"kind": "gaussian", "width": 0.5}, {"kind": "adversarial"}),
], ids=["square-sobolev", "log-sobolev", "polyline-gaussian"])
def test_round_log_reads_back_bit_for_bit(tmp_path, game, kernel, generator):
    # certify's == with the run rests on every logged value reading back
    config = ExperimentConfig.from_json(config_doc(
        game=game, kernel=kernel, generator=generator, horizon=200))
    artifacts = run(config, tmp_path)
    store = run_engine(config).forecaster
    names = ("x", "p", "q", "y", "s_residual", "branch")
    linenos, columns = read_round_log(artifacts.round_log_path, names)
    assert linenos == list(range(2, 202))
    for name, column in zip(names, columns):
        assert column == store.column(name).tolist(), name
    cert = certify_log(artifacts.round_log_path, config.game, config.kernel)
    assert cert["large_numbers_certificate"] == \
        artifacts.report["large_numbers_certificate"]


def test_certify_rejects_malformed_log(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                    "1,0.5,oops,0.5,0.5,1,0.25,0.0,root\n")
    with pytest.raises(ConfigError, match=r":2"):
        certify_log(path, Game.square(), Kernel.sobolev())


def test_replay_of_emitted_log_reproduces_forecasts(tmp_path):
    config = ExperimentConfig.from_json(config_doc(comparators=[]))
    artifacts = run(config, tmp_path / "first")
    replay_doc = config_doc(
        comparators=[],
        generator={"kind": "replay", "path": str(artifacts.round_log_path)})
    artifacts2 = run(ExperimentConfig.from_json(replay_doc),
                     tmp_path / "second")
    rows1 = artifacts.round_log_path.read_text().splitlines()
    rows2 = artifacts2.round_log_path.read_text().splitlines()
    for r1, r2 in zip(rows1[1:], rows2[1:]):
        assert r1.split(",")[:4] == r2.split(",")[:4]  # n, x, p, q


def test_run_engine_round_count():
    engine = run_engine(ExperimentConfig.from_json(config_doc(horizon=5)))
    assert engine.rounds == 5
