"""Experiment runner: config -> data generator -> protocol run -> artifacts.

Randomness is counter-based: each round derives its own generator from
(seed, round), so sequences are reproducible and independent of evaluation
order.  Artifacts are a round-log CSV and a regret-report JSON with the
regret curve sampled at powers of two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from defcast.forecaster import Branch, Forecaster
from defcast.games import Forecast, Game
from defcast.kernels import Kernel, KernelExpansion
from defcast.protocol import Comparator, Engine


class ConfigError(ValueError):
    """Malformed experiment config or replay file."""


def round_rng(seed: int, round_n: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-round generator keyed by (seed, round, stream)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(round_n, stream))
    return np.random.default_rng(ss)


# -- data generators ------------------------------------------------------

class UniformData:
    """x uniform on [-1, 1], drawn from the round's stream 0."""

    def datum(self, seed, n):
        return float(round_rng(seed, n, 0).uniform(-1.0, 1.0))


class IidLogistic(UniformData):
    """y Bernoulli with a polynomial-logit mean."""

    def __init__(self, weights):
        self.weights = tuple(float(w) for w in weights)

    def outcome(self, seed, n, x, p):
        z = sum(w * x ** k for k, w in enumerate(self.weights))
        prob = 1.0 / (1.0 + math.exp(-z))
        return int(round_rng(seed, n, 1).random() < prob)


class Deterministic(UniformData):
    """y = 1{x > threshold}, flipped with probability noise_rate."""

    def __init__(self, threshold=0.0, noise_rate=0.0):
        if not 0.0 <= noise_rate <= 0.5:
            raise ConfigError("noise_rate must be in [0, 1/2]")
        self.threshold = float(threshold)
        self.noise_rate = float(noise_rate)

    def outcome(self, seed, n, x, p):
        y = int(x > self.threshold)
        if self.noise_rate > 0.0 and \
                round_rng(seed, n, 1).random() < self.noise_rate:
            y = 1 - y
        return y


class AdversarialAntiForecast(UniformData):
    """Outcome chosen against the forecast: y = 1 iff p <= 1/2."""

    def outcome(self, seed, n, x, p):
        return 1 if p <= 0.5 else 0


class Replay:
    """Replays (x, y) pairs from a CSV file (plain or round-log format)."""

    def __init__(self, path):
        self.path = Path(path)
        self.pairs = self._load()

    def _load(self):
        pairs = []
        with open(self.path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise ConfigError(f"{self.path}: empty replay file")
        header = lines[0].split(",")
        if "x" in header and "y" in header:
            xi, yi = header.index("x"), header.index("y")
            body = lines[1:]
            offset = 2
        else:
            xi, yi = 0, 1
            body = lines
            offset = 1
        for lineno, line in enumerate(body, start=offset):
            if not line.strip():
                continue
            parts = line.split(",")
            try:
                pairs.append((float(parts[xi]), int(float(parts[yi]))))
            except (ValueError, IndexError) as exc:
                raise ConfigError(
                    f"{self.path}:{lineno}: bad replay row: {exc}") from None
        return pairs

    def datum(self, seed, n):
        try:
            return self.pairs[n - 1][0]
        except IndexError:
            raise ConfigError(
                f"{self.path}: replay exhausted at round {n}") from None

    def outcome(self, seed, n, x, p):
        return self.pairs[n - 1][1]


def generator_from_json(doc):
    kind = doc["kind"]
    if kind == "iid_logistic":
        return IidLogistic(doc.get("weights", [0.0, 2.0]))
    if kind == "deterministic":
        return Deterministic(doc.get("threshold", 0.0),
                             doc.get("noise_rate", 0.0))
    if kind == "adversarial":
        return AdversarialAntiForecast()
    if kind == "replay":
        return Replay(doc["path"])
    raise ConfigError(f"unknown generator {kind!r}")


# -- config ---------------------------------------------------------------

_CONFIG_KEYS = {"game", "kernel", "generator", "horizon", "seed",
                "comparators"}


@dataclass(frozen=True)
class ExperimentConfig:
    game: Game
    kernel: Kernel
    generator: object
    horizon: int
    seed: int
    comparators: tuple[Comparator, ...] = ()

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")

    @staticmethod
    def from_json(doc) -> "ExperimentConfig":
        if isinstance(doc, (str, Path)):
            with open(doc) as fh:
                doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError(f"malformed config (a JSON object expected, "
                              f"got {type(doc).__name__})")
        unknown = sorted(set(doc) - _CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
        try:
            kernel = Kernel.from_json(doc.get("kernel", "sobolev"))
            return ExperimentConfig(
                game=Game.from_json(doc["game"]),
                kernel=kernel,
                generator=generator_from_json(doc["generator"]),
                horizon=int(doc["horizon"]),
                seed=int(doc.get("seed", 0)),
                comparators=tuple(
                    Comparator.build(KernelExpansion.from_json(c, kernel))
                    for c in doc.get("comparators", [])),
            )
        except (KeyError, TypeError) as exc:  # a missing or mistyped field
            raise ConfigError(
                f"malformed config ({type(exc).__name__}: {exc})") from None


@dataclass
class RunArtifacts:
    round_log_path: Path
    regret_report_path: Path
    report: dict

    @property
    def all_pass(self) -> bool:
        rep = self.report
        ok = rep["large_numbers_certificate"]["pass"]
        for row in rep["comparators"]:
            ok = ok and row["pass"] and row["resolution"]["pass"]
        for pt in rep.get("regret_curve", []):
            for row in pt["comparators"]:
                ok = ok and row["pass"]
        return ok


# -- running --------------------------------------------------------------

def run_engine(config: ExperimentConfig) -> Engine:
    """Execute the protocol loop for the configured horizon."""
    engine = Engine(config.game, config.kernel)
    gen = config.generator
    for n in range(1, config.horizon + 1):
        x = gen.datum(config.seed, n)
        engine.decide(x)
        p = engine.pending_forecast.p
        y = gen.outcome(config.seed, n, x, p)
        engine.observe(y)
    return engine


def _regret_curve(engine: Engine, comparators) -> list[dict]:
    n = engine.rounds
    own = np.cumsum(engine.forecaster.column("loss"))
    res = np.cumsum(np.abs(engine.forecaster.column("s_residual")))
    comp_cums = [np.cumsum(engine.comparator_round_losses(c))
                 for c in comparators]
    curve = []
    k = 1
    while k <= n:
        point = {"n": k, "own_loss": float(own[k - 1]), "comparators": []}
        for c, cum in zip(comparators, comp_cums):
            bound = engine.regret_bound(c, k)
            slack = engine.root_slack(c, float(res[k - 1]))
            point["comparators"].append({
                "comparator_loss": float(cum[k - 1]),
                "bound": bound,
                "slack": slack,
                "pass": float(own[k - 1]) <= float(cum[k - 1]) + bound + slack,
            })
        curve.append(point)
        k *= 2
    return curve


def run(config: ExperimentConfig, out_dir) -> RunArtifacts:
    """Run the experiment and write the CSV/JSON artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine = run_engine(config)
    report = engine.regret_report(config.comparators)
    report["seed"] = config.seed
    report["regret_curve"] = _regret_curve(engine, config.comparators)

    log_path = out / "round_log.csv"
    log_path.write_text("\n".join(engine.round_log_rows()) + "\n")
    report_path = out / "regret_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return RunArtifacts(log_path, report_path, report)


# -- recomputing certificates from a round log ----------------------------

def certify_log(log_path, game: Game, kernel: Kernel) -> dict:
    """Rebuild the forecaster state from a round log and re-check it."""
    fc = Forecaster(game, kernel)
    with open(log_path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in ("x", "p", "q", "y", "s_residual", "branch")
               if c not in header]
    if missing:
        raise ConfigError(f"{log_path}: not a round log (header lacks "
                          f"{', '.join(missing)})")
    idx = {name: header.index(name) for name in header}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            x = float(parts[idx["x"]])
            p = float(parts[idx["p"]])
            q = float(parts[idx["q"]])
            y = int(parts[idx["y"]])
            s_res = float(parts[idx["s_residual"]])
            branch = Branch(parts[idx["branch"]])
            if not math.isfinite(x):
                raise ValueError(f"x={x} is not finite")
            if not 0.0 <= s_res < math.inf:  # the engine writes |S|
                raise ValueError(f"s_residual={s_res} is not finite and >= 0")
            fc.update(x, Forecast(p, q), y, s_residual=s_res, branch=branch)
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError(f"{log_path}:{lineno}: bad row: {exc}") from None
    return {"rounds": fc.round,
            "large_numbers_certificate": fc.large_numbers_certificate()}
