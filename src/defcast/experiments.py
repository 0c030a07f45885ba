"""Experiment runner: config -> data generator -> protocol run -> artifacts.

Randomness is counter-based: each round derives its own generator from
(seed, round), so sequences are reproducible and independent of evaluation
order.  Artifacts are a round-log CSV and a regret-report JSON with the
regret curve sampled at powers of two.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from defcast.forecaster import Branch, Forecaster
from defcast.games import DomainError, Forecast, Game
from defcast.kernels import Kernel, KernelExpansion, check_keys, json_float
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

    def __init__(self, weights=(0.0, 2.0)):
        self.weights = tuple(json_float("weights", w) for w in weights)

    def outcome(self, seed, n, x, p):
        z = sum(w * x ** k for k, w in enumerate(self.weights))
        try:
            prob = 1.0 / (1.0 + math.exp(-z))
        except OverflowError:  # z < -709.78: the probability is below 6e-309
            prob = 0.0
        return int(round_rng(seed, n, 1).random() < prob)


class Deterministic(UniformData):
    """y = 1{x > threshold}, flipped with probability noise_rate."""

    def __init__(self, threshold=0.0, noise_rate=0.0):
        self.threshold = json_float("threshold", threshold)
        self.noise_rate = json_float("noise_rate", noise_rate)
        if not 0.0 <= self.noise_rate <= 0.5:
            raise ConfigError("noise_rate must be in [0, 1/2]")

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
    """Replays (x, y) pairs from headerless x,y rows or a round log."""

    def __init__(self, path):
        self.path = Path(path)
        self.pairs = [v for _, v in read_round_log(self.path, ("x", "y"),
                                                   headerless=True)]

    def datum(self, seed, n):
        if n > len(self.pairs):
            raise ConfigError(f"{self.path}: replay exhausted at round {n}")
        return self.pairs[n - 1][0]

    def outcome(self, seed, n, x, p):
        return self.pairs[n - 1][1]


def generator_from_json(doc):
    """A data generator from its document: "kind" names the class, and the
    class's constructor arguments are the other keys the document takes."""
    classes = {"iid_logistic": IidLogistic, "deterministic": Deterministic,
               "adversarial": AdversarialAntiForecast, "replay": Replay}
    kind = doc["kind"]
    if kind not in classes:
        raise ConfigError(f"unknown generator {kind!r}")
    check_keys(doc, "kind", *inspect.signature(classes[kind]).parameters)
    return classes[kind](**{k: v for k, v in doc.items() if k != "kind"})


# -- config ---------------------------------------------------------------

@contextmanager
def document_errors(what: str):
    """Turn a missing or mistyped document field into a ConfigError."""
    try:
        yield
    except (KeyError, TypeError) as exc:
        raise ConfigError(
            f"malformed {what} ({type(exc).__name__}: {exc})") from None


@dataclass(frozen=True)
class ExperimentConfig:
    game: Game
    kernel: Kernel
    generator: object
    horizon: int
    seed: int
    comparators: tuple[Comparator, ...] = ()

    def __post_init__(self):
        for key, least in (("horizon", 1), ("seed", 0)):
            value = getattr(self, key)  # an int, not a bool: 2.9 is no horizon
            if type(value) is not int or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, "
                                  f"got {value!r}")

    @staticmethod
    def from_json(doc) -> "ExperimentConfig":
        if isinstance(doc, (str, Path)):
            with open(doc) as fh:
                doc = json.load(fh)
        with document_errors("config"):
            check_keys(doc, "game", "kernel", "generator", "horizon", "seed",
                       "comparators")
            kernel = Kernel.from_json(doc.get("kernel", "sobolev"))
            return ExperimentConfig(
                game=Game.from_json(doc["game"]),
                kernel=kernel,
                generator=generator_from_json(doc["generator"]),
                horizon=doc["horizon"],
                seed=doc.get("seed", 0),
                comparators=tuple(
                    Comparator.build(KernelExpansion.from_json(c, kernel))
                    for c in doc.get("comparators", [])),
            )


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


def run(config: ExperimentConfig, out_dir) -> RunArtifacts:
    """Run the experiment and write the CSV/JSON artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine = run_engine(config)
    report = engine.regret_report(config.comparators)
    report["seed"] = config.seed
    report["regret_curve"] = engine.regret_curve(config.comparators)

    log_path = out / "round_log.csv"
    log_path.write_text("\n".join(engine.round_log_rows()) + "\n")
    report_path = out / "regret_report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    return RunArtifacts(log_path, report_path, report)


# -- reading a round log -------------------------------------------------

def _checked(name: str, admits, meaning: str):
    """A column reader: float(), then the column's rule on the value."""
    def read(s: str) -> float:
        v = float(s)
        if not admits(v):
            raise ValueError(f"{name}={s} is not {meaning}")
        return v
    return read


_READ = {"x": _checked("x", math.isfinite, "finite"), "p": float, "q": float,
         "y": _checked("y", (0.0, 1.0).__contains__, "0 or 1"),
         # the engine writes |S| at the forecast
         "s_residual": _checked("s_residual", lambda v: 0.0 <= v < math.inf,
                                "finite and >= 0"),
         "branch": Branch}


def read_round_log(path, names, headerless=False) -> list:
    """(line number, values) of each row of a CSV log: the named columns,
    each read by its rule in _READ (y through float, so 1.0 reads as 1).
    The header names the columns; with `headerless`, a file whose first
    line does not name them all holds just those columns, in order."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",") if lines else []
    missing = [c for c in names if c not in header]
    if not missing:
        cols, start = [header.index(c) for c in names], 2
    elif headerless and lines:
        cols, start = range(len(names)), 1
    else:
        raise ConfigError(f"{path}: not a round log (header lacks "
                          f"{', '.join(missing)})")
    rules = [(_READ[name], i) for name, i in zip(names, cols)]
    rows = []
    for lineno, line in enumerate(lines[start - 1:], start=start):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            rows.append((lineno, [read(parts[i]) for read, i in rules]))
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad row: {exc}") from None
    return rows


def certify_log(log_path, game: Game, kernel: Kernel) -> dict:
    """Rebuild the forecaster state from a round log and re-check it."""
    fc = Forecaster(game, kernel)
    for lineno, (x, p, q, y, s_res, branch) in read_round_log(
            log_path, ("x", "p", "q", "y", "s_residual", "branch")):
        try:
            fc.update(x, Forecast(p, q), y, s_residual=s_res, branch=branch)
        except DomainError as exc:  # a forecast the game does not take
            raise ConfigError(f"{log_path}:{lineno}: bad row: {exc}") from None
    return {"rounds": fc.round,
            "large_numbers_certificate": fc.large_numbers_certificate()}
