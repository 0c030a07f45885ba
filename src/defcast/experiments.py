"""Experiment runner: config -> data generator -> protocol run -> artifacts.

Randomness is counter-based: each round derives its own generator from
(seed, round), so sequences are reproducible and independent of evaluation
order.  Artifacts are a round-log CSV and a regret-report JSON with the
regret curve sampled at powers of two.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from defcast.forecaster import Branch, Forecaster
from defcast.games import DomainError, Game
from defcast.kernels import (Kernel, KernelExpansion, check_keys, from_doc,
                             json_float)
from defcast.protocol import Engine


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
        self.pairs = list(zip(*read_round_log(self.path, ("x", "y"),
                                              headerless=True)[1]))

    def datum(self, seed, n):
        if n > len(self.pairs):
            raise ConfigError(f"{self.path}: replay exhausted at round {n}")
        return self.pairs[n - 1][0]

    def outcome(self, seed, n, x, p):
        return self.pairs[n - 1][1]


def generator_from_json(doc):
    """A data generator from a JSON document, a parsed object or a name."""
    return from_doc(doc, "generator", ConfigError, {
        "iid_logistic": IidLogistic, "deterministic": Deterministic,
        "adversarial": AdversarialAntiForecast, "replay": Replay})


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
    comparators: tuple[KernelExpansion, ...] = ()

    def __post_init__(self):
        for key, least in (("horizon", 1), ("seed", 0)):
            value = getattr(self, key)  # an int, not a bool: 2.9 is no horizon
            if type(value) is not int or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, "
                                  f"got {value!r}")
        if self.comparators and math.isinf(self.kernel.c_f):
            raise ConfigError("comparators need a kernel range (C_F is inf)")
        for f in self.comparators:  # a broken kernel fails before round 1
            f.norm()

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
                comparators=tuple(KernelExpansion.from_json(c, kernel)
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
    """Run the experiment and write the CSV/JSON artifacts.  The output
    directory is made before round 1, so that a bad path fails at once; a
    run that then fails removes it again if it made it and it is empty."""
    out = Path(out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        engine = run_engine(config)
        report = engine.regret_report(config.comparators)
        report["seed"] = config.seed
        report["regret_curve"] = engine.regret_curve(config.comparators)

        log_path = out / "round_log.csv"
        log_path.write_text("\n".join(engine.round_log_rows()) + "\n")
        report_path = out / "regret_report.json"
        report_path.write_text(json.dumps(report, indent=2) + "\n")
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise
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


# y and branch hold a few distinct strings, so each is read once
_READ = {"x": _checked("x", math.isfinite, "finite"), "p": float, "q": float,
         "y": lru_cache(64)(_checked("y", (0.0, 1.0).__contains__, "0 or 1")),
         # the engine writes |S| at the forecast
         "s_residual": _checked("s_residual", lambda v: 0.0 <= v < math.inf,
                                "finite and >= 0"),
         "branch": lru_cache(64)(Branch)}


def read_round_log(path, names, headerless=False) -> tuple[list, list]:
    """(line numbers, columns) of the rows of a CSV log: a list per named
    column, each value read by the column's rule in _READ (y through float,
    so 1.0 reads as 1).  The header names the columns; with `headerless`, a
    file whose first line does not name them all holds just those columns,
    in order.  A bad value is reported by the first line that holds one,
    as a ConfigError whose `before` holds the (line numbers, columns) of
    the rows above it."""
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
    linenos = [n for n in range(start, len(lines) + 1) if lines[n - 1].strip()]
    rows = [lines[n - 1].split(",") for n in linenos]

    def columns(rows):
        return [list(map(read, [parts[i] for parts in rows]))
                for read, i in rules]

    try:
        return linenos, columns(rows)
    except (ValueError, IndexError):  # find the first bad line
        for k, (lineno, parts) in enumerate(zip(linenos, rows)):
            try:
                for read, i in rules:
                    read(parts[i])
            except (ValueError, IndexError) as exc:
                error = ConfigError(f"{path}:{lineno}: bad row: {exc}")
                error.before = linenos[:k], columns(rows[:k])
                raise error from None
        raise


def certify_log(log_path, game: Game, kernel: Kernel) -> dict:
    """Rebuild the forecaster state from a round log and re-check it.  The
    log is read in columns and loaded by one Forecaster.load (update stays
    the per-round writer of a run).  The first bad row in file order is
    reported by its line number: one that does not read, unless a row
    above it, loaded first, is one that the game or the kernel refuses."""
    unread = None
    try:
        lines, columns = read_round_log(
            log_path, ("x", "p", "q", "y", "s_residual", "branch"))
    except ConfigError as exc:
        if not hasattr(exc, "before"):  # not a round log
            raise
        unread, (lines, columns) = exc, exc.before
    fc = Forecaster(game, kernel)
    try:
        fc.load(*columns)
    except DomainError as exc:  # a row the game or the kernel refuses
        raise ConfigError(f"{log_path}:{lines[exc.row]}: bad row: {exc}") \
            from None
    if unread is not None:
        raise unread
    if not fc.round:  # nothing to certify: no verdict, not a pass
        raise ConfigError(f"{log_path}: the round log has no rounds")
    return {"rounds": fc.round,
            "large_numbers_certificate": fc.large_numbers_certificate()}
