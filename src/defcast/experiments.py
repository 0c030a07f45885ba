"""Experiment runner: config -> data generator -> protocol run -> artifacts.

Randomness is counter-based: each round derives its own generator from
(seed, round), so sequences are reproducible and independent of evaluation
order.  Artifacts are a round-log CSV and a regret-report JSON with the
regret curve sampled at powers of two.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
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
        xs, ys = read_round_log(self.path, ("x", "y"), headerless=True)[1]
        self.pairs = list(zip(xs.tolist(), ys.tolist()))

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
        log_path.write_text("\n".join([*engine.round_log_rows(), ""]))
        report_path = out / "regret_report.json"
        report_path.write_text(json.dumps(report, indent=2) + "\n")
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise
    return RunArtifacts(log_path, report_path, report)


# -- reading a round log -------------------------------------------------

# rules of values or arrays (s_residual: the engine writes |S|; p, q: any)
_RULES = {"x": (lambda v: abs(v) < math.inf, "finite"),
          "y": (lambda v: (v == 0.0) | (v == 1.0), "0 or 1"),
          "s_residual": (lambda v: (0.0 <= v) & (v < math.inf),
                         "finite and >= 0")}


def _read(name: str, s: str):
    """The per-line reader's value: Branch(s), or float(s) by its rule."""
    v = Branch(s) if name == "branch" else float(s)
    if name in _RULES and not _RULES[name][0](v):
        raise ValueError(f"{name}={s} is not {_RULES[name][1]}")
    return v


def _read_fast(path, names, cols, start):
    """The columns by numpy's C reader, or None for the per-line reader to
    decide: on a byte the two read apart (a NUL ends a numpy string, numpy
    strips \x1c-\x1f off a float, splitlines ends a line at \v \f \x1c-\x1e
    and a lone \r), a numpy error or warning, a failed rule or a blank line."""
    data = Path(path).read_bytes()
    if (not data.isascii() or any(c in data for c in b"\0\v\f\x1c\x1d\x1e\x1f")
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    lines = np.count_nonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    try:
        with warnings.catch_warnings(action="error"):  # "no data", say
            table = np.loadtxt(  # S18: no longer field is cut to a branch
                io.BytesIO(data), [(c, "S18" if c == "branch" else float)
                                   for c in names], delimiter=",",
                comments=None, skiprows=start - 1, usecols=cols, ndmin=1)
        columns = [table[name] for name in names]
        if "branch" in names:  # Branch() of each distinct field
            values, at = np.unique(table["branch"], return_inverse=True)
            columns[names.index("branch")] = np.array(
                [Branch(v.decode()) for v in values])[at]
        if not all(_RULES[c][0](table[c]).all() for c in names if c in _RULES):
            return None
    except (ValueError, Warning):
        return None
    if len(table) == lines + (not data.endswith(b"\n")) - start + 1:
        return columns


def read_round_log(path, names, headerless=False) -> tuple[list, list]:
    """(line numbers, columns) of a CSV log's rows: an array per named column
    by _read_fast or, where it gives None, by _read per line (y through
    float: 1.0 reads as 1).  The header names the columns; with `headerless`,
    a first line not naming them all is a row of those, in order.  The first
    bad line raises a ConfigError whose `before` holds the (line numbers,
    columns) of the rows above it."""
    with open(path) as fh:  # the first line, as splitlines ends it
        first = fh.readline().splitlines()[:1]
    header = first[0].split(",") if first else []
    missing = [c for c in names if c not in header]
    if not missing:
        cols, start = [header.index(c) for c in names], 2
    elif headerless and first:
        cols, start = range(len(names)), 1
    else:
        raise ConfigError(f"{path}: not a round log (header lacks "
                          f"{', '.join(missing)})")
    if (fast := _read_fast(path, names, cols, start)) is not None:
        return list(range(start, start + len(fast[0]))), fast
    lines = Path(path).read_text().splitlines()
    linenos = [n for n in range(start, len(lines) + 1) if lines[n - 1].strip()]
    rows = [lines[n - 1].split(",") for n in linenos]

    def columns(rows):
        return [np.array([_read(name, parts[i]) for parts in rows],
                         object if name == "branch" else float)
                for name, i in zip(names, cols)]

    for k, (lineno, parts) in enumerate(zip(linenos, rows)):
        try:
            [_read(name, parts[i]) for name, i in zip(names, cols)]
        except (ValueError, IndexError) as exc:
            error = ConfigError(f"{path}:{lineno}: bad row: {exc}")
            error.before = linenos[:k], columns(rows[:k])
            raise error from None
    return linenos, columns(rows)


def certify_log(log_path, game: Game, kernel: Kernel) -> dict:
    """Rebuild the forecaster state from a round log and re-check it: the
    arrays of read_round_log go to one Forecaster.load (update stays the
    per-round writer of a run).  The first bad row in file order is
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
