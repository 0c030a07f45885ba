"""The online decision loop: datum -> decision -> observation.

The engine wraps a forecaster, converts forecasts to decisions through the
game's canonical choice function, and evaluates benchmark decision rules
given as kernel expansions of their exposure; it keeps no totals of its own.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

from defcast.forecaster import (Forecaster, RootReport, check_datum,
                                running_totals)
from defcast.games import Decision, DomainError, Forecast, Game
from defcast.kernels import Kernel, KernelExpansion


class UsageError(RuntimeError):
    """Protocol methods called out of order."""


class ComparatorError(ValueError):
    """Benchmark rule not admissible for the game on the observed data."""


@dataclass(frozen=True)
class Comparator:
    """A benchmark decision rule, encoded by its exposure expansion."""

    exposure_fn: KernelExpansion
    norm: float

    @staticmethod
    def build(exposure_fn: KernelExpansion) -> "Comparator":
        return Comparator(exposure_fn, exposure_fn.norm())


# one round of the log; its fields are the round-log CSV header
RoundRecord = namedtuple(
    "RoundRecord", "n x p q gamma y loss s_residual branch")


def _rows(forecaster: Forecaster, start: int, stop: int):
    """Rounds start+1..stop as plain tuples in RoundRecord field order."""
    # tolist() gives Python floats: repr of a numpy scalar is not the
    # shortest round-trip decimal under numpy 2
    return zip(range(start + 1, stop + 1), *(
        forecaster.column(name)[start:stop].tolist()
        for name in RoundRecord._fields[1:]))


class RoundLog(Sequence):
    """Read-only view of the history as RoundRecords, built on access."""

    def __init__(self, forecaster: Forecaster):
        self._forecaster = forecaster

    def __len__(self) -> int:
        return self._forecaster.round

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]
        return RoundRecord._make(next(_rows(self._forecaster, j, j + 1)))

    def __iter__(self):
        return map(RoundRecord._make, _rows(self._forecaster, 0, len(self)))


class Engine:
    """One online decision sequence; single-writer."""

    def __init__(self, game: Game, kernel: Kernel):
        self.game = game
        self.kernel = kernel
        self.forecaster = Forecaster(game, kernel)
        self.round_log = RoundLog(self.forecaster)
        self._pending: tuple[object, RootReport, Decision] | None = None
        # id(c) -> (c, exposures, losses); holding c keeps its id unique
        self._comparator_cache: dict[int, tuple] = {}

    @property
    def rounds(self) -> int:
        return self.forecaster.round

    @property
    def cumulative_loss(self) -> float:
        return float(running_totals(self.forecaster.column("loss"))[-1])

    @property
    def pending_forecast(self) -> Forecast | None:
        return self._pending[1].forecast if self._pending else None

    def decide(self, x) -> float:
        """Produce the decision for datum x; awaits the observation next."""
        if self._pending is not None:
            raise UsageError("previous round still awaiting an observation")
        check_datum(x)
        report = self.forecaster.next_forecast(x)
        decision = self.game.canonical_choice(report.forecast)
        self._pending = (x, report, decision)
        return decision.gamma

    def observe(self, y: int) -> None:
        """Log the outcome of the pending decision."""
        if self._pending is None:
            raise UsageError("observe called without a pending decision")
        x, report, decision = self._pending
        # update checks y, then stores the round: a bad y leaves it pending
        self.forecaster.update(
            x, report.forecast, y, s_residual=report.s_residual,
            branch=report.branch, decision=decision)
        self._pending = None
        self._comparator_cache.clear()

    # -- comparators ------------------------------------------------------

    def _comparator_rounds(self, c: Comparator) -> tuple[list, list]:
        """(exposures, losses) of c per round, kept until the next observe."""
        if id(c) not in self._comparator_cache:
            xs = self.forecaster.column("x").tolist()
            vals = [float(c.exposure_fn(x)) for x in xs]
            ys = self.forecaster.column("y").tolist()
            try:
                losses = [self.game.loss(y, self.game.decision_from_exposure(v))
                          for y, v in zip(ys, vals)]
            except DomainError as exc:
                raise ComparatorError(f"{exc}: the rule does not map into "
                                      "the decision set") from None
            self._comparator_cache[id(c)] = (c, vals, losses)
        return self._comparator_cache[id(c)][1:]

    def comparator_round_losses(self, c: Comparator) -> list[float]:
        """Per-round losses of the benchmark rule D = inverse exposure."""
        return list(self._comparator_rounds(c)[1])

    def comparator_loss(self, c: Comparator) -> float:
        """Total loss of the log replayed under the benchmark rule."""
        return float(running_totals(self._comparator_rounds(c)[1])[-1])

    @functools.cached_property
    def clambda(self) -> float:
        """The game/kernel constant of every regret bound, computed once."""
        return self.game.clambda(self.kernel.c_f())

    def regret_bound(self, c: Comparator, n: int | None = None) -> float:
        """Regret bound for the rule after n rounds (default: all so far)."""
        n = self.rounds if n is None else n
        if n == 0:
            return 0.0
        return self.clambda * (c.norm + 1.0) * math.sqrt(n)

    def _regret_at(self, comparators: Sequence[Comparator], ks):
        """For each k in ks, (own loss, rows) after k rounds, with one row
        (comparator loss, bound, slack, pass) per comparator: the regret
        inequality, over running totals of the history."""
        own = running_totals(self.forecaster.column("loss")).tolist()
        residual = running_totals(
            abs(self.forecaster.column("s_residual"))).tolist()
        closses = [running_totals(self._comparator_rounds(c)[1]).tolist()
                   for c in comparators]
        for k in ks:
            rows = []
            for c, closs in zip(comparators, closses):
                bound = self.regret_bound(c, k)
                # inexact roots perturb the capital bookkeeping by at most
                # the accumulated residual, scaled by the comparator's norm
                slack = 2.0 * residual[k] * (1.0 + c.norm)
                rows.append((closs[k], bound, slack,
                             own[k] <= closs[k] + bound + slack))
            yield own[k], rows

    def regret_report(self, comparators: Sequence[Comparator]) -> dict:
        """Per-comparator regret rows plus both run certificates."""
        cert = self.forecaster.large_numbers_certificate()
        cert_slack = cert["slack"]
        own, rows = next(self._regret_at(comparators, [self.rounds]))
        report = {
            "rounds": self.rounds,
            "cumulative_loss": own,
            "residual_total": self.forecaster.residual_total,
            "large_numbers_certificate": cert,
            "comparators": [],
        }
        for c, (closs, bound, slack, ok) in zip(comparators, rows):
            res_lhs, res_bound = self.forecaster.resolution_certificate(
                c.exposure_fn, self._comparator_rounds(c)[0])
            res_slack = c.norm * math.sqrt(cert_slack) if cert_slack > 0 else 0.0
            report["comparators"].append({
                "norm": c.norm,
                "own_loss": own,
                "comparator_loss": closs,
                "realized_regret": own - closs,
                "bound": bound,
                "slack": slack,
                "pass": ok,
                "resolution": {
                    "lhs": res_lhs,
                    "bound": res_bound,
                    "slack": res_slack,
                    "pass": res_lhs <= res_bound + res_slack,
                },
            })
        return report

    def regret_curve(self, comparators: Sequence[Comparator]) -> list[dict]:
        """The regret rows after 1, 2, 4, ... rounds, up to the run's."""
        ks = [2 ** i for i in range(self.rounds.bit_length())]
        return [{"n": k, "own_loss": own, "comparators": [
            {"comparator_loss": closs, "bound": bound, "slack": slack,
             "pass": ok} for closs, bound, slack, ok in rows]}
            for k, (own, rows) in zip(ks, self._regret_at(comparators, ks))]

    # -- export -----------------------------------------------------------

    CSV_HEADER = ",".join(RoundRecord._fields)

    def round_log_rows(self) -> list[str]:
        rows = [self.CSV_HEADER]
        for n, x, p, q, gamma, y, loss, s_res, branch in _rows(
                self.forecaster, 0, self.rounds):
            rows.append(",".join([
                str(n), repr(float(x)), repr(p), repr(q), repr(gamma),
                str(y), repr(loss), repr(s_res), branch.value]))
        return rows
