"""The online decision loop: datum -> decision -> observation.

The engine wraps a forecaster, converts forecasts to decisions through the
game's canonical choice function, tracks cumulative loss, and evaluates
benchmark decision rules given as kernel expansions of their exposure.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

from defcast.forecaster import Forecaster, RootReport
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
        self.cumulative_loss = 0.0
        self.round_log = RoundLog(self.forecaster)
        self._pending: tuple[object, RootReport, Decision] | None = None
        # id(c) -> (c, exposures, losses); holding c keeps its id unique
        self._comparator_cache: dict[int, tuple] = {}

    @property
    def rounds(self) -> int:
        return self.forecaster.round

    @property
    def pending_forecast(self) -> Forecast | None:
        return self._pending[1].forecast if self._pending else None

    def decide(self, x) -> float:
        """Produce the decision for datum x; awaits the observation next."""
        if self._pending is not None:
            raise UsageError("previous round still awaiting an observation")
        # real data must be finite; custom kernels may take opaque points
        if isinstance(x, numbers.Real) and not math.isfinite(x):
            raise DomainError(f"datum must be finite, got {x}")
        report = self.forecaster.next_forecast(x)
        decision = self.game.canonical_choice(report.forecast)
        self._pending = (x, report, decision)
        return decision.gamma

    def observe(self, y: int) -> None:
        """Log the outcome of the pending decision."""
        if self._pending is None:
            raise UsageError("observe called without a pending decision")
        if y not in (0, 1):
            raise DomainError(f"observation must be binary, got {y}")
        x, report, decision = self._pending
        self._pending = None
        self._comparator_cache.clear()
        # the forecaster stores the round, gamma and loss included
        self.cumulative_loss += self.forecaster.update(
            x, report.forecast, y, s_residual=report.s_residual,
            branch=report.branch, decision=decision)

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
        """Replay the log under the benchmark rule, adding left to right as
        the regret curve's np.cumsum does (sum() compensates since 3.12)."""
        return functools.reduce(operator.add, self._comparator_rounds(c)[1],
                                0.0)

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

    def root_slack(self, c: Comparator, residual: float | None = None) -> float:
        # inexact roots perturb the capital bookkeeping by at most the
        # accumulated residual (default: the whole run's), scaled by the
        # comparator's norm
        if residual is None:
            residual = self.forecaster.residual_total
        return 2.0 * residual * (1.0 + c.norm)

    def regret_report(self, comparators: Sequence[Comparator]) -> dict:
        """Per-comparator regret rows plus both run certificates."""
        cert = self.forecaster.large_numbers_certificate()
        cert_slack = cert["slack"]
        report = {
            "rounds": self.rounds,
            "cumulative_loss": self.cumulative_loss,
            "residual_total": self.forecaster.residual_total,
            "large_numbers_certificate": cert,
            "comparators": [],
        }
        for c in comparators:
            closs = self.comparator_loss(c)
            bound = self.regret_bound(c)
            slack = self.root_slack(c)
            res_lhs, res_bound = self.forecaster.resolution_certificate(
                c.exposure_fn, self._comparator_rounds(c)[0])
            res_slack = c.norm * math.sqrt(cert_slack) if cert_slack > 0 else 0.0
            report["comparators"].append({
                "norm": c.norm,
                "own_loss": self.cumulative_loss,
                "comparator_loss": closs,
                "realized_regret": self.cumulative_loss - closs,
                "bound": bound,
                "slack": slack,
                "pass": self.cumulative_loss <= closs + bound + slack,
                "resolution": {
                    "lhs": res_lhs,
                    "bound": res_bound,
                    "slack": res_slack,
                    "pass": res_lhs <= res_bound + res_slack,
                },
            })
        return report

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
