"""Competitive online decision making for binary outcomes.

Forecasts are produced by rooting a betting function on the (possibly
stripped) lexicographic square, converted to decisions through each game's
canonical choice function, and every run carries checkable large-number and
regret certificates.
"""

from defcast.games import Decision, DomainError, Forecast, Game, GameKind
from defcast.kernels import Kernel, KernelError, KernelExpansion
from defcast.forecaster import Branch, Forecaster, RootReport
from defcast.protocol import ComparatorError, Engine, UsageError

__all__ = [
    "Branch",
    "ComparatorError",
    "Decision",
    "DomainError",
    "Engine",
    "Forecast",
    "Forecaster",
    "Game",
    "GameKind",
    "Kernel",
    "KernelError",
    "KernelExpansion",
    "RootReport",
    "UsageError",
]
