"""In-process tracing of defcast's public functions, from outside the package.

`Tracer.install()` replaces every public function and public method of the
defcast modules (plus `Kernel.__call__` and `KernelExpansion.__call__`) with
a wrapper that records a span: calls, total time and self time (total minus
the time covered by nested spans).  Spans are kept in memory, split by run
phase (`setup`, `rounds`, `report`, `certify`), and summarised when the
child process ends.  Nothing under `src/` is modified; `uninstall()` puts
the original functions back.
"""

from __future__ import annotations

import inspect
import sys
from enum import Enum
from time import perf_counter_ns

import numpy as np

MODULES = ("games", "kernels", "forecaster", "protocol", "experiments", "cli")

# spans whose per-call durations are kept for percentiles
KEEP_DURATIONS = {
    "forecaster.Forecaster.next_forecast",
    "forecaster.Forecaster.update",
    "forecaster.Forecaster.coefficients",
    "protocol.Engine.decide",
    "protocol.Engine.observe",
}

EXPOSURE_INTERVAL_ARRAYS = "games.Game.exposure_interval_arrays"
SCAN = "games.Game.exposure_interval_arrays[scan]"
BISECT = "games.Game.exposure_interval_arrays[bisect]"
EXPOSURE_INTERVAL = "games.Game.exposure_interval"
NEXT_FORECAST = "forecaster.Forecaster.next_forecast"
DECIDE = "protocol.Engine.decide"
KERNEL_CALL = "kernels.Kernel.__call__"
GRAM = "kernels.Kernel.gram"


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "durations", "points")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations = None
        self.points = 0


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stats: dict[str, dict[str, Stat]] = {}
        self.stack: list[list] = []  # [span name, ns covered by children]
        self.paused = 0
        # per-round [bisect steps, grid scans, solves], filled in `rounds`
        self.round_counts: list[list[int]] = []
        self.branches: dict[str, int] = {}
        self.s_residuals: list[float] = []
        self.gram_bytes = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        table = self.stats.setdefault(self.phase, {})
        st = table.get(name)
        if st is None:
            st = table[name] = Stat()
            if name in KEEP_DURATIONS:
                st.durations = []
        return st

    def _record(self, name, dt, self_dt, args, out):
        if name == EXPOSURE_INTERVAL_ARRAYS:
            name = SCAN if np.size(args[1]) > 1 else BISECT
            if self.phase == "rounds" and self.round_counts:
                self.round_counts[-1][0 if name == BISECT else 1] += 1
        elif name == EXPOSURE_INTERVAL:
            if self.phase == "rounds" and self.round_counts and self.stack \
                    and self.stack[-1][0] == NEXT_FORECAST:
                self.round_counts[-1][2] += 1
        elif name == NEXT_FORECAST:
            key = out.branch.value
            self.branches[key] = self.branches.get(key, 0) + 1
            self.s_residuals.append(float(out.s_residual))
        elif name == GRAM:
            self.gram_bytes += 8 * len(list(args[1])) ** 2
        st = self._stat(name)
        st.calls += 1
        st.total_ns += dt
        st.self_ns += self_dt
        if st.durations is not None:
            st.durations.append((dt, self_dt))
        if name == KERNEL_CALL:
            st.points += int(np.size(out))

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if name == DECIDE and tracer.phase == "rounds":
                tracer.round_counts.append([0, 0, 0])
            frame = [name, 0]
            stack = tracer.stack
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
            tracer._record(name, dt, dt - frame[1], args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every defcast module."""
        modules = {m: sys.modules[f"defcast.{m}"] for m in MODULES}
        replaced = {}  # id(original function) -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(f"{short}.{attr}", obj)
                    replaced[id(obj)] = w
                    self._set(mod, attr, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(short, obj)
        # names imported into other modules (`from ... import run`)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and mod.__dict__[attr] is not \
                        replaced[id(obj)]:
                    self._set(mod, attr, replaced[id(obj)])

    def _wrap_class(self, short, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(
                    self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._set(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary ----------------------------------------------------------

    def totals(self, name: str, phases=None) -> Stat:
        """Stat for one span name, summed over the given phases (or all)."""
        out = Stat()
        out.durations = []
        for phase, table in self.stats.items():
            if phases is not None and phase not in phases:
                continue
            st = table.get(name)
            if st is None:
                continue
            out.calls += st.calls
            out.total_ns += st.total_ns
            out.self_ns += st.self_ns
            out.points += st.points
            if st.durations:
                out.durations.extend(st.durations)
        return out

    def summary(self, horizon: int) -> dict:
        """The per-layer figures derived from the recorded spans."""
        def us_per_call(st):
            return st.total_ns / st.calls / 1e3 if st.calls else 0.0

        def seconds(name, self_time=False):
            st = self.totals(name)
            return (st.self_ns if self_time else st.total_ns) / 1e9

        def p50_us(name, self_time=False):
            durs = self.totals(name).durations
            if not durs:
                return 0.0
            return float(np.median([d[1 if self_time else 0]
                                    for d in durs])) / 1e3

        rounds = ("rounds",)
        h = max(horizon, 1)
        scan = self.totals(SCAN, rounds)
        bisect = self.totals(BISECT, rounds)
        kcall = self.totals(KERNEL_CALL, rounds)
        gen_ns = sum(st.total_ns for name, st in
                     self.stats.get("rounds", {}).items()
                     if name.startswith("experiments.")
                     and name.endswith((".datum", ".outcome")))
        layer = {
            "games.scan_us": us_per_call(scan),
            "games.bisect_us": us_per_call(bisect),
            "games.exposure_interval.calls_per_round":
                self.totals(EXPOSURE_INTERVAL, rounds).calls / h,
            "games.canonical_choice.calls_per_round":
                self.totals("games.Game.canonical_choice", rounds).calls / h,
            "games.canonical_choice.us":
                us_per_call(self.totals("games.Game.canonical_choice")),
            "games.clambda.calls": self.totals("games.Game.clambda").calls,
            "games.clambda.s": seconds("games.Game.clambda"),
            "games.loss.calls": self.totals("games.Game.loss").calls,
            "kernels.kernel_call.points_per_round": kcall.points / h,
            "kernels.kernel_call.us_per_round": kcall.total_ns / h / 1e3,
            "kernels.gram.s": seconds(GRAM),
            "kernels.gram.bytes_computed": self.gram_bytes,
            "kernels.expansion_call.calls":
                self.totals("kernels.KernelExpansion.__call__").calls,
            "kernels.expansion_call.s":
                seconds("kernels.KernelExpansion.__call__"),
            "forecaster.next_forecast.us_p50": p50_us(NEXT_FORECAST),
            "forecaster.update.us_p50":
                p50_us("forecaster.Forecaster.update"),
            "forecaster.coefficients.us_p50":
                p50_us("forecaster.Forecaster.coefficients"),
            "forecaster.bisect_steps_per_round": bisect.calls / h,
            "forecaster.grid_scans_per_round": scan.calls / h,
            "forecaster.solves_per_round":
                sum(c[2] for c in self.round_counts) / h,
            "forecaster.k29_certificate.s":
                seconds("forecaster.Forecaster.k29_certificate"),
            "forecaster.resolution_certificate.s":
                seconds("forecaster.Forecaster.resolution_certificate"),
            "forecaster.branch.root": self.branches.get("root", 0),
            "forecaster.branch.endpoint_positive":
                self.branches.get("endpoint_positive", 0),
            "forecaster.branch.endpoint_negative":
                self.branches.get("endpoint_negative", 0),
            "forecaster.s_residual_max":
                max(self.s_residuals, default=0.0),
            "forecaster.s_residual_total":
                float(sum(abs(r) for r in self.s_residuals)),
            "protocol.decide.us_p50": p50_us(DECIDE),
            "protocol.observe.us_p50": p50_us("protocol.Engine.observe"),
            "protocol.decide.self_us_p50": p50_us(DECIDE, self_time=True),
            "protocol.observe.self_us_p50":
                p50_us("protocol.Engine.observe", self_time=True),
            "protocol.regret_report.s":
                seconds("protocol.Engine.regret_report"),
            "protocol.comparator_round_losses.calls":
                self.totals("protocol.Engine.comparator_round_losses").calls,
            "protocol.comparator_round_losses.s":
                seconds("protocol.Engine.comparator_round_losses"),
            "protocol.round_log_rows.s":
                seconds("protocol.Engine.round_log_rows"),
            "experiments.config_from_json.s":
                seconds("experiments.ExperimentConfig.from_json"),
            "experiments.run.self_s":
                seconds("experiments.run", self_time=True),
            "experiments.generator_us_per_round": gen_ns / h / 1e3,
            "experiments.certify_log.s": seconds("experiments.certify_log"),
            "experiments.certify_log.self_s":
                seconds("experiments.certify_log", self_time=True),
            "cli.certify.s": seconds("cli.cmd_certify"),
            "cli.certify.self_s": seconds("cli.cmd_certify", self_time=True),
        }
        return layer

