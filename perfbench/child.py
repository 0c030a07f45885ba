"""One benchmark child process: a timed `defcast run`, a set-up probe, or a
timed `defcast certify`.

Usage: python3 perfbench/child.py SPEC.json

SPEC.json names the mode (`run`, `setup` or `certify`), the config and
output paths, whether to trace, and where to write the result JSON.  The
child times the program's public calls from outside: it wraps
`Engine.decide`, `Engine.observe`, `experiments.run_engine` and
`experiments.run` with timers and leaves `src/` untouched.

Between timed sections, outside every timed region, the child also times a
fixed calibration loop (`calibrate`): after set-up, after every CAL_EVERY
rounds and after the last one, after each report, and before and after a
certify call.  The parent uses the samples on both sides of a timed section
to express its time at a reference machine speed.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import numpy as np

CAL_EVERY = 50  # rounds between calibration samples
CAL_LOOPS = 20_000


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The work is the same on every call and touches no defcast code, so its
    time tracks how fast the machine runs Python at that moment.
    """
    a = np.arange(16.0)
    d = {}
    s = 0.0
    t0 = perf_counter_ns()
    for i in range(CAL_LOOPS):
        s += float(np.dot(a, a)) if i % 4 == 0 else i * 0.5
        d[i % 61] = d.get(i % 61, 0) + 1
    return (perf_counter_ns() - t0) / 1e9


class SetupDone(Exception):
    """Raised at the first decide of a set-up probe."""


class RoundTimer:
    """Times decide+observe per round and the report phase of a run.

    Installed after the tracer (if any), so it is the outermost wrapper: work
    it does after stopping its clocks, such as the s_value check, lies
    outside every timed region and every span.  Once a run has finished,
    `run_engine` hands back its engine instead of running again, so further
    calls of `experiments.run` repeat only the report and the export.
    """

    def __init__(self, ex, engine_cls, tracer=None, stop_at_first=False,
                 s_check_every=0):
        self.ex = ex
        self.engine_cls = engine_cls
        self.tracer = tracer
        self.stop_at_first = stop_at_first
        self.s_check_every = s_check_every
        self.first_decide = None  # time.monotonic() at the first decide
        self.latencies_ns: list[int] = []
        self.engine = None
        self.engine_ns = 0
        self.engine_end = 0
        self.report_ns: list[int] = []
        self.cal_setup: list[float] = []
        self.cal_rounds: list[float] = []  # after rounds E, 2E, ... and last
        self.cal_reports: list[float] = []  # after each report
        self.s_checks: list[dict] = []
        self._pending_ns = 0
        self._pending_s = None
        self._patches = []

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        ex, timer = self.ex, self
        decide, observe = self.engine_cls.decide, self.engine_cls.observe
        run_engine, run = ex.run_engine, ex.run

        def timed_decide(engine, x):
            if timer.first_decide is None:
                timer.first_decide = time.monotonic()
                timer.cal_setup = [calibrate() for _ in range(3)]
                if timer.stop_at_first:
                    raise SetupDone
            t0 = perf_counter_ns()
            gamma = decide(engine, x)
            timer._pending_ns = perf_counter_ns() - t0
            n = engine.rounds + 1
            if timer.s_check_every and n % timer.s_check_every == 0:
                f = engine.pending_forecast
                timer.tracer.paused += 1
                try:
                    timer._pending_s = (
                        n, engine.forecaster.s_value(f.p, f.q, x))
                finally:
                    timer.tracer.paused -= 1
            return gamma

        def timed_observe(engine, y):
            t0 = perf_counter_ns()
            observe(engine, y)
            timer.latencies_ns.append(
                timer._pending_ns + perf_counter_ns() - t0)
            if len(timer.latencies_ns) % CAL_EVERY == 0:
                timer.cal_rounds.append(calibrate())
            if timer._pending_s is not None:
                n, s = timer._pending_s
                timer._pending_s = None
                rec = engine.round_log[-1]
                if rec.branch.value == "root":
                    timer.s_checks.append(
                        {"n": n, "s": s, "s_residual": rec.s_residual})

        def timed_run_engine(config):
            if timer.engine is None:
                if timer.tracer is not None:
                    timer.tracer.phase = "rounds"
                t0 = perf_counter_ns()
                timer.engine = run_engine(config)
                cal_s = sum(timer.cal_setup) + sum(timer.cal_rounds)
                timer.engine_ns = perf_counter_ns() - t0 - int(cal_s * 1e9)
                if len(timer.latencies_ns) % CAL_EVERY:
                    timer.cal_rounds.append(calibrate())
                if timer.tracer is not None:
                    timer.tracer.phase = "report"
            timer.engine_end = perf_counter_ns()
            return timer.engine

        def timed_run(config, out_dir):
            artifacts = run(config, out_dir)
            timer.report_ns.append(perf_counter_ns() - timer.engine_end)
            timer.cal_reports.append(calibrate())
            return artifacts

        self._set(self.engine_cls, "decide", timed_decide)
        self._set(self.engine_cls, "observe", timed_observe)
        self._set(ex, "run_engine", timed_run_engine)
        self._set(ex, "run", timed_run)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(spec: dict) -> dict:
    """Run one child job in this process and return its result record."""
    t0 = time.perf_counter()
    import defcast.experiments as ex
    from defcast import cli
    from defcast.protocol import Engine
    import_s = time.perf_counter() - t0

    src = Path(spec["src"]).resolve()
    where = Path(ex.__file__).resolve()
    if src not in where.parents:
        raise RuntimeError(f"defcast imported from {where}, not from {src}")

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = {"mode": spec["mode"], "import_s": import_s,
           "scipy_loaded": int("scipy" in sys.modules)}
    try:
        if spec["mode"] == "certify":
            out.update(_certify(spec, ex, cli, tracer))
        else:
            out.update(_run(spec, ex, Engine, tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["layer"] = tracer.summary(out.get("horizon", 1))
        out["round_counts"] = tracer.round_counts
    out["rss_mb"] = rss_mb()
    return out


def _run(spec, ex, engine_cls, tracer):
    timer = RoundTimer(ex, engine_cls, tracer,
                       stop_at_first=spec["mode"] == "setup",
                       s_check_every=spec.get("s_check_every", 0)
                       if tracer is not None else 0)
    timer.install()
    try:
        config = ex.ExperimentConfig.from_json(spec["config"])
        try:
            artifacts = ex.run(config, spec["out"])
        except SetupDone:
            return {"first_decide": timer.first_decide,
                    "cal_setup": timer.cal_setup}
        hashes = (sha256(artifacts.round_log_path),
                  sha256(artifacts.regret_report_path))
        repeats_agree = []
        for _ in range(spec.get("report_repeats", 1) - 1):
            again = ex.run(config, spec["out"])
            repeats_agree.append(hashes == (
                sha256(again.round_log_path),
                sha256(again.regret_report_path)))
    finally:
        timer.uninstall()
    return {
        "first_decide": timer.first_decide,
        "horizon": config.horizon,
        "latencies_ns": timer.latencies_ns,
        "engine_s": timer.engine_ns / 1e9,
        "report_s": [ns / 1e9 for ns in timer.report_ns],
        "log_sha256": hashes[0],
        "report_sha256": hashes[1],
        "repeats_agree": repeats_agree,
        "report": artifacts.report,
        "s_checks": timer.s_checks,
        "cal_setup": timer.cal_setup,
        "cal_rounds": timer.cal_rounds,
        "cal_reports": timer.cal_reports,
    }


def _certify(spec, ex, cli, tracer):
    """Time `calls` certify calls, with calibration samples around each."""
    log = spec["log"]
    argv = spec.get("certify_argv")
    if tracer is not None:
        tracer.phase = "certify"
    if argv is None:
        # the certify command cannot name a polyline game, so call the
        # function behind it with the game and kernel of the run's config
        config = ex.ExperimentConfig.from_json(spec["config"])
    calls = []
    cal_bounds = [statistics.median(calibrate() for _ in range(3))]
    for _ in range(spec.get("calls", 1)):
        if argv is not None:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                code = cli.main(["certify", "--log", log] + list(argv))
            dt = time.perf_counter() - t0
            result = json.loads(buf.getvalue())
        else:
            t0 = time.perf_counter()
            result = ex.certify_log(log, config.game, config.kernel)
            dt = time.perf_counter() - t0
            code = 0 if result["large_numbers_certificate"]["pass"] else 1
        cal_bounds.append(statistics.median(calibrate() for _ in range(3)))
        calls.append({"certify_s": dt, "exit_code": code,
                      "certificate": result})
    return {"calls": calls, "cal_bounds": cal_bounds}


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    result = run_child(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
