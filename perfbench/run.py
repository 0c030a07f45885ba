#!/usr/bin/env python3
"""defcast benchmark: closed-loop `defcast run` and `defcast certify` timings.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every timed job is a fresh single-process child (perfbench/child.py) with
BLAS and OpenMP pinned to one thread.  With `--trace 0` the command prints
the end-to-end metrics; with `--trace 1` it runs one untraced and one traced
child on the same inputs and prints the per-layer metrics.  Outputs are
checked (certificate verdicts, certify round trip, artifact hashes, and in
the traced run the betting function at sampled roots); every check is an
operation in `attempted`, every failed check one in `failed`.  The last line
of stdout is one JSON object; a full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from child import CAL_EVERY

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH / "out"

COMPARATORS = [{"centers": [], "weights": []},
               {"centers": [-0.5, 0.5], "weights": [0.6, -0.6]}]

WORKLOADS = {
    "square-sobolev-iid": {
        "config": {"game": "square", "kernel": {"kind": "sobolev"},
                   "generator": {"kind": "iid_logistic",
                                 "weights": [0.0, 2.0]},
                   "horizon": 4000},
        "certify_argv": ["--game", "square", "--kernel", "sobolev"],
    },
    "polyline-gaussian-adversarial": {
        "config": {"game": {"kind": "custom",
                            "boundary": [[0.0, 1.0], [0.2, 0.5],
                                         [0.5, 0.2], [1.0, 0.0]]},
                   "kernel": {"kind": "gaussian", "width": 0.5},
                   "generator": {"kind": "adversarial"},
                   "horizon": 1000},
        "certify_argv": None,  # the certify command has no polyline game
    },
    "log-sobolev-audit": {
        "config": {"game": "log", "kernel": {"kind": "sobolev"},
                   "generator": {"kind": "deterministic", "threshold": 0.0,
                                 "noise_rate": 0.1},
                   "horizon": 6000},
        "certify_argv": ["--game", "log", "--kernel", "sobolev"],
    },
}

WARMUP_HORIZON = 50
SETUP_PROBES = 3
CERTIFY_REPEATS = 5  # certify children per timed run
CERTIFY_CALLS = 3  # certify calls per certify child
REPORT_REPEATS = 5  # reports (and exports) per timed run, on one engine
S_CHECK_EVERY = 20  # traced run: check s_value on every 20th round
S_TOL_PER_ROUND = 1e-9  # s_value tolerance: 1e-9 * (1 + rounds so far)
SLOW_FACTOR = 3.0  # a tail round is slower than 3x the median round
# child.calibrate() takes this long at the reference speed; see speed()
CAL_REFERENCE_S = 0.007
DEADLINE_S = 170.0  # the whole command stays below this

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("round_us_p50", "us"),
    ("round_us_p90", "us"),
    ("report_s", "s"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit
    ("games.scan_us", "us"),
    ("games.bisect_us", "us"),
    ("games.exposure_interval.calls_per_round", "count/round"),
    ("games.canonical_choice.calls_per_round", "count/round"),
    ("games.canonical_choice.us", "us"),
    ("games.clambda.calls", "count"),
    ("games.clambda.s", "s"),
    ("games.loss.calls", "count"),
    ("kernels.kernel_call.points_per_round", "count/round"),
    ("kernels.kernel_call.us_per_round", "us/round"),
    ("kernels.gram.s", "s"),
    ("kernels.gram.bytes_computed", "B"),
    ("kernels.expansion_call.calls", "count"),
    ("kernels.expansion_call.s", "s"),
    ("forecaster.next_forecast.us_p50", "us"),
    ("forecaster.update.us_p50", "us"),
    ("forecaster.coefficients.us_p50", "us"),
    ("forecaster.bisect_steps_per_round", "count/round"),
    ("forecaster.grid_scans_per_round", "count/round"),
    ("forecaster.solves_per_round", "count/round"),
    ("forecaster.k29_certificate.s", "s"),
    ("forecaster.resolution_certificate.s", "s"),
    ("forecaster.branch.root", "count"),
    ("forecaster.branch.endpoint_positive", "count"),
    ("forecaster.branch.endpoint_negative", "count"),
    ("forecaster.s_residual_max", "1"),
    ("forecaster.s_residual_total", "1"),
    ("forecaster.cert_margin", "1"),
    ("protocol.decide.us_p50", "us"),
    ("protocol.observe.us_p50", "us"),
    ("protocol.decide.self_us_p50", "us"),
    ("protocol.observe.self_us_p50", "us"),
    ("protocol.regret_report.s", "s"),
    ("protocol.comparator_round_losses.calls", "count"),
    ("protocol.comparator_round_losses.s", "s"),
    ("protocol.round_log_rows.s", "s"),
    ("experiments.import_s", "s"),
    ("experiments.scipy_loaded", "flag"),
    ("experiments.config_from_json.s", "s"),
    ("experiments.run.self_s", "s"),
    ("experiments.generator_us_per_round", "us/round"),
    ("experiments.certify_log.s", "s"),
    ("experiments.certify_log.self_s", "s"),
    ("cli.certify.s", "s"),
    ("cli.certify.self_s", "s"),
    ("trace.overhead_pct", "%"),
    ("tail.round_us_p99", "us"),
    ("tail.round_us_max", "us"),
    ("tail.slow_rounds", "count"),
    ("tail.slow_rounds.bisect_steps_max", "count"),
    ("tail.slow_rounds.grid_scans_max", "count"),
    ("check.s_value_samples", "count"),
    ("check.s_value_excess_max", "1"),
]

# per-layer figures that both the run and the certify child produce; the
# traced run reports their sum, every other figure comes from one child
SUMMED_WITH_CERTIFY = ("kernels.gram.s", "kernels.gram.bytes_computed",
                       "forecaster.k29_certificate.s")


class BenchError(RuntimeError):
    """A child failed or the run could not be measured."""


# -- children -------------------------------------------------------------

class Runner:
    """Launches children one at a time and keeps the command's deadline."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + DEADLINE_S
        self.count = 0
        self.loads: list[tuple[float, float]] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONHASHSEED="0", **THREAD_ENV)

    def launch(self, spec: dict) -> dict:
        self.count += 1
        tag = f"c{self.count:03d}"
        spec = dict(spec, src=str(SRC),
                    result=str(self.work / f"{tag}.result.json"))
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next child")
        load_before = os.getloadavg()[0]
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "killed at the deadline"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        self.loads.append((load_before, os.getloadavg()[0]))
        if code != 0:
            raise BenchError(f"child {tag} ({spec['mode']}) exited {code}")
        record = json.loads(Path(spec["result"]).read_text())
        if "first_decide" in record:
            record["setup_s"] = record["first_decide"] - launched
        return record


def write_config(work: Path, name: str, workload: str, seed: int,
                 horizon: int | None = None) -> Path:
    doc = dict(WORKLOADS[workload]["config"], seed=seed,
               comparators=COMPARATORS)
    if horizon is not None:
        doc["horizon"] = horizon
    path = work / f"{name}.config.json"
    path.write_text(json.dumps(doc))
    return path


def run_spec(config: Path, out: Path, trace=False, mode="run",
             report_repeats=1) -> dict:
    return {"mode": mode, "config": str(config), "out": str(out),
            "trace": trace, "s_check_every": S_CHECK_EVERY,
            "report_repeats": report_repeats}


def certify_spec(workload: str, config: Path, log: Path,
                 trace=False) -> dict:
    return {"mode": "certify", "config": str(config), "log": str(log),
            "certify_argv": WORKLOADS[workload]["certify_argv"],
            "trace": trace, "calls": 1 if trace else CERTIFY_CALLS}


# -- checks ---------------------------------------------------------------

def verdicts(report: dict) -> list[bool]:
    """Every certificate verdict in a regret report, re-checked."""
    out = []
    c = report["large_numbers_certificate"]
    out.append(bool(c["pass"]) and c["lhs"] <= c["rhs"] + c["slack"])
    for row in report["comparators"]:
        out.append(bool(row["pass"]) and row["own_loss"]
                   <= row["comparator_loss"] + row["bound"] + row["slack"])
        r = row["resolution"]
        out.append(bool(r["pass"]) and r["lhs"] <= r["bound"] + r["slack"])
    for point in report.get("regret_curve", []):
        for row in point["comparators"]:
            out.append(bool(row["pass"]) and point["own_loss"]
                       <= row["comparator_loss"] + row["bound"]
                       + row["slack"])
    return out


def certify_matches(call: dict, report: dict) -> bool:
    """certify exited 0 and reproduced the run's certificate exactly."""
    got = call["certificate"]["large_numbers_certificate"]
    want = report["large_numbers_certificate"]
    return call["exit_code"] == 0 and all(
        got[k] == want[k] for k in ("lhs", "rhs", "slack"))


def s_check_ok(check: dict) -> bool:
    tol = S_TOL_PER_ROUND * (1 + check["n"])
    return abs(check["s"]) <= check["s_residual"] + tol


def score(runs: list[dict], certs: list[dict]) -> tuple[int, int, dict]:
    """(attempted, failed, details) over every operation and output check.

    Operations are rounds, certificate verdicts, certify calls, artifact
    hash comparisons (between runs of the same inputs, and between a run
    and its repeated reports), and sampled s_value checks.  A round only
    fails by crashing its child, which aborts the benchmark, so rounds add
    to `attempted` only.
    """
    rounds = sum(r["horizon"] for r in runs)
    vs = [v for r in runs for v in verdicts(r["report"])]
    cs = [certify_matches(call, runs[0]["report"])
          for c in certs for call in c["calls"]]
    hashes = [(r["log_sha256"], r["report_sha256"]) == (
        runs[0]["log_sha256"], runs[0]["report_sha256"]) for r in runs[1:]]
    hashes += [ok for r in runs for ok in r["repeats_agree"]]
    ss = [s_check_ok(c) for r in runs for c in r["s_checks"]]
    checks = {"verdicts": vs, "certify": cs, "hashes": hashes,
              "s_value": ss}
    attempted = rounds + sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())
    details = {k: {"attempted": len(v), "failed": v.count(False)}
               for k, v in checks.items()}
    details["rounds"] = {"attempted": rounds, "failed": 0}
    return attempted, failed, details


# -- statistics -----------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (q in 0..100) of a nonempty list."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- machine speed ----------------------------------------------------------
#
# On a shared host the same work can take twice as long from one moment to
# the next.  Children time `child.calibrate()`, a fixed loop that touches no
# defcast code, on both sides of every timed section.  A section's time is
# multiplied by CAL_REFERENCE_S over the mean of the samples around it: the
# time it would have taken with the machine at the reference speed.  The
# unadjusted figures are printed and recorded too.

def _factor(before: float, after: float) -> float:
    return CAL_REFERENCE_S / (0.5 * (before + after))


class Speed:
    """Per-section adjustment factors of a child's times."""

    @staticmethod
    def setup(r) -> float:
        return CAL_REFERENCE_S / statistics.median(r["cal_setup"])

    @staticmethod
    def rounds(r) -> list[float]:
        bounds = [r["cal_setup"][-1]] + r["cal_rounds"]
        return [_factor(bounds[i // CAL_EVERY], bounds[i // CAL_EVERY + 1])
                for i in range(len(r["latencies_ns"]))]

    @staticmethod
    def reports(r) -> list[float]:
        bounds = r["cal_rounds"][-1:] + r["cal_reports"]
        return [_factor(a, b) for a, b in zip(bounds, bounds[1:])]

    @staticmethod
    def certify(c) -> list[float]:
        bounds = c["cal_bounds"]
        return [_factor(a, b) for a, b in zip(bounds, bounds[1:])]


class Unadjusted:
    """Factors of 1: the times as the clock read them."""

    setup = staticmethod(lambda r: 1.0)
    rounds = staticmethod(lambda r: [1.0] * len(r["latencies_ns"]))
    reports = staticmethod(lambda r: [1.0] * len(r["report_s"]))
    certify = staticmethod(lambda c: [1.0] * len(c["calls"]))


def round_latencies_us(runs, speed=Speed) -> list[float]:
    return [ns / 1e3 * f for r in runs
            for ns, f in zip(r["latencies_ns"], speed.rounds(r))]


def rounds_per_s(runs, speed=Speed) -> float:
    total_us = sum(round_latencies_us(runs, speed))
    return sum(r["horizon"] for r in runs) / (total_us / 1e6)


def tail(run: dict, counts=None) -> dict:
    """Tail diagnostics of one run: p99, max, and the slow rounds."""
    lat = [ns / 1e3 for ns in run["latencies_ns"]]
    median = statistics.median(lat)
    slow = [n for n, v in enumerate(lat, start=1) if v > SLOW_FACTOR * median]
    out = {"round_us_p99": percentile(lat, 99), "round_us_max": max(lat),
           "slow_rounds": len(slow), "slow_round_list": []}
    for n in slow:
        row = {"n": n, "us": lat[n - 1]}
        if counts is not None:
            b, s, solves = counts[n - 1]
            row.update(bisect_steps=b, grid_scans=s, solves=solves)
        out["slow_round_list"].append(row)
    return out


def end_to_end(runs, probes, certs, speed=Speed) -> dict:
    """The end-to-end metrics, with times adjusted by `speed`."""
    lat = round_latencies_us(runs, speed)
    setups = [r["setup_s"] * speed.setup(r) for r in probes + runs]
    reports = [s * f for r in runs
               for s, f in zip(r["report_s"], speed.reports(r))]
    certifies = [call["certify_s"] * f for c in certs
                 for call, f in zip(c["calls"], speed.certify(c))]
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "rounds_per_s": (rounds_per_s(runs, speed), len(lat)),
        "round_us_p50": (percentile(lat, 50), len(lat)),
        "round_us_p90": (percentile(lat, 90), len(lat)),
        "report_s": (statistics.median(reports), len(reports)),
        "certify_s": (statistics.median(certifies), len(certifies)),
        "peak_rss_mb": (max(r["rss_mb"] for r in runs), len(runs)),
    }
    return {name: {"value": values[name][0], "unit": unit,
                   "samples": values[name][1]}
            for name, unit in END_TO_END}


def per_layer(untraced, traced, cert) -> tuple[dict, dict]:
    """The per-layer metrics, and the untraced run's tail joined with the
    traced run's per-round counts."""
    layer = dict(traced["layer"])
    for key in ("experiments.certify_log.s", "experiments.certify_log.self_s",
                "cli.certify.s", "cli.certify.self_s"):
        layer[key] = cert["layer"][key]
    for key in SUMMED_WITH_CERTIFY:
        layer[key] = traced["layer"][key] + cert["layer"][key]
    c = traced["report"]["large_numbers_certificate"]
    layer["forecaster.cert_margin"] = c["rhs"] + c["slack"] - c["lhs"]
    layer["experiments.import_s"] = traced["import_s"]
    layer["experiments.scipy_loaded"] = traced["scipy_loaded"]
    layer["trace.overhead_pct"] = 100.0 * (
        rounds_per_s([untraced]) / rounds_per_s([traced]) - 1.0)
    t = tail(untraced, traced["round_counts"])
    slow = t["slow_round_list"]
    layer["tail.round_us_p99"] = t["round_us_p99"]
    layer["tail.round_us_max"] = t["round_us_max"]
    layer["tail.slow_rounds"] = t["slow_rounds"]
    layer["tail.slow_rounds.bisect_steps_max"] = max(
        (r["bisect_steps"] for r in slow), default=0)
    layer["tail.slow_rounds.grid_scans_max"] = max(
        (r["grid_scans"] for r in slow), default=0)
    checks = traced["s_checks"]
    layer["check.s_value_samples"] = len(checks)
    layer["check.s_value_excess_max"] = max(
        (abs(c["s"]) - c["s_residual"] for c in checks), default=0.0)
    return {name: {"value": layer[name], "unit": unit}
            for name, unit in PER_LAYER}, t


# -- the command ----------------------------------------------------------

def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "threads": THREAD_ENV}


def measure(workload: str, seed: int, seconds: int, trace: bool,
            work: Path, started: float) -> dict:
    runner = Runner(work, started)
    # untimed warm-up: compiles bytecode, warms the file cache
    warm_cfg = write_config(work, "warmup", workload, seed, WARMUP_HORIZON)
    runner.launch(run_spec(warm_cfg, work / "warmup"))
    runner.launch(certify_spec(workload, warm_cfg,
                               work / "warmup" / "round_log.csv"))

    config = write_config(work, "bench", workload, seed)
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "machine": machine()}
    if trace:
        untraced = runner.launch(run_spec(config, work / "untraced"))
        traced = runner.launch(run_spec(config, work / "traced", trace=True))
        cert = runner.launch(certify_spec(
            workload, config, work / "traced" / "round_log.csv", trace=True))
        runs, certs = [untraced, traced], [cert]
        metrics, t = per_layer(untraced, traced, cert)
        result["tail"] = t
    else:
        probes = [runner.launch(run_spec(config, work / "probe",
                                         mode="setup"))
                  for _ in range(SETUP_PROBES)]
        # timed runs: start another only if it should end within `seconds`
        runs = []
        t0 = time.monotonic()
        while True:
            t_child = time.monotonic()
            runs.append(runner.launch(run_spec(
                config, work / f"run{len(runs)}",
                report_repeats=REPORT_REPEATS)))
            now = time.monotonic()
            if now - t0 + (now - t_child) > seconds:
                break
        certs = [runner.launch(certify_spec(
            workload, config, work / "run0" / "round_log.csv"))
            for _ in range(CERTIFY_REPEATS)]
        metrics = end_to_end(runs, probes, certs)
        result["unadjusted"] = end_to_end(runs, probes, certs, Unadjusted)
        result["speed"] = [Speed.setup(r) for r in probes + runs]
        result["tail"] = [tail(r) for r in runs]
    attempted, failed, details = score(runs, certs)
    result.update(
        metrics=metrics, attempted=attempted, failed=failed, checks=details,
        hashes={"round_log_sha256": runs[0]["log_sha256"],
                "regret_report_sha256": runs[0]["report_sha256"]},
        loadavg_1min=runner.loads,
        generator_us_per_round=[
            (r["engine_s"] * 1e9 - sum(r["latencies_ns"])) / r["horizon"]
            / 1e3 for r in runs])
    return result


def print_human(result: dict) -> None:
    out = sys.stdout
    m = result["machine"]
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}", file=out)
    print(f"# nproc {m['nproc']} python {m['python']} numpy {m['numpy']} "
          f"scipy {m['scipy']} threads {m['threads']}", file=out)
    loads = result["loadavg_1min"]
    print("# loadavg 1min before/after each child: " + " ".join(
        f"{a:.2f}/{b:.2f}" for a, b in loads), file=out)
    for name, v in result["metrics"].items():
        samples = f" (n={v['samples']})" if "samples" in v else ""
        print(f"{name:<44} {v['value']:>16.6g} {v['unit']}{samples}",
              file=out)
    if "speed" in result:
        print("# speed factor at set-up of each probe and run: "
              + " ".join(f"{f:.3f}" for f in result["speed"]), file=out)
        for name, v in result["unadjusted"].items():
            print(f"# unadjusted {name:<33} {v['value']:>16.6g} {v['unit']}",
                  file=out)
    ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':<44} {ratio:>16.6g} 1 "
          f"(n={result['attempted']})", file=out)
    for kind, c in result["checks"].items():
        print(f"# check {kind}: {c['failed']} failed of {c['attempted']}",
              file=out)
    tails = result["tail"] if isinstance(result["tail"], list) \
        else [result["tail"]]
    for t in tails:
        print(f"# tail (not gated): round_us_p99 {t['round_us_p99']:.1f} us, "
              f"round_us_max {t['round_us_max']:.1f} us, "
              f"{t['slow_rounds']} rounds > {SLOW_FACTOR:g}x median", file=out)
        for row in t["slow_round_list"][:20]:
            print(f"#   slow round {row}", file=out)
    gen = ", ".join(f"{g:.1f}" for g in result["generator_us_per_round"])
    print(f"# data generator (not in the round latency): {gen} us/round",
          file=out)
    h = result["hashes"]
    print(f"# sha256 round_log {h['round_log_sha256']} "
          f"regret_report {h['regret_report_sha256']}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1",
              file=sys.stderr)
        return 2
    if not (SRC / "defcast" / "__init__.py").is_file():
        print(f"error: no defcast sources at {SRC}; run from the root of a "
              "defcast checkout", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), work, started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = OUT / (f"{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(result, indent=1) + "\n")
    print_human(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
