#!/usr/bin/env python3
"""Run and certify three fixed runs at a large horizon (default 10^5).

The runs are square and log loss with the Sobolev kernel on iid_logistic
data, and `polyline`: a four-vertex polyline game with the Gaussian kernel
(width 0.5) on adversarial data, the perfbench polyline workload's config.
For each, the script writes a config at --horizon and seed 7, runs
`defcast run` on it and then `defcast certify` on the run's round log, with
the run's game and kernel as JSON.  Each of the six commands runs in a
process of its own, which times its phases and reads its own peak RSS
(ru_maxrss of RUSAGE_SELF; RUSAGE_CHILDREN would merge the children).
Per run it prints:

- run: the process's wall time, and the time of its phases: the rounds, the
  data generator's share of them, the report and the round-log export;
- certify: the process's wall time, and the time to parse the log and to
  compute the certificate;
- each process's ru_maxrss;
- the run's verdicts, the large-number margin of the run and of certify,
  and whether certify reproduced the run's certificate bit for bit;
- the round log's sha256.

The exit code is 0 when every verdict passes and each certify reproduces
its run, else 1.

Usage: python3 scripts/large_run.py [--horizon N] [--out DIR]
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"

SEED = 7
IID = {"kind": "iid_logistic", "weights": [0.0, 2.0]}
# name: (game, kernel, generator)
RUNS = {"square": ("square", "sobolev", IID),
        "log": ("log", "sobolev", IID),
        "polyline": ({"kind": "custom",
                      "boundary": [[0, 1], [0.2, 0.5], [0.5, 0.2], [1, 0]]},
                     {"kind": "gaussian", "width": 0.5},
                     {"kind": "adversarial"})}
COMPARATORS = [{"centers": [], "weights": []},
               {"centers": [-0.5, 0.5], "weights": [0.6, -0.6]}]


def child(command: str, argv: list) -> None:
    """Run one defcast command in this process, then print one JSON line:
    its exit code, the seconds spent in each phase and ru_maxrss."""
    import resource

    from defcast import cli, experiments
    from defcast.forecaster import Forecaster
    from defcast.protocol import Engine

    phases = {"run": [(experiments, "run_engine", "rounds"),
                      (experiments.UniformData, "datum", "generator"),
                      (experiments.IidLogistic, "outcome", "generator"),
                      (experiments.AdversarialAntiForecast, "outcome",
                       "generator"),
                      (Engine, "regret_report", "report"),
                      (Engine, "regret_curve", "report"),
                      (Engine, "round_log_rows", "export")],
              "certify": [(experiments, "read_round_log", "parse"),
                          (Forecaster, "large_numbers_certificate",
                           "certificate")]}[command]
    spans = dict.fromkeys([phase for _, _, phase in phases], 0.0)

    def timed(fn, phase):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[phase] += time.perf_counter() - t
        return wrapper

    for owner, attr, phase in phases:
        setattr(owner, attr, timed(getattr(owner, attr), phase))
    t = time.perf_counter()
    code = cli.main([command, *argv])
    spans["total"] = time.perf_counter() - t
    print(json.dumps({"code": code, "spans": spans, "maxrss_kb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


def step(command: str, *argv: str) -> tuple[dict, str]:
    """child() in a new process: its record, with the process's wall time,
    and the command's own output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC),
                                                       str(SCRIPTS)]))
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, large_run; "
         "large_run.child(sys.argv[1], sys.argv[2:])", command, *argv],
        env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if record.get("code", 2) == 2:  # a crash, or an error the CLI reported
        raise SystemExit(f"defcast {command} failed:\n{proc.stderr}")
    record["wall"] = wall
    return record, "\n".join(lines[:-1])


def times(record: dict) -> str:
    return ", ".join(f"{k} {v:.2f} s" for k, v in record["spans"].items()
                     if k != "total")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--horizon", type=int, default=100_000)
    ap.add_argument("--out", default="large_run_out")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print(f"horizon {args.horizon}, seed {SEED}; square and log: Sobolev "
          f"kernel, iid_logistic data; polyline: Gaussian kernel, "
          f"adversarial data")
    ok = True
    for name, (game, kernel, generator) in RUNS.items():
        run_dir = out / name
        config = out / f"{name}.config.json"
        config.write_text(json.dumps({
            "game": game, "kernel": kernel, "generator": generator,
            "horizon": args.horizon, "seed": SEED,
            "comparators": COMPARATORS}))
        ran, _ = step("run", "--config", str(config), "--out", str(run_dir))
        log = run_dir / "round_log.csv"
        certified, printed = step("certify", "--log", str(log),
                                  "--game", json.dumps(game),
                                  "--kernel", json.dumps(kernel))
        report = json.loads((run_dir / "regret_report.json").read_text())
        cert = report["large_numbers_certificate"]
        again = json.loads(printed)["large_numbers_certificate"]
        same = again == cert
        ok = ok and ran["code"] == 0 and certified["code"] == 0 and same
        for command, record in (("run", ran), ("certify", certified)):
            print(f"{name:<8} {command:<7} {record['wall']:7.2f} s wall "
                  f"({times(record)}); ru_maxrss "
                  f"{record['maxrss_kb'] / 1024:.1f} MB")
        print(f"{name:<8} verdicts: run "
              f"{'pass' if ran['code'] == 0 else 'FAIL'}; large-number "
              f"margin {cert['margin']!r} (lhs {cert['lhs']!r}, rhs "
              f"{cert['rhs']!r}, slack {cert['slack']!r}); certify "
              f"{'pass' if again['pass'] else 'FAIL'}, "
              f"{'reproduces the run' if same else 'DIFFERS from the run'}")
        print(f"{name:<8} round log sha256 "
              f"{hashlib.sha256(log.read_bytes()).hexdigest()}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
