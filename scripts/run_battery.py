#!/usr/bin/env python3
"""Run the standard battery: three games x four data sources.

Writes per-run artifacts under the output directory and prints a summary
table of cumulative losses, certificate slack, and worst-case bounds.  Below
each row go the run's certificate margins and the SHA-256 of its round log
and regret report; both are written to summary.json, so two checkouts can
be compared for byte-identical artifacts with one diff of their
summary.json files, and a verdict that rests on a rounding-sized margin
shows up.  The large-number margin is the report's `margin`, rhs + slack -
lhs as the certificate computes it (exactly, for the Sobolev kernel); the
resolution margin is the smallest bound + slack - lhs over the comparators
other than the zero rule.  Each run's round log is then certified again, as
`defcast certify` does; a certificate that differs from the run's in any
bit is printed and makes the exit code 1.  Every run uses seed 77.

Usage: python3 scripts/run_battery.py [--horizon N] [--out DIR]
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defcast.experiments import (ExperimentConfig, certify_log,  # noqa: E402
                                 run)

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" \
    / "replay_fixture.csv"

GENERATORS = {
    "iid_logistic": {"kind": "iid_logistic", "weights": [0.0, 2.0]},
    "noisy_threshold": {"kind": "deterministic", "threshold": 0.0,
                        "noise_rate": 0.1},
    "adversarial": {"kind": "adversarial"},
    "replay": {"kind": "replay", "path": str(FIXTURE)},
}

SEED = 77

COMPARATORS = [
    {"centers": [], "weights": []},
    {"centers": [-0.5, 0.5], "weights": [0.6, -0.6]},
]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def margins(report) -> dict:
    cert = report["large_numbers_certificate"]
    rows = [r for r in report["comparators"] if r["norm"] > 0.0] \
        or report["comparators"]
    return {
        "large_numbers": cert["margin"],
        # the zero rule's certificate is 0 <= 0 exactly, whatever the run
        "resolution_min": min((r["resolution"]["bound"]
                               + r["resolution"]["slack"]
                               - r["resolution"]["lhs"]) for r in rows),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=1000)
    ap.add_argument("--out", default="battery_out")
    args = ap.parse_args()

    header = f"{'game':<9} {'generator':<16} {'loss':>10} {'cert slack':>11} " \
             f"{'worst regret':>13} {'bound':>9} {'time':>7}"
    print(header)
    print("-" * len(header))
    all_ok = certified = True
    hashes = {}
    run_margins = {}
    for game in ("square", "absolute", "log"):
        for gen_name, gen_doc in GENERATORS.items():
            doc = {
                "game": game,
                "kernel": {"kind": "sobolev"},
                "generator": gen_doc,
                "horizon": args.horizon,
                "seed": SEED,
                "comparators": COMPARATORS,
            }
            name = f"{game}_{gen_name}"
            config = ExperimentConfig.from_json(doc)
            t0 = time.perf_counter()
            artifacts = run(config, Path(args.out) / name)
            dt = time.perf_counter() - t0
            rep = artifacts.report
            # repr tells every float apart that differs in a bit (-0.0 too)
            cert = certify_log(artifacts.round_log_path, config.game,
                               config.kernel)["large_numbers_certificate"]
            if repr(cert) != repr(rep["large_numbers_certificate"]):
                certified = False
                print(f"CERTIFY MISMATCH {name}: run "
                      f"{rep['large_numbers_certificate']!r}, "
                      f"certify {cert!r}")
            worst = max(r["realized_regret"] for r in rep["comparators"])
            bound = max(r["bound"] for r in rep["comparators"])
            all_ok = all_ok and artifacts.all_pass
            print(f"{game:<9} {gen_name:<16} "
                  f"{rep['cumulative_loss']:>10.3f} "
                  f"{rep['large_numbers_certificate']['slack']:>11.2e} "
                  f"{worst:>13.3f} {bound:>9.3f} {dt:>6.2f}s")
            run_margins[name] = margins(rep)
            print(f"  margins large_numbers "
                  f"{run_margins[name]['large_numbers']:.3e} resolution_min "
                  f"{run_margins[name]['resolution_min']:.3e}")
            hashes[name] = {
                "round_log_sha256": sha256(artifacts.round_log_path),
                "regret_report_sha256": sha256(artifacts.regret_report_path),
            }
            print(f"  round_log {hashes[name]['round_log_sha256']}")
            print(f"  regret_report {hashes[name]['regret_report_sha256']}")
    print()
    print("all inequalities pass" if all_ok else "INEQUALITY VIOLATED")
    print("every certify reproduces its run" if certified
          else "CERTIFY MISMATCH")
    summary = {"all_pass": all_ok, "horizon": args.horizon,
               "seed": SEED, "margins": run_margins, "sha256": hashes}
    (Path(args.out) / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return 0 if all_ok and certified else 1


if __name__ == "__main__":
    sys.exit(main())
