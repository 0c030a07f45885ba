"""Paired perfbench runs of two commits, summarised as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent REV --change REV --pairs 10 \
        --out BENCH_15.json

Each commit is exported clean with `git archive` into a temporary
directory. For every pair (seeds --seed, --seed + 1, ...) and every workload
in BENCHMARK.json, both exports run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

one after the other, T being BENCHMARK.json's run_seconds. The side that
runs first alternates from pair to pair, so a drift of the machine's speed
falls on both sides alike. The summary
holds, per workload and end-to-end metric, each side's runs, median and
quartiles, how many pairs the change won, a verdict, and whether the two
sides wrote byte-identical artifacts. It is rewritten after every pair.
The script only runs perfbench; it changes nothing in the checkout.

A metric's verdict, with its bound from BENCHMARK.json taken relative to
the parent's median:

- regressed: the change's median is worse than the parent's by more than
  the bound;
- gain: the change won at least 9 of 10 pairs, and its median is better
  than the parent's by more than the parent's interquartile range;
- unresolved: the parent's interquartile range is wider than the bound,
  and not every run of the change reads better than every parent run;
- ok: none of these.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """A clean copy of the committed files of `rev` in `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def perfbench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """perfbench's result line and its full record for one run in `tree`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return {"result": result, "record": json.loads(record.read_text())}


def stats(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "runs": list(values)}


def verdict(gate: dict, parent: dict, change: dict, wins: int) -> str:
    """regressed, gain, unresolved or ok: see the module docstring."""
    sign = 1 if gate["better"] == "lower" else -1  # sign * value: lower wins
    base = parent["median"]
    if sign * (change["median"] - base) > gate["bound"] * base:
        return "regressed"
    if wins >= 0.9 * len(parent["runs"]) \
            and sign * (base - change["median"]) > parent["iqr"]:
        return "gain"
    if parent["iqr"] > gate["bound"] * base and \
            max(sign * c for c in change["runs"]) \
            >= min(sign * p for p in parent["runs"]):
        return "unresolved"
    return "ok"


def summarise(runs: dict, seeds: list, gates: list) -> dict:
    """The per-workload summary of runs[workload][side], lists of runs of
    equal length, one per pair."""
    out = {}
    for workload, pair in runs.items():
        hashes = {side: [r["record"]["hashes"] for r in pair[side]]
                  for side in SIDES}
        metrics = {}
        for gate in gates:
            name = gate["name"]
            vals = {side: [r["result"]["metrics"][name]["value"]
                           for r in pair[side]] for side in SIDES}
            sign = 1 if gate["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(vals["parent"], vals["change"]))
            parent, change = stats(vals["parent"]), stats(vals["change"])
            metrics[name] = {
                "unit": gate["unit"], "better": gate["better"],
                "bound": gate["bound"], "parent": parent, "change": change,
                "change_wins": wins,
                "median_change_rel": change["median"] / parent["median"] - 1,
                "verdict": verdict(gate, parent, change, wins)}
        out[workload] = {
            "pairs": len(pair["parent"]),
            "seeds": seeds[:len(pair["parent"])],
            "failed": {side: sum(r["result"]["failed"] for r in pair[side])
                       for side in SIDES},
            "correct": {side: all(r["result"]["correct"] for r in pair[side])
                        for side in SIDES},
            "artifact_hashes_identical":
                hashes["parent"] == hashes["change"],
            "metrics": metrics}
    return out


def machine_line(record: dict) -> str:
    m = record["machine"]
    threads = ", ".join(f"{k}={v}" for k, v in m["threads"].items()
                        if k == "OPENBLAS_NUM_THREADS")
    return (f"{m['nproc']} vCPU, {m['platform']}, Python {m['python']}, "
            f"numpy {m['numpy']}, {threads}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit before")
    ap.add_argument("--change", required=True, help="the commit after")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True, help="summary JSON path")
    ap.add_argument("--seed", type=int, default=911, help="first pair's seed")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change)}
    seeds = [args.seed + i for i in range(args.pairs)]
    summary = {
        "change": git("log", "-1", "--format=%s", revs["change"]),
        "parent_commit": revs["parent"], "change_commit": revs["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "machine": None,
        "method": "parent and change are each run from a clean git archive "
                  "export; pairs at consecutive seeds, with the side that "
                  "runs first alternating; values are perfbench's machine-"
                  "speed-adjusted end-to-end metrics; q1/q3 are the 25th/75th "
                  "percentiles (numpy linear); a win is the change reading "
                  "strictly better than the parent in the same pair",
        "workloads": {}}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {side: export(revs[side], work / side) for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    run = perfbench(trees[side], workload, seed, seconds)
                    runs[workload][side].append(run)
                    summary["machine"] = machine_line(run["record"])
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {workload} "
                          f"{side}: " + " ".join(
                              f"{k}={v['value']:.6g}" for k, v in
                              run["result"]["metrics"].items()), flush=True)
            summary["workloads"] = summarise(runs, seeds,
                                             bench["end_to_end"])
            Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for workload, result in summary["workloads"].items():
        print(f"{workload}: " + " ".join(
            f"{name}={m['verdict']}" for name, m in result["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
