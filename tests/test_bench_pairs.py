"""The verdicts of scripts/bench_pairs.py's summary, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

GATES = [{"name": "rounds_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.2},
         {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def perfbench_run(rounds_per_s, setup_s, hashes="same"):
    return {"result": {"failed": 0, "correct": True, "metrics": {
        "rounds_per_s": {"value": rounds_per_s},
        "setup_s": {"value": setup_s}}},
        "record": {"hashes": {"round_log": hashes}}}


def summary(parent, change, change_hashes="same"):
    """summarise over pairs (parent, change) of (rounds_per_s, setup_s)."""
    runs = {"w": {"parent": [perfbench_run(*v) for v in parent],
                  "change": [perfbench_run(*v, hashes=change_hashes)
                             for v in change]}}
    return bench_pairs.summarise(runs, list(range(len(parent))), GATES)["w"]


def verdicts(parent, change):
    return {name: m["verdict"]
            for name, m in summary(parent, change)["metrics"].items()}


STEADY = [(100.0 + i, 1.0 + 0.01 * i) for i in range(10)]  # IQR 4.5%


@pytest.mark.parametrize("change, expect", [
    # the same runs: no verdict either way
    (STEADY, {"rounds_per_s": "ok", "setup_s": "ok"}),
    # rounds_per_s -25%, setup_s +30%: worse than both bounds
    ([(0.75 * r, 1.3 * s) for r, s in STEADY],
     {"rounds_per_s": "regressed", "setup_s": "regressed"}),
    # -15% and +20%: worse, but inside the bounds
    ([(0.85 * r, 1.2 * s) for r, s in STEADY],
     {"rounds_per_s": "ok", "setup_s": "ok"}),
    # better in every pair by more than the parent's IQR
    ([(1.1 * r, 0.9 * s) for r, s in STEADY],
     {"rounds_per_s": "gain", "setup_s": "gain"}),
    # better in every pair, but by less than the parent's IQR
    ([(r + 0.5, s - 0.001) for r, s in STEADY],
     {"rounds_per_s": "ok", "setup_s": "ok"}),
])
def test_verdict_against_steady_parent_runs(change, expect):
    assert verdicts(STEADY, change) == expect


def test_gain_needs_nine_wins_in_ten():
    change = [(1.1 * r, 0.9 * s) for r, s in STEADY]
    change[:2] = STEADY[:2]  # two ties: 8 wins
    assert verdicts(STEADY, change) == {"rounds_per_s": "ok",
                                        "setup_s": "ok"}
    change[1] = (1.1 * STEADY[1][0], 0.9 * STEADY[1][1])  # 9 wins
    assert verdicts(STEADY, change) == {"rounds_per_s": "gain",
                                        "setup_s": "gain"}


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's setup_s IQR is about 100% of its median
    noisy = [(100.0, s) for s in (0.5, 0.6, 0.7, 1.0, 1.0, 1.1, 1.3, 2.0,
                                  2.2, 2.5)]
    same = verdicts(noisy, noisy)
    assert same == {"rounds_per_s": "ok", "setup_s": "unresolved"}
    # a hair better in every pair, but not better than every parent run
    lower = [(100.0, s * 0.99) for _, s in noisy]
    assert verdicts(noisy, lower)["setup_s"] == "unresolved"
    # every change run better than every parent run, by less than the IQR
    faster = [(100.0, 0.4)] * 10
    assert verdicts(noisy, faster)["setup_s"] == "ok"


def test_summary_counts_wins_and_compares_artifacts():
    change = [(r + 1.0, s) for r, s in STEADY]
    got = summary(STEADY, change)
    assert got["pairs"] == 10 and got["failed"] == {"parent": 0, "change": 0}
    assert got["artifact_hashes_identical"]
    assert got["metrics"]["rounds_per_s"]["change_wins"] == 10
    assert got["metrics"]["setup_s"]["change_wins"] == 0  # ties
    assert not summary(STEADY, change, "other")["artifact_hashes_identical"]
