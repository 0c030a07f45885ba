"""Smoke test of the benchmark at tiny horizons.

Not collected by a plain `pytest` run (the file name does not match
`test_*.py`); run it explicitly from the repository root:

    python3 -m pytest -q perfbench/check_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run as bench  # noqa: E402

TINY = 30
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for workload in bench.WORKLOADS.values():
        monkeypatch.setitem(workload["config"], "horizon", TINY)
    monkeypatch.setattr(bench, "WARMUP_HORIZON", 5)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    monkeypatch.setattr(bench, "CERTIFY_REPEATS", 1)
    monkeypatch.setattr(bench, "CERTIFY_CALLS", 1)
    monkeypatch.setattr(bench, "S_CHECK_EVERY", 5)
    monkeypatch.setattr(bench, "SRC", ROOT / "src")


def run_bench(capsys, workload, trace, seed=3):
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_is_emitted_with_a_unit(tiny, capsys, workload, trace):
    out, result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= TINY
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
            assert re.search(rf"^{re.escape(m['name'])} +\S+ "
                             rf"{re.escape(m['unit'])} \(n=\d+\)$",
                             out, re.M), m["name"]
    assert re.search(r"^failed_ratio +0 1 \(n=\d+\)$", out, re.M)


def test_traced_counts_and_hashes_repeat(tiny, capsys):
    workload = "square-sobolev-iid"
    _, first = run_bench(capsys, workload, 1)
    _, second = run_bench(capsys, workload, 1)
    # algorithmic counts; tail.* counts depend on which rounds ran slowly
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "count/round", "B")
              and not m["name"].startswith("tail.")]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    record = bench.OUT / f"{workload}-seed3-trace1.json"
    hashes = json.loads(record.read_text())["hashes"]
    _, untraced = run_bench(capsys, workload, 0)
    record = bench.OUT / f"{workload}-seed3-trace0.json"
    assert json.loads(record.read_text())["hashes"] == hashes


def test_forced_certificate_failure_raises_failed_ratio(tmp_path,
                                                        monkeypatch):
    from defcast.forecaster import Forecaster

    config = bench.write_config(tmp_path, "tiny", "square-sobolev-iid", 3,
                                horizon=TINY)
    spec = dict(bench.run_spec(config, tmp_path / "ok"),
                src=str(ROOT / "src"))
    attempted, failed, _ = bench.score([child.run_child(spec)], [])
    assert failed == 0

    original = Forecaster.k29_certificate

    def broken(self):
        lhs, rhs = original(self)
        return rhs + 1.0, rhs

    monkeypatch.setattr(Forecaster, "k29_certificate", broken)
    bad = child.run_child(dict(spec, out=str(tmp_path / "bad")))
    attempted_bad, failed_bad, details = bench.score([bad], [])
    assert details["verdicts"]["failed"] == 1
    assert failed_bad / attempted_bad > failed / attempted


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "square-sobolev-iid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
