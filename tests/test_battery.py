"""The standard battery reproduces its recorded summary bit for bit."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defcast.experiments import ExperimentConfig, run
from defcast.games import Game
from defcast.kernels import Kernel
from exact_margin import exact_margins, main as exact_margin_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "battery_summary.json"
SCRIPT = ROOT / "scripts" / "run_battery.py"
# the fixture's numpy; another release may round the last bits differently
RECORDED_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"summary recorded with numpy {RECORDED_NUMPY}")
def test_battery_reproduces_recorded_summary(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT),
         "--horizon", "1000", "--out", str(tmp_path)],
        capture_output=True, text=True)
    summary = tmp_path / "summary.json"
    assert summary.exists(), proc.stderr
    got = json.loads(summary.read_text())
    want = json.loads(FIXTURE.read_text())
    moved = [name for name in want["sha256"]
             if got["sha256"].get(name) != want["sha256"][name]
             or got["margins"].get(name) != want["margins"][name]]
    assert not moved, f"artifacts or margins moved in: {', '.join(moved)}"
    assert summary.read_bytes() == FIXTURE.read_bytes()
    assert proc.returncode == 0, proc.stdout
    assert "every certify reproduces its run" in proc.stdout


# Runs at H = 32, seed 77 whose verdict is not their exact margin's sign;
# each exact margin is below an ulp of its lhs, 8.9e-16.
# absolute_adversarial's exact margin is +3.1e-16 (+2.0e-16 with a 50-digit
# kernel), and its verdict is a fail: its rhs, a float sum, is 0.61 ulp
# below the exact one, and its lhs 4.4e-16 above the 50-digit one, from
# numpy's exp in the kernel factors.  absolute_iid_logistic's is -1.25e-16
# (-2.3e-16), and its verdict is a pass: its lhs is 3.4e-16 below the
# 50-digit one, and the slack undercounts 2 sum r_n S_n
SUB_ULP_DISAGREEMENTS = ["absolute_adversarial", "absolute_iid_logistic"]


@pytest.mark.parametrize("bits_off", [0, 1])
def test_battery_fails_when_certify_differs_in_one_bit(tmp_path, monkeypatch,
                                                      capsys, bits_off):
    # H = 32, seed 77.  With bits_off = 0 nothing differs, and main() fails
    # exactly when some run's exact margin is negative, as it is on
    # absolute_iid_logistic (-1.25e-16 against a slack of 5.8e-16: the
    # slack undercounts 2 sum r_n S_n).  Each run's verdict is its exact
    # margin's sign, except where that margin is below an ulp of lhs
    spec = importlib.util.spec_from_file_location("run_battery", SCRIPT)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    certify_log = battery.certify_log

    def certify_off(*args):
        result = certify_log(*args)
        cert = result["large_numbers_certificate"]
        for _ in range(bits_off):
            cert["lhs"] = math.nextafter(cert["lhs"], math.inf)
        return result

    monkeypatch.setattr(battery, "certify_log", certify_off)
    monkeypatch.setattr(sys, "argv", ["run_battery.py", "--horizon", "32",
                                      "--out", str(tmp_path)])
    code = battery.main()
    out = capsys.readouterr().out
    assert out.count("CERTIFY MISMATCH") == 13 * bits_off
    margins = {}
    for game in ("square", "absolute", "log"):
        margins.update(exact_margins(tmp_path.glob(f"{game}_*"),
                                     Game.from_json(game), Kernel.sobolev()))
    assert len(margins) == 12
    disagree = sorted(name for name, m in margins.items()
                      if m.passed != (m.exact >= 0))
    assert disagree == SUB_ULP_DISAGREEMENTS
    for name in disagree:
        assert abs(margins[name].exact) < math.ulp(margins[name].lhs), name
    negative = any(m.exact < 0 for m in margins.values())
    assert code == int(bool(bits_off) or negative)


def test_exact_margin_prints_the_shipped_and_the_exact_margin(tmp_path,
                                                             capsys):
    # tests/exact_margin.py's command line prints, per run, the report's
    # margin and the exact one to 17 digits, and the first in ulps of lhs
    config = ExperimentConfig.from_json({
        "game": "square", "kernel": "sobolev",
        "generator": {"kind": "iid_logistic"}, "horizon": 32, "seed": 7})
    run_dir = tmp_path / "square_iid"
    cert = run(config, run_dir).report["large_numbers_certificate"]
    capsys.readouterr()
    assert exact_margin_main(["--game", "square", str(run_dir)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["run", "shipped", "exact", "ulps", "of", "lhs"]
    exact = exact_margins([run_dir], Game.square(), Kernel.sobolev())
    assert row.split() == [
        "square_iid", f"{cert['margin']:.17g}",
        f"{float(exact['square_iid'].exact):.17g}",
        f"{cert['margin'] / math.ulp(cert['lhs']):.4g}"]


# the configs of perfbench/run.py's three workloads, and the SHA-256 of
# their round logs at horizon 300 and seed 401, recorded with the fixture's
# numpy: the root finder's rounds keep their bits
WORKLOAD_LOGS = {
    "square-sobolev-iid": (
        {"game": "square", "kernel": {"kind": "sobolev"},
         "generator": {"kind": "iid_logistic", "weights": [0.0, 2.0]}},
        "51f34550ba43a7ded829c8060ba9ccc02f1e4b5bd4a7d5329c926d239e034e14"),
    "polyline-gaussian-adversarial": (
        {"game": {"kind": "custom", "boundary": [[0.0, 1.0], [0.2, 0.5],
                                                 [0.5, 0.2], [1.0, 0.0]]},
         "kernel": {"kind": "gaussian", "width": 0.5},
         "generator": {"kind": "adversarial"}},
        "de68891ee93867683afc32f172d8a1950ae789795b83c2299b30e76255e313d1"),
    "log-sobolev-audit": (
        {"game": "log", "kernel": {"kind": "sobolev"},
         "generator": {"kind": "deterministic", "threshold": 0.0,
                       "noise_rate": 0.1}},
        "057e6e83351298eb026ad305a46336f7bd0cd8b1f7b96516bd5693d8643a7fb8"),
}


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"hashes recorded with numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("name", list(WORKLOAD_LOGS))
def test_benchmark_workload_round_logs_keep_their_bits(tmp_path, name):
    doc, digest = WORKLOAD_LOGS[name]
    config = ExperimentConfig.from_json(dict(doc, horizon=300, seed=401))
    log = run(config, tmp_path).round_log_path
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest
