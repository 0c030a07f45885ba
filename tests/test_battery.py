"""The standard battery reproduces its recorded summary bit for bit."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "battery_summary.json"
# the fixture's numpy; another release may round the last bits differently
RECORDED_NUMPY = "2.4.6"


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"summary recorded with numpy {RECORDED_NUMPY}")
def test_battery_reproduces_recorded_summary(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_battery.py"),
         "--horizon", "1000", "--seed", "77", "--out", str(tmp_path)],
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
