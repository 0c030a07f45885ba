"""scripts/large_run.py runs and certifies its three runs end to end."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "large_run.py"


def test_large_run_reports_each_process_and_reproduces_its_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--horizon", "200", "--out",
         str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("square", "log", "polyline"):
        log = tmp_path / name / "round_log.csv"
        assert len(log.read_text().splitlines()) == 201  # header + rounds
        lines = [ln for ln in proc.stdout.splitlines()
                 if ln.split()[:1] == [name]]
        run, certify, verdicts, digest = lines
        assert re.search(r"rounds [\d.]+ s, generator [\d.]+ s, report "
                         r"[\d.]+ s, export [\d.]+ s\); ru_maxrss [\d.]+ MB$",
                         run)
        assert re.search(r"parse [\d.]+ s, certificate [\d.]+ s\); "
                         r"ru_maxrss [\d.]+ MB$", certify)
        assert "run pass;" in verdicts and "certify pass, reproduces the " \
            "run" in verdicts
        assert digest.endswith(hashlib.sha256(log.read_bytes()).hexdigest())
