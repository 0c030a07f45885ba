"""scripts/diff_logs.py on a real round log and edited copies of it."""

import importlib.util
from pathlib import Path

from defcast.experiments import ExperimentConfig, run

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_logs.py"
spec = importlib.util.spec_from_file_location("diff_logs", SCRIPT)
diff_logs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_logs)


def test_diff_logs_reports_the_differences(tmp_path, capsys):
    config = ExperimentConfig.from_json({
        "game": "absolute", "kernel": "sobolev", "generator": "adversarial",
        "horizon": 12, "seed": 3})
    log = run(config, tmp_path / "run").round_log_path
    assert diff_logs.diff_logs(log, log) == {
        "rounds": [12, 12], "max_abs_dp": 0.0, "max_abs_dq": 0.0,
        "max_abs_ds_residual": 0.0, "first_divergent_round": None,
        "y_or_branch_differ": []}

    lines = log.read_text().splitlines()  # line n holds round n
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines]
    p4, q6 = float(rows[4][header.index("p")]), 0.25
    rows[4][header.index("p")] = repr(p4 + 2.0 ** -30)
    rows[6][header.index("q")] = repr(q6)
    rows[8][header.index("y")] = "1" if rows[8][header.index("y")] == "0" \
        else "0"
    rows[8][header.index("branch")] = "endpoint_negative"
    other = tmp_path / "other.csv"
    other.write_text("\n".join(map(",".join, rows)) + "\n")
    got = diff_logs.diff_logs(log, other)
    assert got["rounds"] == [12, 12]
    assert got["max_abs_dp"] == abs(float(repr(p4 + 2.0 ** -30)) - p4)
    assert got["max_abs_dq"] == abs(float(lines[6].split(",")[3]) - q6)
    assert got["first_divergent_round"] == 4
    assert got["max_abs_ds_residual"] == 0.0
    assert [d["round"] for d in got["y_or_branch_differ"]] == [8]
    assert got["y_or_branch_differ"][0]["branch"][1] == "endpoint_negative"

    # an s_residual alone differs in round 2: the first divergent round
    s2 = float(rows[2][header.index("s_residual")])
    rows[2][header.index("s_residual")] = repr(s2 + 0.125)
    other.write_text("\n".join(map(",".join, rows)) + "\n")
    got = diff_logs.diff_logs(log, other)
    assert got["max_abs_ds_residual"] == abs(float(repr(s2 + 0.125)) - s2)
    assert got["first_divergent_round"] == 2
    assert got["max_abs_dp"] == abs(float(repr(p4 + 2.0 ** -30)) - p4)

    shorter = tmp_path / "shorter.csv"
    shorter.write_text("\n".join(lines[:9]) + "\n")
    got = diff_logs.diff_logs(log, shorter)
    assert (got["rounds"], got["first_divergent_round"]) == ([12, 8], 9)

    assert diff_logs.main([str(log), str(tmp_path / "missing.csv")]) == 2
    assert "missing.csv" in capsys.readouterr().err
