"""The command-line interface: run, certify, constants."""

import json
import math

import pytest

from defcast.cli import main


def write_config(tmp_path, **overrides):
    doc = {
        "game": "square",
        "kernel": {"kind": "sobolev"},
        "generator": {"kind": "iid_logistic", "weights": [0.0, 2.0]},
        "horizon": 30,
        "seed": 7,
        "comparators": [{"centers": [0.0], "weights": [0.5]}],
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "all inequalities pass" in captured
    assert (out / "round_log.csv").exists()
    assert (out / "regret_report.json").exists()


def test_certify_round_trips_a_run(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    main(["run", "--config", str(config), "--out", str(out)])
    capsys.readouterr()
    code = main(["certify", "--log", str(out / "round_log.csv"),
                 "--game", "square", "--kernel", "sobolev"])
    assert code == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["rounds"] == 30
    assert cert["large_numbers_certificate"]["pass"]


POLYLINE = {"kind": "custom",
            "boundary": [[0.0, 1.0], [0.2, 0.5], [0.5, 0.2], [1.0, 0.0]]}
GAUSSIAN = {"kind": "gaussian", "width": 0.5}


def test_certify_names_a_polyline_and_a_gaussian_kernel(tmp_path, capsys):
    config = write_config(tmp_path, game=POLYLINE, kernel=GAUSSIAN,
                          generator={"kind": "adversarial"}, horizon=60)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["certify", "--log", str(out / "round_log.csv"),
                 "--game", json.dumps(POLYLINE),
                 "--kernel", json.dumps(GAUSSIAN)]) == 0
    cert = json.loads(capsys.readouterr().out)["large_numbers_certificate"]
    report = json.loads((out / "regret_report.json").read_text())
    want = report["large_numbers_certificate"]
    for key in ("lhs", "rhs", "slack"):
        assert cert[key] == want[key]


def test_constants_output(capsys):
    assert main(["constants", "--game", "square", "--kernel", "sobolev"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(lines["C_F"]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert float(lines["C_lambda_F"]) == 0.375


def test_constants_all_games(capsys):
    for game, want, tol in (("square", 0.375, 0.0),
                            ("absolute", math.sqrt(6) / 4, 1e-9),
                            ("log", 0.693, 0.005)):
        main(["constants", "--game", game])
        out = capsys.readouterr().out
        val = float(out.strip().splitlines()[1].split(" = ")[1])
        assert val == pytest.approx(want, abs=max(tol, 1e-12))


def test_gaussian_kernel_selector(capsys):
    assert main(["constants", "--game", "square",
                 "--kernel", json.dumps(GAUSSIAN)]) == 0
    out = capsys.readouterr().out
    assert float(out.splitlines()[0].split(" = ")[1]) == 1.0


def test_constants_takes_a_linear_kernel_with_a_range(capsys):
    assert main(["constants", "--game", "square", "--kernel",
                 '{"kind": "linear", "offset": 1.0, "range": 2.0}']) == 0
    out = capsys.readouterr().out
    # sup over |x| <= 2 of sqrt(x^2 + 1)
    c_f = float(out.splitlines()[0].split(" = ")[1])
    assert c_f == pytest.approx(math.sqrt(5.0), rel=1e-12)


def test_bad_kernel_name_exits_two(capsys):
    assert main(["constants", "--game", "square",
                 "--kernel", "triangular"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"kernel": {"kind": "sobolev"}, "generator": {"kind": "adversarial"},
     "horizon": 10},
    {"game": "square", "generator": {"kind": "adversarial"}},
    {"game": "square", "generator": {"seed": 1}, "horizon": 10},
    ["square", 10],
    {"game": "square", "generator": {"kind": "adversarial"}, "horizon": 10,
     "epsilon_root": 1e-9},
    {"game": "square", "generator": {"kind": "adversarial"}, "horizon": 10,
     "seeds": 7},
], ids=["no-game", "no-horizon", "generator-without-kind", "list",
        "stale-epsilon-root", "typo-seeds"])
def test_malformed_config_exits_two(tmp_path, capsys, doc):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_game_document_without_kind_exits_two(tmp_path, capsys):
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n")
    assert main(["certify", "--log", str(log),
                 "--game", '{"boundary": [[0,1],[1,0]]}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_bad_config_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, horizon=0)
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", "1,0.5,0.5,0.5,1,0.25,0.0,root\n"],
                         ids=["empty", "headerless"])
def test_certify_empty_or_headerless_log_exits_two(tmp_path, capsys, content):
    log = tmp_path / "round_log.csv"
    log.write_text(content)
    assert main(["certify", "--log", str(log)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("row", [
    "1,nan,0.5,0.5,0.5,1,0.25,0.0,root",
    "1,inf,0.5,0.5,0.5,1,0.25,0.0,root",
    "1,0.5,0.5,0.5,0.5,1,0.25,inf,root",
    "1,0.5,0.5,0.5,0.5,1,0.25,nan,root",
    "1,0.5,0.5,0.5,0.5,1,0.25,-5.0,root",
    "1,0.5,nan,0.5,0.5,1,0.25,0.0,root",
], ids=["x-nan", "x-inf", "s_residual-inf", "s_residual-nan",
        "s_residual-negative", "p-nan"])
def test_certify_bad_row_exits_two(tmp_path, capsys, row):
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                   "1,0.25,0.5,0.5,0.5,0,0.25,0.0,root\n" + row + "\n")
    assert main(["certify", "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "round_log.csv:3: bad row" in err


def test_certify_missing_log_exits_two(tmp_path, capsys):
    assert main(["certify", "--log", str(tmp_path / "absent.csv")]) == 2
    assert "error:" in capsys.readouterr().err
