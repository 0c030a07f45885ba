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


ADVERSARIAL = {"game": "square", "generator": {"kind": "adversarial"},
               "horizon": 10}


@pytest.mark.parametrize("doc, key", [
    ({"kernel": {"kind": "sobolev"}, "generator": {"kind": "adversarial"},
      "horizon": 10}, "game"),
    ({"game": "square", "generator": {"kind": "adversarial"}}, "horizon"),
    ({"game": "square", "generator": {"seed": 1}, "horizon": 10}, "kind"),
    (["square", 10], "list"),
    (dict(ADVERSARIAL, epsilon_root=1e-9), "epsilon_root"),
    (dict(ADVERSARIAL, seeds=7), "seeds"),
    (dict(ADVERSARIAL, kernel={"kind": "gaussian", "widht": 0.1}), "widht"),
    (dict(ADVERSARIAL, generator={"kind": "iid_logistic", "weight": [5.0]}),
     "weight"),
    (dict(ADVERSARIAL, game={"kind": "square", "boundary": [[0, 1], [1, 0]]}),
     "boundary"),
    (dict(ADVERSARIAL, comparators=[{"centers": [0.0], "weights": [0.5],
                                     "norm": 1.0}]), "norm"),
    (dict(ADVERSARIAL, horizon=2.9), "horizon"),
    (dict(ADVERSARIAL, seed="7"), "seed"),
    (dict(ADVERSARIAL, seed=True), "seed"),
    (dict(ADVERSARIAL, seed=-1), "seed"),
], ids=["no-game", "no-horizon", "generator-without-kind", "list",
        "stale-epsilon-root", "typo-seeds", "kernel-typo-widht",
        "generator-typo-weight", "square-with-boundary",
        "comparator-extra-norm", "float-horizon", "string-seed", "bool-seed",
        "negative-seed"])
def test_malformed_config_exits_two(tmp_path, capsys, doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


CUSTOM = {"kind": "custom", "boundary": [[0, 1], [1, 0]]}


@pytest.mark.parametrize("doc, key", [
    (dict(ADVERSARIAL, comparators=[{"centers": "05", "weights": [1, 2]}]),
     "centers"),
    (dict(ADVERSARIAL, comparators=[{"centers": [0, 5], "weights": "12"}]),
     "weights"),
    (dict(ADVERSARIAL, game=dict(CUSTOM, boundary=["01", "10"])), "boundary"),
    (dict(ADVERSARIAL, game=dict(CUSTOM, boundary="0110")), "boundary"),
    (dict(ADVERSARIAL, generator={"kind": "iid_logistic", "weights": "12"}),
     "weights"),
    (dict(ADVERSARIAL, kernel={"kind": "gaussian", "width": "0.5"}), "width"),
    (dict(ADVERSARIAL, kernel={"kind": "linear", "offset": "1"}), "offset"),
    (dict(ADVERSARIAL, kernel={"kind": "linear", "range": "2"}), "range"),
], ids=["centers", "weights", "boundary-points", "boundary",
        "generator-weights", "width", "offset", "range"])
def test_string_for_a_list_or_number_exits_two(tmp_path, capsys, doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, doc, key", [
    ("--kernel", '{"kind": "gaussian", "width": "0.5"}', "width"),
    ("--game", '{"kind": "custom", "boundary": ["01", "10"]}', "boundary"),
])
def test_string_for_a_list_or_number_in_a_flag_exits_two(capsys, flag, doc,
                                                          key):
    argv = {"--game": "square", "--kernel": "sobolev", flag: doc}
    assert main(["constants", *(a for kv in argv.items() for a in kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


def test_game_document_without_kind_exits_two(tmp_path, capsys):
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n")
    assert main(["certify", "--log", str(log),
                 "--game", '{"boundary": [[0,1],[1,0]]}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_kernel_document_with_unknown_key_exits_two(capsys):
    assert main(["constants", "--game", "square", "--kernel",
                 '{"kind": "gaussian", "widht": 0.1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "widht" in err


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


BAD_ROWS = {
    "x-nan": "1,nan,0.5,0.5,0.5,1,0.25,0.0,root",
    "x-inf": "1,inf,0.5,0.5,0.5,1,0.25,0.0,root",
    "s_residual-inf": "1,0.5,0.5,0.5,0.5,1,0.25,inf,root",
    "s_residual-nan": "1,0.5,0.5,0.5,0.5,1,0.25,nan,root",
    "s_residual-negative": "1,0.5,0.5,0.5,0.5,1,0.25,-5.0,root",
    "p-nan": "1,0.5,nan,0.5,0.5,1,0.25,0.0,root",
    "y-0.7": "1,0.5,0.5,0.5,0.5,0.7,0.25,0.0,root",
    "y-2": "1,0.5,0.5,0.5,0.5,2,0.25,0.0,root",
}


def write_log_with_bad_row(tmp_path, name):
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                   "1,0.25,0.5,0.5,0.5,0,0.25,0.0,root\n"
                   + BAD_ROWS[name] + "\n")
    return log


@pytest.mark.parametrize("name", list(BAD_ROWS))
def test_certify_bad_row_exits_two(tmp_path, capsys, name):
    log = write_log_with_bad_row(tmp_path, name)
    assert main(["certify", "--log", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "round_log.csv:3: bad row" in err


@pytest.mark.parametrize("name", ["x-nan", "x-inf", "y-0.7", "y-2"])
def test_replay_bad_row_exits_two(tmp_path, capsys, name):
    # replay reads the x and y columns of a round log by certify's rules
    log = write_log_with_bad_row(tmp_path, name)
    config = write_config(tmp_path, horizon=2, generator={
        "kind": "replay", "path": str(log)})
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "round_log.csv:3: bad row" in err


def test_certify_missing_log_exits_two(tmp_path, capsys):
    assert main(["certify", "--log", str(tmp_path / "absent.csv")]) == 2
    assert "error:" in capsys.readouterr().err
