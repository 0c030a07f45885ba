"""The command-line interface: run, certify, constants."""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import defcast
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
    assert cert == report["large_numbers_certificate"]  # margin too


# a polyline whose exposures, about 1e154, square past the float range
HUGE_POLYLINE = {"kind": "custom", "boundary": [[0, 1e154], [1e154, 0]]}
KERNELS = {"sobolev": "sobolev", "gaussian": json.dumps(GAUSSIAN)}


def certify_huge(tmp_path, capsys, kernel, rows):
    """certify's exit code and certificate for the rows (p, q, y,
    s_residual) at x = 0.25, 0.5, ... under HUGE_POLYLINE, with every
    warning an error."""
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n" + "".join(
        f"{i},{0.25 * i!r},{p!r},{q!r},0.0,{y},0.0,{s!r},root\n"
        for i, (p, q, y, s) in enumerate(rows, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["certify", "--log", str(log), "--game",
                     json.dumps(HUGE_POLYLINE), "--kernel", KERNELS[kernel]])
    return code, json.loads(capsys.readouterr().out)[
        "large_numbers_certificate"]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_certify_reports_an_lhs_past_the_float_range(tmp_path, capsys,
                                                     kernel):
    # (sum e r)^2 is about 4e308: a failed verdict, not a traceback
    code, cert = certify_huge(tmp_path, capsys, kernel,
                              [(0.0, 0.0, 1, 0.0)] * 2)
    assert code == 1 and not cert["pass"]
    assert cert["lhs"] == math.inf and cert["margin"] == -math.inf


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_certify_margin_of_an_infinite_lhs_and_slack_is_nan(tmp_path, capsys,
                                                            kernel):
    code, cert = certify_huge(tmp_path, capsys, kernel,
                              [(0.0, 0.0, 1, 1e308)] * 2)
    assert cert["lhs"] == cert["slack"] == math.inf
    assert math.isnan(cert["margin"]) and not cert["pass"] and code == 1


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_certify_margin_is_exact_past_a_midway_overflow(tmp_path, capsys,
                                                        kernel):
    # rhs + slack is past the float range, rhs + slack - lhs is not
    code, cert = certify_huge(tmp_path, capsys, kernel,
                              [(0.0, 0.0, 1, 8.5e307), (0.5, 0.0, 0, 0.0)])
    exact = sum(Fraction(cert[k]) for k in ("rhs", "slack")) \
        - Fraction(cert["lhs"])
    assert cert["rhs"] + cert["slack"] == math.inf
    assert cert["margin"] == float(exact) > 1e308
    assert cert["pass"] and code == 0


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


def test_kernel_named_by_a_json_string(capsys):
    assert main(["constants", "--game", "square",
                 "--kernel", '"sobolev"']) == 0
    assert main(["constants", "--game", "square",
                 "--kernel", '"triangular"']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "triangular" in err


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
    (dict(ADVERSARIAL, kernel={"kind": "linear", "range": 1e308}), "range"),
    (dict(ADVERSARIAL, kernel={"kind": "linear", "range": -1}), "range"),
    (dict(ADVERSARIAL, kernel={"kind": "linear"},
          comparators=[{"centers": [0.0], "weights": [0.5]}]), "range"),
    (dict(ADVERSARIAL, kernel={"kind": "linear", "range": 0.5}), "range"),
    (dict(ADVERSARIAL, kernel={"kind": "gaussian", "width": 1e160}), "width"),
    (dict(ADVERSARIAL, kernel={"kind": "gaussian", "width": 1e-300}),
     "width"),
    (dict(ADVERSARIAL, game={"kind": "custom",
                             "boundary": [[0, 1e160], [1e160, 0]]}),
     "boundary"),
], ids=["no-game", "no-horizon", "generator-without-kind", "list",
        "stale-epsilon-root", "typo-seeds", "kernel-typo-widht",
        "generator-typo-weight", "square-with-boundary",
        "comparator-extra-norm", "float-horizon", "string-seed", "bool-seed",
        "negative-seed", "range-square-overflows", "negative-range",
        "comparators-without-range", "data-outside-range",
        "width-square-overflows", "width-square-underflows",
        "exposure-square-overflows"])
def test_malformed_config_exits_two(tmp_path, capsys, doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("kernel, generator, horizon", [
    ({"kind": "linear", "offset": 1e160}, {"kind": "adversarial"}, 10),
    ({"kind": "linear", "range": 1e10}, {"kind": "replay"}, 3),
], ids=["offset-1e160", "replay-x-1e9"])
def test_log_roots_nearer_an_end_than_1e_15_run_and_certify(
        tmp_path, capsys, kernel, generator, horizon):
    # K(x, x) = 1e160, or 1e18 at x = 1e9, puts log loss's root nearer 0
    # or 1 than 1e-15: the round roots S on the second grid, or plays its
    # end float, and the run reaches a verdict that certify reproduces
    replay = tmp_path / "xy.csv"
    replay.write_text("x,y\n1e9,1\n-1e9,0\n1e9,0\n")
    if generator["kind"] == "replay":
        generator = dict(generator, path=str(replay))
    config = write_config(tmp_path, game="log", kernel=kernel,
                          generator=generator, horizon=horizon,
                          comparators=[])
    out = tmp_path / "o"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code in (0, 1) and not capsys.readouterr().err
    report = json.loads((out / "regret_report.json").read_text())
    want = report["large_numbers_certificate"]
    assert main(["certify", "--log", str(out / "round_log.csv"),
                 "--game", "log", "--kernel", json.dumps(kernel)]) == code
    cert = json.loads(capsys.readouterr().out)
    assert cert == {"rounds": horizon, "large_numbers_certificate": want}


def extreme_parameters():
    """(game, kernel) with a number near the float limits in one field."""
    for v in (1e-300, 1e160, 1e300):
        for game in ("square", "log", "absolute"):
            for kind, key in (("gaussian", "width"), ("linear", "offset"),
                              ("linear", "range")):
                yield pytest.param(game, {"kind": kind, key: v},
                                   id=f"{game}-{key}-{v:g}")
        yield pytest.param({"kind": "custom", "boundary": [[0, v], [v, 0]]},
                           "sobolev", id=f"polyline-{v:g}")


@pytest.mark.parametrize("game, kernel", extreme_parameters())
def test_extreme_parameters_end_in_an_exit_code(tmp_path, capsys, game,
                                                kernel):
    # a parameter near the float limits gives a verdict or one error line,
    # never a traceback; a log game exits 2 only where square loss does on
    # the same kernel, which is then refused: log roots at every scale
    def code_of(game):
        config = write_config(tmp_path, game=game, kernel=kernel, horizon=8,
                              comparators=[])
        return main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")])

    code = code_of(game)
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert code != 2 or (err.startswith("error:") and err.count("\n") == 1)
    if game == "log" and code == 2:
        assert code_of("square") == 2 and capsys.readouterr().err == err


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
    (dict(ADVERSARIAL, kernel={"kind": "gaussian", "width": math.nan}),
     "width"),
    (dict(ADVERSARIAL, game=dict(CUSTOM, boundary=[[0, math.inf], [1, 0]])),
     "boundary"),
    (dict(ADVERSARIAL, comparators=[{"centers": [0], "weights": [math.nan]}]),
     "weights"),
    (dict(ADVERSARIAL, generator={"kind": "deterministic",
                                  "threshold": "0.3"}), "threshold"),
    (dict(ADVERSARIAL, generator={"kind": "deterministic",
                                  "threshold": True}), "threshold"),
    (dict(ADVERSARIAL, generator={"kind": "deterministic",
                                  "noise_rate": "0.1"}), "noise_rate"),
], ids=["centers", "weights", "boundary-points", "boundary",
        "generator-weights", "width", "offset", "range", "nan-width",
        "infinite-boundary", "nan-weights", "string-threshold",
        "bool-threshold", "string-noise-rate"])
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
    ("--kernel", '{"kind": "gaussian", "width": NaN}', "width"),
    ("--game", '{"kind": "custom", "boundary": [[0, Infinity], [1, 0]]}',
     "boundary"),
])
def test_string_for_a_list_or_number_in_a_flag_exits_two(capsys, flag, doc,
                                                          key):
    argv = {"--game": "square", "--kernel": "sobolev", flag: doc}
    assert main(["constants", *(a for kv in argv.items() for a in kv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


@pytest.mark.parametrize("field, doc, key", [
    ("game", [1], "game: a JSON object expected, got list"),
    ("kernel", [1], "kernel: a JSON object expected, got list"),
    ("generator", [1], "generator: a JSON object expected, got list"),
    ("game", 7, "game: a JSON object expected, got int"),
    ("kernel", 0.5, "kernel: a JSON object expected, got float"),
    ("generator", 3, "generator: a JSON object expected, got int"),
    ("game", "huber", "unknown game kind 'huber'"),
    ("kernel", {"kind": "polynomial"}, "unknown kernel kind 'polynomial'"),
    ("generator", {"kind": "markov"}, "unknown generator kind 'markov'"),
    ("game", {"kind": "log", "base": 2}, "'base'"),
    ("kernel", {"kind": "sobolev", "width": 1.0}, "'width'"),
    ("generator", {"kind": "adversarial", "noise_rate": 0.1}, "'noise_rate'"),
    ("game", {"kind": "custom"}, "missing a required argument: 'boundary'"),
    ("generator", {"kind": "replay"}, "missing a required argument: 'path'"),
], ids=["game-list", "kernel-list", "generator-list", "game-number",
        "kernel-number", "generator-number", "unknown-game",
        "unknown-kernel", "unknown-generator", "game-unknown-key",
        "kernel-unknown-key", "generator-unknown-key", "custom-no-boundary",
        "replay-no-path"])
def test_document_errors_exit_two(tmp_path, capsys, field, doc, key):
    # games, kernels and generators are built by one reader of documents
    config = write_config(tmp_path, **{field: doc})
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, doc, key", [
    ("--game", "[1]", "game: a JSON object expected, got list"),
    ("--kernel", "[1]", "kernel: a JSON object expected, got list"),
    ("--game", "7", "got int"),
    ("--game", '{"kind": "custom"}', "'boundary'"),
    ("--kernel", '{"kind": "linear", "range": 1e308}', "range"),
    ("--kernel", '{"kind": "linear", "range": -1}', "range"),
    ("--kernel", '{"kind": "linear", "range": 0}', "range"),
    ("--kernel", '{"kind": "linear"}', "needs a kernel range"),
    ("--kernel", '{"kind": "linear", "offset": 1e308, "range": 1.3e154}',
     "offset"),
], ids=["game-list", "kernel-list", "game-number", "custom-no-boundary",
        "range-square-overflows", "negative-range", "zero-range", "no-range",
        "c-f-square-overflows"])
def test_document_errors_in_a_flag_exit_two(capsys, flag, doc, key):
    argv = {"--game": "square", "--kernel": "sobolev", flag: doc}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning before the error
        assert main(["constants", *(a for kv in argv.items() for a in kv)]) \
            == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert key in err


def test_failed_run_leaves_no_empty_out(tmp_path, capsys):
    # the datum leaves the kernel's range mid-run, after --out was made
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        dict(ADVERSARIAL, kernel={"kind": "linear", "range": 0.5})))
    out = tmp_path / "new" / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    assert "range" in capsys.readouterr().err
    assert not out.exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(["run", "--config", str(config), "--out", str(existing)]) \
        == 2
    assert existing.is_dir() and not any(existing.iterdir())


def run_module(*args):
    """`python -m defcast` with `args`, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(Path(defcast.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "defcast", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point():
    out = run_module("constants", "--game", "square")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"C_F = {1 / math.sqrt(2)!r}",
                                       "C_lambda_F = 0.375"]
    out = run_module("constants", "--game", "square", "--kernel",
                     '{"kind": "linear", "range": 1e308}')
    assert out.returncode == 2
    assert out.stderr.startswith("error:") and "range" in out.stderr
    assert out.stderr.count("\n") == 1


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


@pytest.mark.parametrize(
    "content", ["", "1,0.5,0.5,0.5,1,0.25,0.0,root\n",
                "n,x,p,q,gamma,y,loss,s_residual,branch\n"],
    ids=["empty", "headerless", "header-only"])
def test_certify_empty_or_headerless_log_exits_two(tmp_path, capsys, content):
    log = tmp_path / "round_log.csv"
    log.write_text(content)
    assert main(["certify", "--log", str(log), "--game", "square"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", ["", "1,0.5,0.5,0.5,1,0.25,0.0,root\n",
                "n,x,p,q,gamma,y,loss,s_residual,branch\n",
                "n,x,p,q,gamma,y,loss,s_residual,branch\n\n\n"],
    ids=["empty", "headerless", "header-only", "header-and-blank-lines"])
def test_certify_of_a_log_without_rows_warns_nothing(tmp_path, capsys,
                                                     content):
    # numpy's reader warns on a log with no rows; the warning stays inside
    # read_round_log, so that certify exits 2 with just its error line
    log = tmp_path / "round_log.csv"
    log.write_text(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--log", str(log), "--game", "square"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
    assert main(["certify", "--log", str(log), "--game", "square"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "round_log.csv:3: bad row" in err


# rows that read but that the game or the kernel refuses: --game, --kernel
GAME_BAD_ROWS = {
    "log-p-0": ("log", "sobolev", "1,0.5,0.0,0.5,0.0,1,0.0,0.0,root"),
    "q-above-1": ("square", "sobolev", "1,0.5,0.5,1.5,0.5,1,0.25,0.0,root"),
    "x-beyond-range": ("absolute", '{"kind": "linear", "range": 1.0}',
                       "1,2.0,0.5,0.5,0.5,1,0.5,0.0,root"),
}


@pytest.mark.parametrize("blank", [False, True],
                         ids=["no-blank", "after-blank"])
@pytest.mark.parametrize("later", [
    "", "3,0.25,0.5,-0.5,0.5,1,0.25,0.0,root\n",
    "3,0.25,0.5,0.5,0.5,2,0.25,0.0,root\n"],
    ids=["alone", "first", "before-unreadable"])
@pytest.mark.parametrize("name", list(GAME_BAD_ROWS))
def test_certify_row_the_game_refuses_exits_two(tmp_path, capsys, name,
                                                later, blank):
    # alone, before a row that the game refuses in another way, or before
    # one that does not read (y = 2): the first bad row in file order is
    # named.  After a blank line, which is no row, the bad row is on line 4
    game, kernel, row = GAME_BAD_ROWS[name]
    log = tmp_path / "round_log.csv"
    log.write_text("n,x,p,q,gamma,y,loss,s_residual,branch\n"
                   "1,0.25,0.5,0.5,0.5,0,0.25,0.0,root\n"
                   + "\n" * blank + row + "\n" + later)
    assert main(["certify", "--log", str(log), "--game", game,
                 "--kernel", kernel]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"round_log.csv:{3 + blank}: bad row" in err
    # without the bad row, the game and the kernel take the log
    log.write_text("\n".join(log.read_text().splitlines()[:2]) + "\n")
    assert main(["certify", "--log", str(log), "--game", game,
                 "--kernel", kernel]) in (0, 1)


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


def test_certify_requires_the_game(tmp_path):
    # a log-loss run's log read as square loss would fail its certificate
    log = write_log_with_bad_row(tmp_path, "y-2")
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--log", str(log)])
    assert exc.value.code == 2


def test_certify_missing_log_exits_two(tmp_path, capsys):
    assert main(["certify", "--log", str(tmp_path / "absent.csv"),
                 "--game", "square"]) == 2
    assert "error:" in capsys.readouterr().err
