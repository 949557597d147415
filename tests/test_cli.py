import io
import json
import math
import os
import pty
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import smfconv
from smfconv import TruncatedSeries
from smfconv.cli import MAX_DENSITY_POINTS, MAX_ORDER, main

SQUARE_SEMI = {
    "version": 1,
    "shape": "square",
    "cells": {key: {"kind": "semicircle", "a": "1"}
              for key in ("1,1", "1,2", "2,1", "2,2")},
    "order": 6,
}

MEIXNER = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": {"kind": "semicircle", "a": "1"},
        "2,2": {"kind": "semicircle", "a": "1"},
        "1,2": {"kind": "point_mass", "b": "1/2"},
        "2,1": {"kind": "point_mass", "b": "1/2"},
    },
    "order": 6,
    "precision": "float",
    "density": {"grid_min": -2.0, "grid_max": 3.0, "points": 11,
                "eps": 1e-4},
}


def run_cli(tmp_path, config, *args, capsys=None):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    code = main(["--config", str(path), *args])
    out, err = capsys.readouterr()
    return code, out, err


def test_square_semicircle_agreement(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, SQUARE_SEMI, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    want = ["1/1", "0/1", "2/1", "0/1", "8/1", "0/1", "40/1"]
    for engine in ("partition", "fock", "analytic"):
        assert report["moments"][engine] == want


def test_output_is_deterministic(tmp_path, capsys):
    cfg = dict(SQUARE_SEMI, checks=["eq56", "axioms"])
    _, first, _ = run_cli(tmp_path, cfg, capsys=capsys)
    _, second, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert first == second


def test_checks_reported(tmp_path, capsys):
    cfg = dict(SQUARE_SEMI)
    cfg["cells"] = {
        "1,1": ["1", "-2", "1", "0", "2", "1"],
        "1,2": {"kind": "custom", "cumulants": ["2", "1", "0", "1", "0", "0"]},
        "2,1": {"kind": "semicircle", "a": "2"},
        "2,2": {"kind": "point_mass", "b": "-1"},
    }
    cfg["checks"] = ["eq56", "eq611", "uniqueness", "axioms"]
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    eq56 = report["checks"]["eq56"]
    assert eq56["pass"] is True
    assert eq56["residuals"] == ["1/1"] + ["0/1"] * 5
    eq611 = report["checks"]["eq611"]
    assert eq611["pass"] is True
    assert set(eq611["residuals"]) == {"1,1", "1,2", "2,1", "2,2"}
    assert report["checks"]["uniqueness"]["pass"] is True
    assert report["checks"]["axioms"]["violations"] == []


def test_flag_overrides(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, SQUARE_SEMI, "--order", "4",
                           "--engines", "partition,analytic",
                           capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 4
    assert sorted(report["moments"]) == ["analytic", "partition"]


def test_empty_engines_flag_is_an_empty_engine_list(tmp_path, capsys):
    # as "engines": [] in the config, not the config's own engines
    for config, args in ((dict(SQUARE_SEMI, engines=[]), ()),
                         (SQUARE_SEMI, ("--engines", ""))):
        code, out, err = run_cli(tmp_path, config, *args, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: engines must be a non-empty")


def test_csv_moments(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, SQUARE_SEMI, "--out", "csv",
                           capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,partition,fock,analytic"
    assert lines[1].startswith("0,1/1,1/1,1/1")
    assert len(lines) == 8


def test_density_json_and_csv(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, MEIXNER, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    dens = report["density"]
    assert len(dens["grid"]) == 11
    assert len(dens["atoms"]) == 1
    assert dens["atoms"][0][0] == pytest.approx(-1.5615528128088303)

    code, out, _ = run_cli(tmp_path, MEIXNER, "--out", "csv", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,density"
    assert "atom_position,atom_weight" in lines
    assert len(lines) == 11 + 2 + 1


def test_density_eps_flag(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, MEIXNER, "--density-eps", "1e-5",
                           capsys=capsys)
    assert code == 0
    assert json.loads(out)["density"]["eps"] == 1e-5


def test_density_rejected_in_rational_mode(tmp_path, capsys):
    cfg = dict(MEIXNER)
    cfg["precision"] = "rational"
    code, _, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 2
    assert "config error" in err


class _EngineReached(Exception):
    pass


@pytest.mark.parametrize("mutate", [
    lambda c: c.update(order=0),
    lambda c: c.update(order=21),
    lambda c: c.update(engines=["quantum"]),
    lambda c: c.update(checks=["nonsense"]),
    lambda c: c.update(shape="circle"),
    lambda c: c.update(cells={}),
    lambda c: c.update(cells={"3,1": {"kind": "semicircle", "a": "1"}}),
    lambda c: c.update(version=2),
    lambda c: c.update(unexpected=True),
    lambda c: c["cells"].pop("1,1"),
    lambda c: c.update(order=True),
    lambda c: c["cells"]["1,2"].update(a=None),
    lambda c: c["cells"]["1,2"].update(a=[1]),
    lambda c: c["cells"]["1,2"].update(a="1/0"),
    lambda c: c.update(precision="float") or c["cells"]["1,2"].update(a=None),
    lambda c: c.update(precision="float") or c["cells"]["1,2"].update(a="1/0"),
    lambda c: c.update(shape=[]),
    lambda c: c.update(engines=5),
    lambda c: c.update(checks=5),
    lambda c: c["cells"].update({"1,2": {"kind": "custom",
                                         "cumulants": "12"}}),
    lambda c: c["cells"].update({"1,2": {"kind": "custom",
                                         "cumulants": {"5": 1}}}),
    lambda c: c["cells"]["1,2"].update(a=True),
    lambda c: c["cells"].update({"1,2": [True, False]}),
    lambda c: c["cells"].update({"1, 1": [5]}),
    lambda c: c.update(shape="custom", checks=["eq56", "uniqueness"],
                       cells={"1,1": ["1/2", "1"], "1,2": ["1/3"]}),
    lambda c: c.update(engines=["fock", "fock"]),
    lambda c: c.update(engines=["fock", "analytic", "fock"]),
    lambda c: c.update(checks=["eq56", "eq56"]),
    lambda c: c.update(version=True),
    lambda c: c.update(version=1.0),
    lambda c: c["cells"]["1,2"].update(b=5),
    lambda c: c.update(precision="float",
                       density=dict(MEIXNER["density"], epss=0.5)),
    # a semicircle's rate is read at every order, r(2) past it or not
    lambda c: c.update(order=1) or c["cells"]["1,1"].update(a="abc"),
    lambda c: c.update(order=1, precision="float")
    or c["cells"]["1,1"].update(a="1e999"),
])
def test_bad_configs_exit_two(tmp_path, capsys, monkeypatch, mutate):
    # every one is rejected before the job starts
    def job(config):
        raise _EngineReached

    monkeypatch.setattr("smfconv.cli.run", job)
    cfg = json.loads(json.dumps(SQUARE_SEMI))
    mutate(cfg)
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error") and err.count("\n") == 1


_LONG = "x" * 100_000


# an error message echoes at most 80 characters of a config value
@pytest.mark.parametrize("mutate", [
    lambda c: c.update(version="v" * 2_000_000),
    lambda c: c.update(version=[[[_LONG]]]),
    lambda c: c["cells"]["1,2"].update(kind=_LONG),
    lambda c: c["cells"].update({_LONG: [1]}),
    lambda c: c["cells"].update({"3," + "1" * 4000: [1]}),
    lambda c: c["cells"].update({"1," + " " * 100_000 + "2": [[1]]}),
    lambda c: c["cells"]["1,2"].update(a=_LONG),
    lambda c: c.update(shape=_LONG),
    lambda c: c.update({_LONG: 1}),
], ids=["version", "nested_version", "kind", "cell_key", "cell_outside",
        "padded_cell_key", "parameter", "shape", "unknown_field"])
def test_long_config_values_give_one_short_line(tmp_path, capsys, mutate):
    cfg = json.loads(json.dumps(SQUARE_SEMI))
    mutate(cfg)
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error") and err.count("\n") == 1
    assert len(err) < 200 and "..." in err


def test_short_config_values_are_echoed_whole(tmp_path, capsys):
    cfg = dict(SQUARE_SEMI, shape="circle")
    assert run_cli(tmp_path, cfg, capsys=capsys)[2] == \
        "config error: unknown shape 'circle'\n"


# the JSON decoder recurses once per level: past the recursion limit it
# raises RecursionError, which must not escape as a traceback and exit 1
@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"cells": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["bare", "in_cells"])
@pytest.mark.parametrize("source", ["config", "stdin"])
def test_deeply_nested_configs_exit_two(tmp_path, capsys, monkeypatch, text,
                                        source):
    def job(config):
        raise _EngineReached

    monkeypatch.setattr("smfconv.cli.run", job)
    if source == "config":
        path = tmp_path / "job.json"
        path.write_text(text)
        code = main(["--config", str(path)])
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code = main([])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "config error: config nests too deeply to decode\n"


# the flags are applied before parse_config sees the document
@pytest.mark.parametrize("config,flags", [
    ([1], ("--order", "3")),
    ("x", ("--order", "3")),
    (dict(MEIXNER, density=[1]), ("--density-eps", "0.1")),
])
def test_malformed_config_with_flag_exits_two(tmp_path, capsys, config,
                                              flags):
    code, out, err = run_cli(tmp_path, config, *flags, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error") and err.count("\n") == 1


def test_closed_stdout_keeps_the_job_exit_code(tmp_path):
    # a reader that stops after the first line must not turn a passing job
    # into a traceback and exit 1, the engine-disagreement code
    cfg = dict(MEIXNER, density=dict(MEIXNER["density"], points=20001))
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(smfconv.__file__)))
    with subprocess.Popen(
            [sys.executable, "-m", "smfconv", "--config", str(path),
             "--out", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"x,density\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_terminal_on_stdin_exits_two():
    # with no --config, a terminal on stdin is a usage error: one line on
    # stderr and exit 2, not a traceback and exit 1
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(smfconv.__file__)))
    primary, secondary = pty.openpty()
    try:
        proc = subprocess.run([sys.executable, "-m", "smfconv"],
                              stdin=secondary, capture_output=True, env=env,
                              timeout=60)
    finally:
        os.close(secondary)
        os.close(primary)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == \
        b"config error: no --config and stdin is a terminal\n"


def test_unreadable_config_exits_two(capsys):
    code = main(["--config", "/nonexistent/job.json"])
    _, err = capsys.readouterr()
    assert code == 2
    assert "config error" in err


def test_stdin_config(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SQUARE_SEMI)))
    code = main([])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_engine_disagreement_exits_one(tmp_path, capsys, monkeypatch):
    wrong = TruncatedSeries([1, 9, 9, 9, 9, 9, 9])
    monkeypatch.setattr("smfconv.moments.smf_moments", lambda a, n: wrong)
    code, out, err = run_cli(tmp_path, SQUARE_SEMI, capsys=capsys)
    assert code == 1
    assert json.loads(out)["agreement"] is False
    assert "verification failed" in err


def test_float_precision_agreement(tmp_path, capsys):
    cfg = dict(SQUARE_SEMI, precision="float")
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["moments"]["partition"][2] == pytest.approx(2.0)


def test_float_mode_checks(tmp_path, capsys):
    cfg = dict(SQUARE_SEMI, precision="float",
               checks=["eq56", "eq611", "uniqueness"])
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert all(entry["pass"] for entry in checks.values())
    assert checks["eq56"]["residuals"][0] == pytest.approx(1.0)


def test_diagonal_shape_two_engines(tmp_path, capsys):
    cfg = {
        "version": 1,
        "shape": "diagonal",
        "cells": {"1,1": {"kind": "semicircle", "a": "1"},
                  "2,2": ["1", "-1", "2"]},
        "order": 6,
        "engines": ["partition", "analytic"],
    }
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert sorted(report["moments"]) == ["analytic", "partition"]


def test_custom_shape(tmp_path, capsys):
    cfg = {
        "version": 1,
        "shape": "custom",
        "cells": {"1,1": ["1", "2"], "2,1": ["-1", "0"]},
        "order": 5,
        "checks": ["eq56"],
    }
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["eq56"]["pass"] is True


def test_density_symmetric_without_shift(tmp_path, capsys):
    cfg = json.loads(json.dumps(MEIXNER))
    for key in ("1,2", "2,1"):
        cfg["cells"][key] = {"kind": "point_mass", "b": "0"}
    cfg["density"] = {"grid_min": -2.5, "grid_max": 2.5, "points": 11,
                      "eps": 1e-5}
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    dens = json.loads(out)["density"]
    assert dens["atoms"] == []
    values = dict((round(x, 9), y) for x, y in dens["grid"])
    for x in (0.5, 1.0, 2.0):
        assert values[x] == pytest.approx(values[-x], rel=1e-9)


# Reports recorded before the subordination map and the pole inversion were
# each written once; any drift in the float path shows up here byte for byte.
# The float moments were re-recorded when every engine came to compute over
# the exact binary values and round once: the analytic engine's -0.0 and
# -1.4758999999999998, binary64 arithmetic, became 0.0 and -1.4758999999999995,
# the correctly rounded values the other two engines already reported.
# Two density values were re-recorded when Newton came to finish the points
# the damped map leaves after CAUCHY_DAMPED_ITER steps: x = -2.4, which the
# damped map never converged at, moved by 2.8e-11 onto the closed form, and
# x = 1.6 (222 damped steps) by 2.2e-14.  Nine were re-recorded when Newton
# came to polish every point after at most 44 damped steps: each moved by
# at most 8.6e-13 relative, and all eleven now sit within 3.1e-16 relative
# of the closed form, where they sat up to 8.6e-13 from it.  Two were
# re-recorded when the damped map came to hand each point to Newton once
# its steps fell below NEWTON_REACH: x = 2.4 moved by 3.6e-16 relative and
# x = 3.2 by 4.2e-16, and all eleven sit within 4.3e-16 relative of the
# closed form.
PINNED_FLOAT_CONFIG = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": {"kind": "semicircle", "a": "0.8"},
        "2,2": {"kind": "semicircle", "a": "1.2"},
        "1,2": {"kind": "point_mass", "b": "-0.3"},
        "2,1": {"kind": "point_mass", "b": "0.25"},
    },
    "order": 6,
    "precision": "float",
    "density": {"grid_min": -4.0, "grid_max": 4.0, "points": 11,
                "eps": 0.001},
}

PINNED_FLOAT_REPORT = (
    '{"agreement":true,"density":{"atoms":[],"eps":0.001,"grid":[[-4.0,'
    '3.1454444964315543e-05],[-3.2,7.147868539179293e-05],[-2.4,'
    '0.09002792802791994],[-1.6,0.3312489835417552],[-0.7999999999999998,'
    '0.17772381037889923],[0.0,0.16148897293061795],[0.7999999999999998,'
    '0.17695656063580725],[1.5999999999999996,0.2810033885491095],'
    '[2.4000000000000004,0.00030220114545668477],[3.2,'
    '6.403067316150018e-05],[4.0,3.0349572773584083e-05]]},'
    '"engines":["partition","fock","analytic"],'
    '"moments":{"analytic":[1.0,0.0,2.0,-0.15999999999999998,'
    '6.2379999999999995,-1.4758999999999995,22.488045],"fock":[1.0,0.0,'
    '2.0,-0.15999999999999998,6.2379999999999995,-1.4758999999999995,'
    '22.488045],"partition":[1.0,0.0,2.0,-0.15999999999999998,'
    '6.2379999999999995,-1.4758999999999995,22.488045]},"order":6,'
    '"precision":"float","shape":"square",'
    '"version":1}'
)

PINNED_RATIONAL_CONFIG = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": ["1", "-2", "1", "0", "2", "1"],
        "1,2": {"kind": "custom", "cumulants": ["2", "1/2", "0", "1"]},
        "2,1": {"kind": "semicircle", "a": "2"},
        "2,2": {"kind": "point_mass", "b": "-1/3"},
    },
    "order": 6,
    "checks": ["axioms", "eq56", "eq611", "uniqueness"],
}

PINNED_RATIONAL_REPORT = (
    '{"agreement":true,"checks":{"axioms":{"pass":true,"violations":[]},'
    '"eq56":{"pass":true,"residuals":["1/1","0/1","0/1","0/1","0/1",'
    '"0/1"]},"eq611":{"pass":true,"residuals":{"1,1":["1/1","0/1","0/1",'
    '"0/1","0/1","0/1"],"1,2":["1/1","0/1","0/1","0/1","0/1","0/1"],"2,'
    '1":["1/1","0/1","0/1","0/1","0/1","0/1"],"2,2":["1/1","0/1","0/1",'
    '"0/1","0/1","0/1"]}},"uniqueness":{"pass":true}},'
    '"engines":["partition","fock","analytic"],'
    '"moments":{"analytic":["1/1","2/3","-14/9","-91/27","16/81",'
    '"1319/243","-11960/729"],"fock":["1/1","2/3","-14/9","-91/27",'
    '"16/81","1319/243","-11960/729"],"partition":["1/1","2/3","-14/9",'
    '"-91/27","16/81","1319/243","-11960/729"]},"order":6,'
    '"precision":"rational","shape":"square","version":1}'
)


@pytest.mark.parametrize("config,report", [
    (PINNED_FLOAT_CONFIG, PINNED_FLOAT_REPORT),
    (PINNED_RATIONAL_CONFIG, PINNED_RATIONAL_REPORT),
], ids=["float_density", "rational_checks"])
def test_pinned_reports_byte_identical(tmp_path, capsys, config, report):
    code, out, _ = run_cli(tmp_path, config, capsys=capsys)
    assert code == 0
    assert out == report + "\n"


# The split semicircle/point-mass array of the density_f10 workload near
# its left spectral edge, where the damped map alone does not converge
# within CAUCHY_MAX_ITER steps at five of the six points.
EDGE_JOB = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": {"kind": "semicircle", "a": "0.983"},
        "2,2": {"kind": "semicircle", "a": "1.348"},
        "1,2": {"kind": "point_mass", "b": "0.182"},
        "2,1": {"kind": "point_mass", "b": "-0.214"},
    },
    "order": 4,
    "precision": "float",
    "density": {"grid_min": -2.2, "grid_max": -2.1, "points": 6,
                "eps": 1e-3},
}


def refuse(poly, z, c, u):
    # Newton finding no root that it accepts, at every class
    raise ArithmeticError


def test_unconverged_density_points_are_counted_on_stderr(
        tmp_path, capsys, monkeypatch):
    reports = {}
    for out_format in ("json", "csv"):
        code, out, err = run_cli(tmp_path, EDGE_JOB, "--out", out_format,
                                 capsys=capsys)
        assert (code, err) == (0, "")
        reports[out_format] = out
    monkeypatch.setattr("smfconv.analytic._root", refuse)
    code, out, err = run_cli(tmp_path, EDGE_JOB, capsys=capsys)
    assert code == 0
    assert err == "density: 5 of 6 grid points did not converge\n"
    want, got = json.loads(reports["json"]), json.loads(out)
    assert [x for x, _ in got["density"].pop("grid")] \
        == [x for x, _ in want["density"].pop("grid")]
    assert got == want
    code, out, err = run_cli(tmp_path, EDGE_JOB, "--out", "csv",
                             capsys=capsys)
    assert code == 0
    assert err == "density: 5 of 6 grid points did not converge\n"
    assert [line.split(",")[0] for line in out.splitlines()] \
        == [line.split(",")[0] for line in reports["csv"].splitlines()]


# a custom float array whose fixed point converges neither in the damped
# map nor by Newton at 10 of these 101 grid points, with nothing patched
UNCONVERGED_JOB = {
    "version": 1,
    "shape": "square",
    "cells": {"1,1": [-0.28, 0.38, 0.68], "1,2": [-0.94, -0.07, 0.89],
              "2,1": [-0.77, 0, 0], "2,2": [-0.24, 0, 0]},
    "order": 3,
    "engines": ["analytic"],
    "precision": "float",
    "density": {"grid_min": -3.0, "grid_max": 3.0, "points": 101,
                "eps": 0.01},
}


def test_unconverged_points_of_an_unpatched_job_are_counted(tmp_path,
                                                            capsys):
    code, out, err = run_cli(tmp_path, UNCONVERGED_JOB, capsys=capsys)
    assert code == 0
    assert err == "density: 10 of 101 grid points did not converge\n"
    assert len(json.loads(out)["density"]["grid"]) == 101


# An array of one cell has no alternating sequence of two cells; the axiom
# sampler once drew for one forever.  Run in a child process so that a
# hang fails the test instead of stalling the suite.
ONE_CELL_AXIOMS = [
    ({"cells": {"1,2": [1, 2]}, "checks": ["axioms"]},
     '{"agreement":true,"checks":{"axioms":{"pass":true,"violations":[]}},'
     '"engines":["partition","fock","analytic"],"moments":{"analytic":'
     '["1/1","0/1","0/1","0/1","0/1","0/1","0/1"],"fock":["1/1","0/1",'
     '"0/1","0/1","0/1","0/1","0/1"],"partition":["1/1","0/1","0/1","0/1",'
     '"0/1","0/1","0/1"]},"order":6,"precision":"rational",'
     '"shape":"custom","version":1}'),
    ({"cells": {"1,1": [1]}, "checks": ["axioms"], "order": 3},
     '{"agreement":true,"checks":{"axioms":{"pass":true,"violations":[]}},'
     '"engines":["partition","fock","analytic"],"moments":{"analytic":'
     '["1/1","1/1","1/1","1/1"],"fock":["1/1","1/1","1/1","1/1"],'
     '"partition":["1/1","1/1","1/1","1/1"]},"order":3,'
     '"precision":"rational","shape":"custom","version":1}'),
]


@pytest.mark.parametrize("config,report", ONE_CELL_AXIOMS,
                         ids=["off_diagonal", "diagonal_order_3"])
def test_axioms_on_one_cell_arrays_end(tmp_path, config, report):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(smfconv.__file__)))
    proc = subprocess.run([sys.executable, "-m", "smfconv", "--config",
                           str(path)], capture_output=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, report.encode() + b"\n", b"")


def test_axioms_at_order_one_is_a_config_error(tmp_path, capsys):
    # the conjugate-state conditions need words of two letters
    cfg = dict(SQUARE_SEMI, order=1, checks=["axioms"])
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out, err) == \
        (2, "", "config error: check axioms needs order >= 2\n")


@pytest.mark.parametrize("eps", [1e-200, 5e-324, 1e-12])
def test_meixner_density_positive_for_tiny_eps(tmp_path, capsys, eps):
    cfg = json.loads(json.dumps(MEIXNER))
    cfg["density"] = {"grid_min": -1.0, "grid_max": 1.0, "points": 3,
                      "eps": eps}
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    grid = json.loads(out)["density"]["grid"]
    assert [x for x, _ in grid] == [-1.0, 0.0, 1.0]
    assert grid[0][1] == pytest.approx(0.2105422, abs=1e-6)
    assert grid[1][1] == pytest.approx(0.1541011, abs=1e-6)


def test_order_twelve_all_engines(tmp_path, capsys):
    cfg = {key: value for key, value in MEIXNER.items()
           if key not in ("precision", "density")}
    cfg["order"] = 12
    for checks in ([], ["eq56", "eq611", "uniqueness"]):
        cfg["checks"] = checks
        code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert report["precision"] == "rational"
        assert report["agreement"] is True
        assert sorted(report["moments"]) == ["analytic", "fock", "partition"]
        assert len(report["moments"]["partition"]) == 13
        assert sorted(report.get("checks", {})) == checks
        assert all(c["pass"] for c in report.get("checks", {}).values())


def test_order_twenty_partition_and_analytic_agree(tmp_path, capsys):
    # the largest accepted order, on the README array
    cfg = {key: value for key, value in MEIXNER.items()
           if key not in ("precision", "density")}
    cfg.update(order=20, engines=["partition", "analytic"])
    assert MAX_ORDER == 20
    code, out, _ = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    moments = report["moments"]
    assert moments["partition"] == moments["analytic"]
    assert len(moments["partition"]) == 21
    assert moments["partition"][20] == "394943431277/131072"


def test_nan_eps_exits_two(tmp_path, capsys):
    cfg = json.loads(json.dumps(MEIXNER))
    cfg["density"]["eps"] = "nan"
    code, _, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 2
    assert "eps must be positive" in err


def _finite_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _valid_density(block):
    lo, hi, pts = block["grid_min"], block["grid_max"], block["points"]
    eps = block.get("eps", 1e-3)
    return (_finite_number(lo) and _finite_number(hi)
            and math.isfinite(float(hi) - float(lo))
            and _finite_number(eps) and eps > 0
            and isinstance(pts, int) and not isinstance(pts, bool)
            and 2 <= pts <= MAX_DENSITY_POINTS)


_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                  st.lists(st.integers(), max_size=2))
_FIELD = st.one_of(st.floats(-100, 100), st.integers(-100, 100),
                   st.floats(), st.integers(-10 ** 400, 10 ** 400), _JUNK)
_POINTS = st.one_of(st.integers(2, 50),
                    st.integers(-3, MAX_DENSITY_POINTS + 3),
                    st.integers(), st.floats(), _JUNK)


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.fixed_dictionaries(
    {"grid_min": _FIELD, "grid_max": _FIELD, "points": _POINTS},
    optional={"eps": _FIELD}))
@example(block={"grid_min": None, "grid_max": 1.0, "points": 5})
@example(block={"grid_min": -1.0, "grid_max": None, "points": 5})
@example(block={"grid_min": -1.0, "grid_max": 1.0, "points": None})
@example(block={"grid_min": -1.0, "grid_max": 1.0, "points": 5, "eps": None})
@example(block={"grid_min": "nan", "grid_max": 1.0, "points": 5})
@example(block={"grid_min": -1.0, "grid_max": 1.0, "points": 2.9})
@example(block={"grid_min": -1.0, "grid_max": 1.0, "points": 1})
@example(block={"grid_min": -1e308, "grid_max": 1e308, "points": 5})
@example(block={"grid_min": -1.0, "grid_max": 1.0, "points": 2})
def test_density_block_validated_before_any_engine(tmp_path, capsys,
                                                   monkeypatch, block):
    # a bad block exits 2 with one line before the job starts; a good one
    # reaches the job
    def job(config):
        raise _EngineReached

    monkeypatch.setattr("smfconv.cli.run", job)
    capsys.readouterr()
    cfg = dict(MEIXNER, density=block)
    if _valid_density(block):
        with pytest.raises(_EngineReached):
            run_cli(tmp_path, cfg, capsys=capsys)
        return
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: density") and err.count("\n") == 1


def test_huge_density_grid_never_built(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("density grid evaluated")

    monkeypatch.setattr("smfconv.analytic.stieltjes_density", fail)
    cfg = json.loads(json.dumps(MEIXNER))
    cfg["density"]["points"] = 10 ** 12
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "config error: density points must be an integer in " \
        "2..%d\n" % MAX_DENSITY_POINTS


def test_density_grid_overflow_exits_two(tmp_path, capsys):
    # a finite window whose closed-form evaluation overflows complex floats
    cfg = json.loads(json.dumps(MEIXNER))
    cfg["density"].update(grid_min=-1e300, grid_max=1e300, points=3)
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "config error: density grid overflows float precision\n"


def negative_rate_job(a, b, grid_min, grid_max, points):
    semicircle = {"kind": "semicircle", "a": a}
    point_mass = {"kind": "point_mass", "b": b}
    return {"version": 1, "shape": "square",
            "cells": {"1,1": semicircle, "2,2": semicircle,
                      "1,2": point_mass, "2,1": point_mass},
            "order": 4, "precision": "float",
            "density": {"grid_min": grid_min, "grid_max": grid_max,
                        "points": points, "eps": 1e-3}}


@pytest.mark.parametrize("a,b", [("-1", "1/2"), ("-1/16", "1/2")],
                         ids=["no_real_pole", "double_pole"])
def test_negative_rate_meixner_density_has_no_atom(tmp_path, capsys, a, b):
    # b^2 + 4a < 0 and = 0: the closed form's denominator has no simple
    # real zero, so the density carries no atom
    code, out, err = run_cli(tmp_path, negative_rate_job(a, b, -2, 2, 5),
                             capsys=capsys)
    assert (code, err) == (0, "")
    density = json.loads(out)["density"]
    assert density["atoms"] == []
    assert [x for x, _ in density["grid"]] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_density_grid_on_a_pole_exits_two(tmp_path, capsys):
    # a = -2.5e-7, b = 0 puts a pole of the closed form at i 1e-3 = z(0)
    cfg = negative_rate_job("-2.5e-7", "0", -1, 1, 3)
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "config error: density grid meets a pole of the " \
        "transform\n"


@pytest.mark.parametrize("cells,message", [
    ({key: [1e308, 1e308] for key in ("1,1", "1,2", "2,1", "2,2")},
     "partition moments not finite"),
    ({"1,1": ["1e999"], "2,2": ["1"]}, "cell 1,1: bad law parameter"),
    ({"1,1": [1e999], "2,2": ["1"]}, "cell 1,1: cumulants not finite"),
], ids=["overflowing_moments", "huge_rational_string", "infinite_number"])
def test_non_finite_float_values_exit_two(tmp_path, capsys, cells, message):
    cfg = {"version": 1, "shape": "custom", "cells": cells, "order": 4,
           "precision": "float"}
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error: " + message)
    assert err.count("\n") == 1


@pytest.mark.parametrize("cell,precision", [
    (["1e10000000", "1"], "rational"),
    (["1e1000000", "1"], "rational"),
    ({"kind": "semicircle", "a": "1e10000000"}, "float"),
    ({"kind": "point_mass", "b": "1e10000000"}, "rational"),
], ids=["rational_1e7", "rational_1e6", "float_semicircle", "point_mass"])
def test_huge_decimal_exponents_exit_two_at_once(cell, precision):
    # Fraction builds 10**exponent before anything is checked, so a
    # string exponent past the int-string limit is refused before it is
    cfg = {"version": 1, "shape": "custom", "cells": {"1,1": cell},
           "order": 2, "precision": precision}
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(smfconv.__file__)))
    proc = subprocess.run([sys.executable, "-m", "smfconv"],
                          input=json.dumps(cfg).encode(), capture_output=True,
                          env=env, timeout=3)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"config error: cell 1,1: bad law parameter " \
        b"(decimal exponent past %d)\n" % sys.get_int_max_str_digits()


def test_report_value_past_the_digit_limit_exits_two(tmp_path, capsys):
    # a valid rational job whose moments need more digits than Python
    # converts to text: one line naming the limit, not the interpreter's
    # advice on how to raise it
    cfg = {"cells": {"1,1": ["1/3", "1e-2000"]}, "order": 12,
           "engines": ["partition", "fock"]}
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "config error: a report value needs more than %d digits\n" \
        % sys.get_int_max_str_digits()


def test_a_moment_past_the_digit_limit_exits_before_the_next_engine(
        tmp_path, capsys, monkeypatch):
    # m_1 = 10**4300 has one digit more than the limit allows, so the
    # partition engine's moments cannot be printed and the Fock engine,
    # patched to fail the test, never runs
    def build(*args):
        raise AssertionError("the fock engine ran")
    monkeypatch.setattr(smfconv.fock, "FockModel", build)
    cfg = {"cells": {"1,1": ["1e%d" % sys.get_int_max_str_digits()]},
           "order": 1, "engines": ["partition", "fock"]}
    code, out, err = run_cli(tmp_path, cfg, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "config error: a report value needs more than %d digits\n" \
        % sys.get_int_max_str_digits()
