"""Self-tests of the benchmark: seeded inputs, the verification gate, the
trace's self times and exact counts, and BENCHMARK.json's metric names.

    python3 -m pytest perfbench -q
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import verify  # noqa: E402
from smfconv.cli import _emit, parse_config  # noqa: E402
from smfconv.cli import run as run_job  # noqa: E402
from workloads import WORKLOADS, config_bytes, job_config  # noqa: E402


def report_bytes(config):
    report, code = run_job(parse_config(config))
    assert code == 0
    return _emit(report, "json").encode()


def small(config, **changes):
    """The same job at a lower order, so the gate tests run quickly."""
    out = copy.deepcopy(config)
    out.update(changes)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    for index in range(6):
        assert (config_bytes(job_config(workload, 7, index))
                == config_bytes(job_config(workload, 7, index)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_arrays_not_shape(workload):
    a = [job_config(workload, 7, index) for index in range(6)]
    b = [job_config(workload, 8, index) for index in range(6)]
    assert [c["cells"] for c in a] != [c["cells"] for c in b]
    for x, y in zip(a, b):
        assert set(x["cells"]) == set(y["cells"])
        for key in ("shape", "order", "engines", "precision", "checks"):
            assert x[key] == y[key]


def test_engines_workload_cycles_named_shapes():
    shapes = [job_config("engines_r10", 3, i)["shape"] for i in range(5)]
    assert sorted(shapes) == sorted(
        ["square", "diagonal", "lower_triangular", "upper_anti_triangular",
         "column"])


def test_density_arrays_are_not_meixner():
    for index in range(20):
        cells = job_config("density_f10", 5, index)["cells"]
        assert cells["1,1"]["a"] != cells["2,2"]["a"]
        assert cells["1,2"]["b"] != cells["2,1"]["b"]


def test_gate_accepts_then_rejects_tampered_moment():
    config = small(job_config("engines_r10", 2, 0), order=5)
    out = report_bytes(config)
    assert verify.problems(config, 0, out) == []
    report = json.loads(out)
    report["moments"]["fock"][3] = "12345/7"
    found = verify.problems(config, 0, json.dumps(report).encode())
    assert found == ["engine fock: moment 3 differs from master_cauchy"]


def test_gate_rejects_flipped_check_and_exit_code():
    config = small(job_config("checks_r8", 2, 0), order=4)
    out = report_bytes(config)
    assert verify.problems(config, 0, out) == []
    report = json.loads(out)
    report["checks"]["eq611"]["pass"] = False
    assert verify.problems(config, 0, json.dumps(report).encode()) \
        == ["check eq611 did not pass"]
    assert verify.problems(config, 1, out) == ["exit code 1"]
    del report["checks"]["axioms"]
    assert "check axioms did not pass" in verify.problems(
        config, 0, json.dumps(report).encode())


def test_gate_rejects_disagreement_and_garbage():
    config = small(job_config("engines_r10", 2, 1), order=4)
    report = json.loads(report_bytes(config))
    report["agreement"] = False
    assert "engines disagree" in verify.problems(
        config, 0, json.dumps(report).encode())
    assert verify.problems(config, 0, b"not json") \
        == ["stdout is not a JSON report"]


def test_gate_checks_density_quadrature():
    base = job_config("density_f10", 2, 0)
    config = small(base, order=4, engines=["analytic"],
                   density=dict(base["density"], points=801))
    out = report_bytes(config)
    assert verify.problems(config, 0, out) == []
    report = json.loads(out)

    doubled = copy.deepcopy(report)
    for row in doubled["density"]["grid"]:
        row[1] *= 1.01
    assert any("density mass" in p for p in verify.problems(
        config, 0, json.dumps(doubled).encode()))

    short = copy.deepcopy(report)
    short["density"]["grid"].pop()
    assert verify.problems(config, 0, json.dumps(short).encode()) \
        == ["density has 800 points, want 801"]

    moved = copy.deepcopy(report)
    moved["density"]["grid"][-1][0] += 0.1
    assert verify.problems(config, 0, json.dumps(moved).encode()) \
        == ["density grid does not span the requested window"]

    nan = copy.deepcopy(report)
    nan["density"]["grid"][5][1] = math.nan
    assert verify.problems(config, 0, json.dumps(nan).encode()) \
        == ["density has a non-finite or malformed value"]


def test_float_moments_compare_within_tolerance():
    config = small(job_config("density_f10", 2, 0), order=4,
                   engines=["analytic", "fock"])
    del config["density"]
    report = json.loads(report_bytes(config))
    report["moments"]["fock"][2] *= 1 + 1e-12
    assert verify.problems(config, 0, json.dumps(report).encode()) == []
    report["moments"]["fock"][2] *= 1 + 1e-6
    assert verify.problems(config, 0, json.dumps(report).encode()) \
        == ["engine fock: moment 2 differs from master_cauchy"]


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "name": "b", "parent": 0, "start": 6.0, "end": 8.0},
    ]
    assert run.self_times(spans) == {"job": 4.0, "a": 3.0, "b": 3.0}


def traced_counts(config_path, spans_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_job.py"), str(config_path),
         str(spans_path)], env=env, capture_output=True, check=True)
    spans, summary = run.read_trace(spans_path)
    return proc.stdout, spans, summary["counts"]


def test_traced_replay_matches_cli_and_counts_repeat(tmp_path):
    config = small(job_config("engines_r10", 4, 0), order=6,
                   checks=["eq56", "uniqueness"])
    path = tmp_path / "job.json"
    path.write_bytes(config_bytes(config))
    first = traced_counts(path, tmp_path / "a.jsonl")
    second = traced_counts(path, tmp_path / "b.jsonl")
    assert first[0] == report_bytes(config) + b"\n"
    assert first[2] == second[2]
    assert first[2]["partitions.count"] == sum(
        (1, 2, 5, 14, 42, 132))           # Catalan(1..6)
    names = {s["name"] for s in first[1]}
    assert {"partitions.enumerate_nc", "moments.smf_moments", "fock.build",
            "matricial.eq56", "matricial.uniqueness", "cli.emit"} <= names
    assert "fock.axiom_check" not in names


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks_r8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
