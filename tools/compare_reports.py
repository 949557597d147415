#!/usr/bin/env python3
"""Compare what two source trees of smfconv print for a fixed list of jobs.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

Each invocation runs in a fresh ``python3 -m smfconv`` process with
PYTHONPATH set to one tree's ``src`` directory, once per tree, and the two
runs' stdout, stderr and exit code are compared byte for byte.  One line
is printed per difference, then a summary; the exit code is 1 when any
invocation differs and 0 otherwise.

The list:

* jobs 0-9 of each perfbench workload at seed 1, in json and in csv;
* the README job (square Meixner array, order 6, all four checks) as
  ``--config``, ``--out csv`` and on stdin with ``--order 8 --engines
  partition,analytic``, each in rational and in float precision, and
  the README density block on it in float precision;
* the README job at order 20 with all four checks, in both precisions;
* checks_r8 jobs 0-2 with ``--precision float``;
* checks_r8 job 0 with ``--checks`` set to each of ``eq56``, ``eq611``,
  ``uniqueness``, ``eq56,uniqueness`` and ``eq611,uniqueness``, in
  rational and in float precision;
* engines_r10 jobs 0-4 (one per named shape) with ``--order 6 --checks
  eq56,eq611,uniqueness``, and with ``--order 6 --checks axioms`` in
  rational and in float precision.

Configs come from perfbench/workloads.py, loaded from its path and not
changed.  Config files are written to a temporary directory that is
removed at exit.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1
JOBS_PER_WORKLOAD = 10

# the job of README.md's "Command line" section, and its density block
README_JOB = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": {"kind": "semicircle", "a": "1"},
        "1,2": {"kind": "point_mass", "b": "1/2"},
        "2,1": {"kind": "point_mass", "b": "1/2"},
        "2,2": {"kind": "semicircle", "a": "1"},
    },
    "order": 6,
    "engines": ["partition", "fock", "analytic"],
    "precision": "rational",
    "checks": ["axioms", "eq56", "eq611", "uniqueness"],
}
README_DENSITY = {"grid_min": -2.0, "grid_max": 3.0, "points": 201,
                  "eps": 1e-4}
# the subsets of the three table checks that the all-checks jobs never run
CHECK_SUBSETS = ("eq56", "eq611", "uniqueness", "eq56,uniqueness",
                 "eq611,uniqueness")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invocations(workloads):
    """(label, config, args, on_stdin) for every compared run."""
    out = []
    for name in workloads.WORKLOADS:
        for index in range(JOBS_PER_WORKLOAD):
            config = workloads.job_config(name, SEED, index)
            for fmt in ("json", "csv"):
                out.append(("%s/%d/%s" % (name, index, fmt), config,
                            ["--out", fmt], False))
    for precision in ("rational", "float"):
        flag = ["--precision", precision]
        out += [
            ("readme/%s/json" % precision, README_JOB, flag, False),
            ("readme/%s/csv" % precision, README_JOB,
             flag + ["--out", "csv"], False),
            ("readme/%s/stdin" % precision, README_JOB,
             flag + ["--order", "8", "--engines", "partition,analytic"],
             True),
            ("readme/%s/order20" % precision, README_JOB,
             flag + ["--order", "20"], False),
        ]
    out.append(("readme/float/density",
                dict(README_JOB, precision="float", density=README_DENSITY),
                [], False))
    for index in range(3):
        out.append(("checks_r8/%d/float" % index,
                    workloads.job_config("checks_r8", SEED, index),
                    ["--precision", "float"], False))
    job = workloads.job_config("checks_r8", SEED, 0)
    for checks in CHECK_SUBSETS:
        for precision in ("rational", "float"):
            out.append(("checks_r8/0/%s/%s" % (checks, precision), job,
                        ["--checks", checks, "--precision", precision],
                        False))
    for index in range(5):
        job = workloads.job_config("engines_r10", SEED, index)
        out.append(("engines_r10/%d/order6-checks" % index, job,
                    ["--order", "6", "--checks", "eq56,eq611,uniqueness"],
                    False))
        for precision in ("rational", "float"):
            out.append(("engines_r10/%d/order6-axioms/%s" % (index, precision),
                        job, ["--order", "6", "--checks", "axioms",
                              "--precision", precision], False))
    return out


def run_job(src, config_path: Path, args, on_stdin: bool):
    """(exit code, stdout, stderr) of one fresh process under *src*."""
    env = dict(os.environ, PYTHONPATH=str(src))
    if on_stdin:
        with open(config_path, "rb") as fh:
            proc = subprocess.run([sys.executable, "-m", "smfconv", *args],
                                  stdin=fh, capture_output=True, env=env)
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "smfconv", "--config", str(config_path),
             *args], stdin=subprocess.DEVNULL, capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def differences(label: str, parent, change):
    """One line per part of the two runs that differs."""
    lines = []
    if parent[0] != change[0]:
        lines.append("%s: exit code %d != %d" % (label, parent[0], change[0]))
    for part, a, b in (("stdout", parent[1], change[1]),
                       ("stderr", parent[2], change[2])):
        if a != b:
            at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                      min(len(a), len(b)))
            lines.append("%s: %s differs at byte %d (%d vs %d bytes)"
                         % (label, part, at, len(a), len(b)))
    return lines


def compare(parent_src, change_src, runs) -> int:
    """Print the differences of every run and a summary; return their
    count."""
    found = 0
    with tempfile.TemporaryDirectory(prefix="compare_reports-") as tmp:
        for n, (label, config, args, on_stdin) in enumerate(runs):
            path = Path(tmp) / ("job%d.json" % n)
            path.write_text(json.dumps(config, sort_keys=True, indent=1))
            lines = differences(
                label, run_job(parent_src, path, args, on_stdin),
                run_job(change_src, path, args, on_stdin))
            for line in lines:
                print(line, flush=True)
            found += len(lines)
    print("%d invocations, %d differences" % (len(runs), found))
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or not all(
            (Path(src) / "smfconv").is_dir() for src in argv):
        print("usage: compare_reports.py PARENT_SRC CHANGE_SRC, each a src "
              "directory holding smfconv", file=sys.stderr)
        return 2
    parent_src, change_src = (Path(src).resolve() for src in argv)
    runs = invocations(load_workloads())
    return 1 if compare(parent_src, change_src, runs) else 0


if __name__ == "__main__":
    sys.exit(main())
