#!/usr/bin/env python3
"""Compare what two source trees of smfconv print for a fixed list of jobs.

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

Each invocation runs in a fresh ``python3 -m smfconv`` process with
PYTHONPATH set to one tree's ``src`` directory, once per tree, and the two
runs' stdout, stderr and exit code are compared byte for byte.  One line
is printed per difference, then a summary; the exit code is 1 when any
invocation differs and 0 otherwise.  When the two stdouts differ and both
hold a density grid of the same length, in json or in csv, the line also
gives the largest absolute and the largest relative change of the density
values, each pair's change relative to the larger of its two magnitudes.

The list:

* jobs 0-9 of each perfbench workload at seed 1, in json and in csv;
* the README job (square Meixner array, order 6, all four checks) as
  ``--config``, ``--out csv`` and on stdin with ``--order 8 --engines
  partition,analytic``, each in rational and in float precision, and
  the README density block on it in float precision;
* two float density jobs on the general (fixed-point) path, in json and
  in csv: a lower-triangular array with an absent cell, and a square
  array of custom cells whose top cumulants are 0.0 and -0.0;
* two float density jobs in json at the edge of the closed form: the
  README array written as custom cumulant lists padded with 0.0 and
  -0.0, which takes the closed form and reports an atom, and the same
  with r(3) = 0.1 on cell (1,1), which takes the fixed point;
* the subnormal-eps density job, in json and in csv: a square split
  array (semicircle diagonals, point-mass off-diagonals) at eps 5e-324,
  whose grid point x = 0 has a NaN density;
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
# float density jobs off the closed form, one per shape: a lower-triangular
# array, whose absent cell has an all-zero tail, and a square array of
# custom cells whose top cumulants are 0.0 and -0.0
GENERAL_DENSITY_JOB = {
    "version": 1,
    "order": 6,
    "engines": ["partition", "fock", "analytic"],
    "precision": "float",
    "density": {"grid_min": -4.0, "grid_max": 4.0, "points": 401,
                "eps": 1e-3},
}
GENERAL_DENSITY_CELLS = {
    "lower_triangular": {
        "1,1": {"kind": "semicircle", "a": "1"},
        "2,1": [0.2, 0.3, -0.1, 0.05, 0.0, 0.0],
        "2,2": {"kind": "semicircle", "a": "0.7"},
    },
    "square": {
        "1,1": [0.2, 1.0, 0.1, 0.0],
        "1,2": [0.3, 0.0, 0.0, -0.0],
        "2,1": [-0.25, -0.0, 0.0, 0.0],
        "2,2": [-0.1, 0.8, -0.05, -0.0],
    },
}
# the README array as custom cumulant lists padded with 0.0 and -0.0, and
# the same with one extra cumulant, which is no longer of the closed form
MEIXNER_CUSTOM_CELLS = {"1,1": [0.0, 1.0, 0.0, -0.0],
                        "1,2": [0.5, 0.0, -0.0, 0.0],
                        "2,1": [0.5, -0.0, 0.0, -0.0],
                        "2,2": [-0.0, 1.0, -0.0, 0.0]}
MEIXNER_EDGE_CELLS = {
    "closed_form": MEIXNER_CUSTOM_CELLS,
    "extra_r3": {**MEIXNER_CUSTOM_CELLS, "1,1": [0.0, 1.0, 0.1, -0.0]},
}
# eps 5e-324 puts x = 0 at z = 5e-324 i, where 1/z overflows and the
# fixed point of this array yields a NaN density
SUBNORMAL_EPS_JOB = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": {"kind": "semicircle", "a": 0.9},
        "1,2": {"kind": "point_mass", "b": 0.2},
        "2,1": {"kind": "point_mass", "b": -0.3},
        "2,2": {"kind": "semicircle", "a": 1.1},
    },
    "order": 4,
    "engines": ["analytic"],
    "precision": "float",
    "density": {"grid_min": -1.0, "grid_max": 1.0, "points": 3,
                "eps": 5e-324},
}
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
    for shape, cells in GENERAL_DENSITY_CELLS.items():
        job = dict(GENERAL_DENSITY_JOB, shape=shape, cells=cells)
        for fmt in ("json", "csv"):
            out.append(("density/%s/%s" % (shape, fmt), job, ["--out", fmt],
                        False))
    for name, cells in MEIXNER_EDGE_CELLS.items():
        job = dict(GENERAL_DENSITY_JOB, shape="square", cells=cells)
        out.append(("density/meixner_%s/json" % name, job, [], False))
    for fmt in ("json", "csv"):
        out.append(("density/subnormal_eps/%s" % fmt, SUBNORMAL_EPS_JOB,
                    ["--out", fmt], False))
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


def density_values(stdout: bytes):
    """The density values of a report in json or csv, or None when it
    holds no density grid."""
    text = stdout.decode(errors="replace")
    try:
        report = json.loads(text)
    except ValueError:
        lines = text.splitlines() + ["atom_position,atom_weight"]
        if lines[0] != "x,density":
            return None
        end = lines.index("atom_position,atom_weight")
        return [float(line.split(",")[1]) for line in lines[1:end]]
    if isinstance(report, dict) and "density" in report:
        return [y for _, y in report["density"]["grid"]]
    return None


def density_change(parent_out: bytes, change_out: bytes):
    """(largest absolute, largest relative) change between the density
    values of two reports, or None unless both hold a grid of one length."""
    a, b = density_values(parent_out), density_values(change_out)
    if a is None or b is None or len(a) != len(b):
        return None
    return (max((abs(x - y) for x, y in zip(a, b)), default=0.0),
            max((abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
                 for x, y in zip(a, b)), default=0.0))


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
            line = ("%s: %s differs at byte %d (%d vs %d bytes)"
                    % (label, part, at, len(a), len(b)))
            change_of = density_change(a, b) if part == "stdout" else None
            if change_of is not None:
                line += ("; density max change %.2g absolute, %.2g relative"
                         % change_of)
            lines.append(line)
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
