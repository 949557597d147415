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

The list, 129 invocations:

* jobs 0-9 of each perfbench workload at seed 1, in json and in csv;
* for each of the 16 density_f10 arrays that those jobs never draw, the
  first later density_f10 job at seed 1 that draws it, in json, so that
  every array of ``DENSITY_ARRAYS`` is compared;
* the README job (square Meixner array, order 6, all four checks) as
  ``--config``, ``--out csv`` and on stdin with ``--order 8 --engines
  partition,analytic``, each in rational and in float precision, and
  the README density block on it in float precision;
* the README job with its four cell keys in reverse order ("2,2" first),
  in rational and in float precision, so that the array's cells reach
  the program unsorted;
* two float density jobs on the general (fixed-point) path, in json and
  in csv: a lower-triangular array with an absent cell, and a square
  array of custom cells whose top cumulants are 0.0 and -0.0;
* a float density job in json on the general path whose four cells'
  tails are distinct and all depend on g, so that each wire of the
  damped map shows in the report;
* a float density job in json on the general path that converges at
  91 of its 101 grid points, so that stderr carries the count of the
  others;
* a float density job in json on a custom square array of the
  root-selection guard's sample at eps 1e-3, whose first grid point is
  one where Newton from an earlier damped start reaches another root,
  so that a moved root shows;
* two float density jobs in json at the edge of the closed form: the
  README array written as custom cumulant lists padded with 0.0 and
  -0.0, which takes the closed form and reports an atom, and the same
  with r(3) = 0.1 on cell (1,1), which takes the fixed point;
* the subnormal-eps density job, in json and in csv: a square split
  array (semicircle diagonals, point-mass off-diagonals) at eps 5e-324,
  whose grid point x = 0 has a NaN density;
* a rational job whose string cumulant "1e4300" has its decimal exponent
  at the int-string limit, the largest exponent a string may have, in a
  place no reported moment reaches;
* the README job at order 20 with all four checks, in both precisions;
* checks_r8 jobs 0-2 with ``--precision float``;
* checks_r8 job 0 with ``--checks`` set to each of ``eq56``, ``eq611``,
  ``uniqueness``, ``eq56,uniqueness`` and ``eq611,uniqueness``, in
  rational and in float precision;
* engines_r10 jobs 0-4 (one per named shape) with ``--order 6 --checks
  eq56,eq611,uniqueness``, and with ``--order 6 --checks axioms`` in
  rational and in float precision;
* a one-cell custom array, cell (1,2), at order 6 with the ``axioms``,
  ``eq56`` and ``eq611`` checks, in rational and in float precision:
  there the cell operator and A are one operator.

Configs come from perfbench/workloads.py, loaded from its path and not
changed.  Config files are written, with their keys in the order given,
to a temporary directory that is removed at exit.
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
# a square array whose four tails are distinct and all depend on g: r(2)
# and r(3) are nonzero on both off-diagonal cells
WIRING_CELLS = {"1,1": [0.1, 0.9, 0.2, 0.05], "1,2": [0.3, 0.25, 0.1, 0.02],
                "2,1": [-0.25, 0.15, -0.08, -0.01],
                "2,2": [-0.2, 0.7, -0.1, 0.03]}
# a square custom array whose fixed point converges neither in the damped
# map nor by Newton at 10 of the 101 grid points
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
# array 11 of the root-selection guard's sample (seed 35 in
# tests/test_analytic.py) at its eps 1e-3: Newton started after a
# contraction-based damped handoff reaches another root at the grid's
# first point, 0.98 away
ROOT_SELECTION_JOB = {
    "version": 1,
    "shape": "square",
    "cells": {
        "1,1": [-0.5999681873955094, 0.4979104394782152,
                -0.7085385782841425, 0.2852619094280753],
        "1,2": [-0.47974942195360226, 0.6109099943290892,
                -0.8295695594614774, -0.7465698008559678],
        "2,1": [-0.29587210255957097, 0.9260677607690604,
                -0.6188038723831839, 0.8066476923446206],
        "2,2": [-0.09954854177146055, 0.8470229702940759,
                0.35811212975512663, 0.7794862240725635]},
    "order": 4,
    "engines": ["analytic"],
    "precision": "float",
    "density": {"grid_min": -0.010142445657000287, "grid_max": 3.0,
                "points": 101, "eps": 1e-3},
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
# a cumulant whose decimal exponent is the default int-string limit:
# (1,2)'s sixth, read by no moment of order 6
EXPONENT_BOUND_JOB = {
    "version": 1,
    "shape": "custom",
    "cells": {"1,1": ["1", "1"],
              "1,2": ["1/2", "0", "0", "0", "0", "1e4300"]},
    "order": 6,
}
# a one-cell array with checks: its cell operator is A
ONE_CELL_JOB = {
    "version": 1,
    "shape": "custom",
    "cells": {"1,2": ["1/2", "1", "-1/3"]},
    "order": 6,
    "checks": ["axioms", "eq56", "eq611"],
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


def density_array(config):
    """The ``DENSITY_ARRAYS`` entry (a11, a22, b12, b21) of a density_f10
    job config."""
    cells = config["cells"]
    return (float(cells["1,1"]["a"]), float(cells["2,2"]["a"]),
            float(cells["1,2"]["b"]), float(cells["2,1"]["b"]))


def invocations(workloads):
    """(label, config, args, on_stdin) for every compared run."""
    out = []
    for name in workloads.WORKLOADS:
        for index in range(JOBS_PER_WORKLOAD):
            config = workloads.job_config(name, SEED, index)
            for fmt in ("json", "csv"):
                out.append(("%s/%d/%s" % (name, index, fmt), config,
                            ["--out", fmt], False))
    drawn = {density_array(workloads.job_config("density_f10", SEED, index))
             for index in range(JOBS_PER_WORKLOAD)}
    index = JOBS_PER_WORKLOAD
    while not drawn.issuperset(workloads.DENSITY_ARRAYS):
        config = workloads.job_config("density_f10", SEED, index)
        array = density_array(config)
        if array not in drawn:
            drawn.add(array)
            out.append(("density_f10/%d/json" % index, config,
                        ["--out", "json"], False))
        index += 1
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
    reversed_cells = dict(reversed(README_JOB["cells"].items()))
    for precision in ("rational", "float"):
        out.append(("reversed_cells/%s/json" % precision,
                    dict(README_JOB, cells=reversed_cells),
                    ["--precision", precision], False))
    for shape, cells in GENERAL_DENSITY_CELLS.items():
        job = dict(GENERAL_DENSITY_JOB, shape=shape, cells=cells)
        for fmt in ("json", "csv"):
            out.append(("density/%s/%s" % (shape, fmt), job, ["--out", fmt],
                        False))
    out.append(("density/wiring/json", dict(
        GENERAL_DENSITY_JOB, shape="square", cells=WIRING_CELLS), [], False))
    out.append(("density/unconverged/json", UNCONVERGED_JOB, [], False))
    out.append(("density/root_selection/json", ROOT_SELECTION_JOB, [],
                False))
    for name, cells in MEIXNER_EDGE_CELLS.items():
        job = dict(GENERAL_DENSITY_JOB, shape="square", cells=cells)
        out.append(("density/meixner_%s/json" % name, job, [], False))
    for fmt in ("json", "csv"):
        out.append(("density/subnormal_eps/%s" % fmt, SUBNORMAL_EPS_JOB,
                    ["--out", fmt], False))
    out.append(("custom/exponent_bound/json", EXPONENT_BOUND_JOB, [], False))
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
    for precision in ("rational", "float"):
        out.append(("custom/one_cell/%s" % precision, ONE_CELL_JOB,
                    ["--precision", precision], False))
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
            path.write_text(json.dumps(config, indent=1))
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
