"""Start-up: a job imports only the smfconv modules it runs.

Each subprocess runs ``python -m smfconv`` through runpy and, at exit,
writes the sorted ``smfconv`` entries of ``sys.modules`` as the last line
of stderr.
"""

import importlib
import json
import os
import subprocess
import sys

import smfconv

RUNNER = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] == 'smfconv')),\n"
    "    file=sys.stderr))\n"
    "runpy.run_module('smfconv', run_name='__main__')\n"
)

SETUP = {"smfconv", "smfconv.arrays", "smfconv.cli", "smfconv.series"}

SQUARE = {
    "version": 1,
    "shape": "square",
    "cells": {"1,1": [1, "1/2", "1/3"], "1,2": {"kind": "semicircle",
                                                "a": "2"},
              "2,1": {"kind": "point_mass", "b": "1/2"},
              "2,2": {"kind": "custom", "cumulants": [0, 1, "-1/4"]}},
}

ENV = dict(os.environ,
           PYTHONPATH=os.path.dirname(os.path.dirname(smfconv.__file__)))


def _run(*args, config=None):
    """(exit code, stdout, loaded smfconv modules) of a job in a subprocess."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, *args],
        input=json.dumps(config).encode() if config is not None else None,
        capture_output=True, env=ENV, timeout=120)
    loaded = proc.stderr.decode().splitlines()[-1].split()
    return proc.returncode, proc.stdout, set(loaded)


def test_rejected_config_loads_no_engine_or_check_module():
    code, out, loaded = _run(config=dict(SQUARE, order=0))
    assert (code, out) == (2, b"")
    assert loaded == SETUP


def test_engines_only_job_skips_the_check_modules():
    code, _, loaded = _run(config=dict(SQUARE, order=10))
    assert code == 0
    assert loaded == SETUP | {"smfconv.analytic", "smfconv.fock",
                              "smfconv.moments", "smfconv.units"}


def test_checked_job_skips_the_partition_engine():
    code, _, loaded = _run(
        "--engines", "fock,analytic",
        "--checks", "axioms,eq56,eq611,uniqueness",
        config=dict(SQUARE, order=8))
    assert code == 0
    assert loaded == SETUP | {"smfconv.analytic", "smfconv.fock",
                              "smfconv.matricial", "smfconv.units"}


def test_package_import_loads_no_module():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, smfconv\n"
         "print(sorted(m for m in sys.modules if m.startswith('smfconv')))\n"
         "smfconv.FockModel\n"
         "print(sorted(m for m in sys.modules if m.startswith('smfconv')))\n"
         "print(smfconv.matricial.__name__)\n"],
        capture_output=True, env=ENV, timeout=120, check=True)
    assert proc.stdout.decode().splitlines() == [
        "['smfconv']",
        "['smfconv', 'smfconv.arrays', 'smfconv.fock', 'smfconv.series', "
        "'smfconv.units']",
        "smfconv.matricial",
    ]


def test_every_public_name_and_module_resolves():
    namespace = {}
    exec("from smfconv import *", namespace)
    for name in smfconv.__all__:
        value = getattr(smfconv, name)
        assert value is not None and namespace[name] is value, name
        assert name in dir(smfconv)
    for name in ("analytic", "arrays", "fock", "matricial", "moments",
                 "partitions", "series", "units"):
        module = getattr(smfconv, name)
        assert module is importlib.import_module("smfconv." + name)
        assert name in dir(smfconv)
    assert not [n for n in dir(smfconv)
                if n.startswith("_") and not n.startswith("__")]
