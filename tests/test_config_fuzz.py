"""Whole job documents, fuzzed through ``cli.main`` in-process.

Every known field takes a plausible value, any JSON value, or is left
out, and unknown fields ride along.  Orders stay at 6 or below and
density grids at five points, so the property runs in seconds.
Whatever the document, the exit code says what happened:

* 0, 1 or 2, and no exception escapes;
* 2 is a config error: empty stdout and one line on stderr;
* on 0 or 1, the report is strict JSON, with no NaN or Infinity;
* 1 is a disagreement or a failed check, named in the report;
* on 0 or 1, stderr may open with one line counting the density points
  whose fixed point did not converge, which leaves the exit code alone;
* a float job that exits 1 exits 1 in rational precision on the exact
  binary values of its cumulants, so a float failure is never an
  artefact of rounding.

A valid array of any shape, with all three engines and every check that
applies to it, passes: the linearization and uniqueness theorems stated
as a property of the whole job, in both precisions.
"""

import contextlib
import io
import json
import re
from fractions import Fraction
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from smfconv.cli import CHECKS, ENGINES, main, parse_config

CELL_KEYS = ("1,1", "1,2", "2,1", "2,2")

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

# awkward numbers: thirds and tenths that binary64 rounds, huge and
# subnormal magnitudes, and integers past 2^24
_VALUE = st.one_of(
    st.sampled_from([0, 1, -1, 2, "1/97", "-1/3", 0.1, -0.1, 1e20, -1e8,
                     123456789, 5e-324, "5e-324", 1e300, "1e-20"]),
    st.integers(-5, 5),
    st.fractions(min_value=-4, max_value=4, max_denominator=97).map(str),
    st.floats(-1e3, 1e3),
)
_CUMULANTS = st.lists(_VALUE, min_size=1, max_size=4)
_LAW = st.one_of(
    _CUMULANTS,
    st.fixed_dictionaries({"kind": st.just("semicircle"), "a": _VALUE}),
    st.fixed_dictionaries({"kind": st.just("point_mass"), "b": _VALUE}),
    st.fixed_dictionaries({"kind": st.just("custom"),
                           "cumulants": _CUMULANTS}))
_GRID = st.fixed_dictionaries(
    {"grid_min": st.floats(-4, 0), "grid_max": st.floats(0, 4),
     "points": st.integers(2, 5)},
    optional={"eps": st.floats(1e-4, 1e-1)})
# documents that parse, give or take a cell key, a law or a float value
# in rational precision
_PLAUSIBLE = st.fixed_dictionaries(
    {"cells": st.dictionaries(st.sampled_from(CELL_KEYS), _LAW, min_size=1,
                              max_size=4)},
    optional={
        "version": st.just(1),
        "shape": st.sampled_from(["custom", "square", "diagonal"]),
        "order": st.integers(1, 6),
        "engines": st.lists(st.sampled_from(ENGINES), min_size=1,
                            max_size=3, unique=True),
        "precision": st.sampled_from(["rational", "float"]),
        "checks": st.lists(st.sampled_from(CHECKS), max_size=4, unique=True),
        "density": _GRID,
    })
# any JSON value for a known field, an unknown field, a bad cell key, or
# a bad law; a document keeps orders at 6 and grids at 10 points or below
_FIELD = st.sampled_from(["version", "shape", "cells", "order", "engines",
                          "precision", "checks", "density", "extra"])
_SMALL_JSON = _JSON.filter(
    lambda v: not isinstance(v, int) or isinstance(v, bool) or v <= 6)
_DAMAGE = st.one_of(
    st.dictionaries(_FIELD, _SMALL_JSON, min_size=1, max_size=2),
    st.fixed_dictionaries({"cells": st.dictionaries(
        st.sampled_from(CELL_KEYS + ("1,3", "x", "1, 1")),
        st.one_of(_LAW, _JSON), min_size=1, max_size=3)}),
    st.fixed_dictionaries({"density": st.fixed_dictionaries(
        {"grid_min": _JSON, "grid_max": _JSON, "points": _SMALL_JSON},
        optional={"eps": _JSON})}))
DOCUMENTS = st.one_of(
    _PLAUSIBLE,
    st.tuples(_PLAUSIBLE, _DAMAGE).map(lambda t: {**t[0], **t[1]}),
    _JSON)


def run_main(doc):
    """(exit code, stdout, stderr) of ``smfconv`` reading *doc* on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([])
    return code, out.getvalue(), err.getvalue()


def exact_twin(doc):
    """The rational job on the exact binary values of a float job's
    cumulants: every cell a custom list of "p/q" strings, no density."""
    job = parse_config(json.loads(json.dumps(doc)))
    twin = {k: v for k, v in doc.items() if k != "density"}
    twin["precision"] = "rational"
    twin["cells"] = {"%d,%d" % cell: ["%d/%d" % Fraction(v).as_integer_ratio()
                                      for v in law.cumulants(job.order,
                                                             "float")]
                     for cell, law in job.laws.items()}
    return twin


# point mass 1e8 on (1,1), semicircle(1) on (2,2), cumulants
# (0.5, -1, 0.1) on (1,2), semicircle(1/2) on (2,1): float precision
# once failed uniqueness here, on binary64 sums that cancel
BIG_POINT_MASS = {
    "shape": "square", "order": 8, "precision": "float",
    "checks": ["uniqueness"],
    "cells": {"1,1": {"kind": "point_mass", "b": 1e8},
              "2,2": {"kind": "semicircle", "a": 1},
              "1,2": [0.5, -1, 0.1],
              "2,1": {"kind": "semicircle", "a": 0.5}},
}
# once failed with "diagonal-then-kernel product [(2, 2), (1, 1)] has
# moment -805306368.0", where the exact moment is 0
DIAGONAL_THEN_KERNEL = {
    "cells": {"2,2": [0, 3, -1e7, -1e7], "1,1": [1e8]}, "order": 5,
    "precision": "float", "checks": ["axioms"],
}

# r(2) = -1 on (1,2) alone, density at x = 0: the class-(2,2) fixed point
# u = 1/(z + u) has its roots near +1 and -1, but from u = 1/z the damped
# map and Newton both stay on the imaginary axis, so neither point
# converges and stderr counts them; G = 1/z is right all the same
IMAGINARY_AXIS = {
    "cells": {"1,1": {"kind": "semicircle", "a": 0},
              "1,2": {"kind": "custom", "cumulants": [0, -1]}},
    "order": 2, "version": 1, "precision": "float",
    "density": {"grid_min": 0.0, "grid_max": 0.0, "points": 2},
}
# the smallest subnormal eps puts the grid point x = 0 at z = 5e-324 i,
# where the damped map starts from 1/z = -inf i and reaches only NaN: the
# density there is NaN, which a JSON report cannot hold, so the job exits 2
SUBNORMAL_EPS = {
    "version": 1, "shape": "square", "order": 4, "engines": ["analytic"],
    "precision": "float",
    "cells": {"1,1": {"kind": "semicircle", "a": 0.9},
              "2,2": {"kind": "semicircle", "a": 1.1},
              "1,2": {"kind": "point_mass", "b": 0.2},
              "2,1": {"kind": "point_mass", "b": -0.3}},
    "density": {"grid_min": -1.0, "grid_max": 1.0, "points": 3,
                "eps": 5e-324},
}


def strict_json(text):
    """*text* parsed as JSON, raising on NaN and +-Infinity, which Python
    prints but JSON does not allow."""
    def reject(constant):
        raise ValueError("report holds %s" % constant)
    return json.loads(text, parse_constant=reject)


@settings(max_examples=300, deadline=None, database=None)
@given(doc=DOCUMENTS)
@example(doc=BIG_POINT_MASS)
@example(doc=DIAGONAL_THEN_KERNEL)
@example(doc=IMAGINARY_AXIS)
@example(doc=SUBNORMAL_EPS)
def test_any_document_exits_zero_one_or_two(doc):
    code, out, err = run_main(doc)
    event("exit %s" % code)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1
        return
    report = strict_json(out)
    err = re.sub(r"\Adensity: \d+ of %d grid points did not converge\n"
                 % len(report.get("density", {}).get("grid", ())), "", err)
    checks = report.get("checks", {}).values()
    if code == 0:
        assert err == ""
        assert report["agreement"] is True
        assert all(c["pass"] for c in checks)
        return
    assert err == "verification failed\n"
    assert report["agreement"] is False or not all(c["pass"] for c in checks)
    if report["precision"] == "float":
        assert run_main(exact_twin(doc))[0] == 1


def test_float_failures_are_exact_on_the_regression_arrays():
    # both false failures of float precision now pass, as their exact
    # twins do; the same array at b = 1e7 passed before and still does
    for doc in (BIG_POINT_MASS, DIAGONAL_THEN_KERNEL):
        assert run_main(doc)[0] == 0
        assert run_main(exact_twin(doc))[0] == 0
    small = json.loads(json.dumps(BIG_POINT_MASS))
    small["cells"]["1,1"]["b"] = 1e7
    small["checks"] = list(CHECKS)
    assert run_main(small)[0] == 0


# a valid array: cumulant lists or named laws over the awkward numbers,
# and cumulants at the 1e-12 scale, where a tolerance would hide a defect
_ARRAY_VALUE = st.one_of(_VALUE, st.floats(-1e3, 1e3).map(lambda v: v * 1e-12))
_ARRAY_CUMULANTS = st.lists(_ARRAY_VALUE, min_size=1, max_size=4)
_ARRAY_LAW = st.one_of(
    _ARRAY_CUMULANTS,
    st.fixed_dictionaries({"kind": st.just("semicircle"), "a": _ARRAY_VALUE}),
    st.fixed_dictionaries({"kind": st.just("point_mass"),
                           "b": _ARRAY_VALUE}))


@settings(max_examples=100, deadline=None, database=None)
@given(cells=st.dictionaries(st.sampled_from(CELL_KEYS), _ARRAY_LAW,
                             min_size=1, max_size=4),
       order=st.integers(1, 6))
# float moments overflow, and the exact reports run to thousands of digits
@example(cells={"1,1": [1e300, 5e-324, 1e300, 5e-324],
                "2,2": [5e-324, "1/97", 1e20, -1e8], "1,2": [1e300, "1/97"],
                "2,1": [5e-324, 1e300, "-1/3", 123456789]}, order=6)
def test_a_valid_job_passes_in_both_precisions(cells, order):
    # uniqueness needs a cell in each row, axioms an order of 2 or more
    checks = [c for c in CHECKS
              if (c != "uniqueness" or {k[0] for k in cells} == {"1", "2"})
              and (c != "axioms" or order >= 2)]
    doc = {"cells": cells, "order": order, "engines": list(ENGINES),
           "checks": checks, "precision": "float"}
    code, out, err = run_main(doc)
    event("float exit %s" % code)
    if code == 2:
        assert out == ""
        assert err.startswith("config error: ") and "not finite" in err
    else:
        assert (code, err) == (0, "")
    code, out, err = run_main(exact_twin(doc))
    assert (code, err) == (0, "")
