"""Verification gate for one smfconv job's output.

``problems(config, exit_code, stdout)`` returns a list of human-readable
failures; an empty list means the job's report is correct.  The reference
moments come from an in-process ``master_cauchy`` on the array the config
describes, so a report is checked against an engine run the benchmark
controls, not against the report's own agreement flag alone.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from smfconv.analytic import master_cauchy
from smfconv.arrays import DistributionArray
from smfconv.cli import parse_config

FLOAT_REL = 1e-9
# Trapezoid quadrature of the eps-smoothed density over a finite window:
# Poisson-kernel tails and grid spacing cost up to about 1e-3 of the mass.
DENSITY_MASS_TOL = 5e-3
DENSITY_MEAN_TOL = 5e-3


def reference_moments(config: dict) -> list:
    job = parse_config(config)
    array = DistributionArray.from_laws(job.laws, job.order, job.precision)
    return list(master_cauchy(array, job.order).coeffs)


def _moment_mismatch(got, want, rational: bool) -> bool:
    if rational:
        try:
            return not isinstance(got, str) or Fraction(got) != want
        except (ValueError, ZeroDivisionError):
            return True
    if not isinstance(got, (int, float)):
        return True
    return abs(got - want) > FLOAT_REL * max(1.0, abs(got), abs(want))


def _density_problems(density: dict, spec: dict, m0, m1) -> list:
    grid = density.get("grid")
    if not isinstance(grid, list) or len(grid) != spec["points"]:
        return ["density has %s points, want %d"
                % (len(grid) if isinstance(grid, list) else "no",
                   spec["points"])]
    if not all(isinstance(row, list) and len(row) == 2
               and all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in row)
               for row in grid):
        return ["density has a non-finite or malformed value"]
    # the CLI places x_k = lo + (hi - lo) * k / (n - 1), so x_last may
    # miss hi by rounding
    if not (math.isclose(grid[0][0], spec["grid_min"], abs_tol=1e-12)
            and math.isclose(grid[-1][0], spec["grid_max"], abs_tol=1e-12)):
        return ["density grid does not span the requested window"]
    mass = first = 0.0
    for (x0, y0), (x1, y1) in zip(grid, grid[1:]):
        h = x1 - x0
        mass += 0.5 * h * (y0 + y1)
        first += 0.5 * h * (x0 * y0 + x1 * y1)
    for pos, weight in density.get("atoms", []):
        mass += weight
        first += pos * weight
    out = []
    if abs(mass - float(m0)) > DENSITY_MASS_TOL:
        out.append("density mass %.6f != m0 %.6f" % (mass, float(m0)))
    if abs(first - float(m1)) > DENSITY_MEAN_TOL * max(1.0, abs(float(m1))):
        out.append("density first moment %.6f != m1 %.6f"
                   % (first, float(m1)))
    return out


def problems(config: dict, exit_code: int, stdout: bytes) -> list:
    """Everything wrong with one job's exit code and stdout report."""
    out = []
    if exit_code != 0:
        out.append("exit code %d" % exit_code)
    try:
        report = json.loads(stdout)
    except ValueError:
        return out + ["stdout is not a JSON report"]
    if not isinstance(report, dict):
        return out + ["stdout is not a JSON object"]
    if report.get("agreement") is not True:
        out.append("engines disagree")

    checks = report.get("checks", {})
    for check in config.get("checks", []):
        if not isinstance(checks.get(check), dict) \
                or checks[check].get("pass") is not True:
            out.append("check %s did not pass" % check)

    want = reference_moments(config)
    rational = config.get("precision", "rational") == "rational"
    moments = report.get("moments", {})
    for engine in config["engines"]:
        got = moments.get(engine)
        if not isinstance(got, list) or len(got) != len(want):
            out.append("engine %s: moment list missing or wrong length"
                       % engine)
            continue
        bad = [n for n, (g, w) in enumerate(zip(got, want))
               if _moment_mismatch(g, w, rational)]
        if bad:
            out.append("engine %s: moment %d differs from master_cauchy"
                       % (engine, bad[0]))

    spec = config.get("density")
    if spec is not None:
        density = report.get("density")
        if not isinstance(density, dict):
            out.append("density block missing")
        else:
            out.extend(_density_problems(density, spec, want[0], want[1]))
    return out
