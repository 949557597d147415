"""Command-line job runner.

A job is a single JSON document (stdin or --config PATH) selecting an
array shape, per-cell laws, a target moment order, the engines to run and
the verification suites to apply.  Output is canonical JSON (or CSV) on
stdout.  Exit codes: 0 all engines agree and all checks pass, 1 engine
disagreement or failed check, 2 bad config / usage.

At module level this imports only what ``parse_config`` needs; ``run``
imports each engine and check module where it dispatches to it, so a job
loads only the modules it runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .arrays import ALL_CELLS, DistributionArray, NamedLaw, SHAPES
from .series import FLOAT, RATIONAL, Record, TruncatedSeries

MAX_ORDER = 20
MAX_DENSITY_POINTS = 100_000
ENGINES = ("partition", "fock", "analytic")
CHECKS = ("axioms", "eq56", "eq611", "uniqueness")
FLOAT_TOL = 1e-9    # read only by perfbench's replay of a job


class ConfigError(Exception):
    pass


def _shown(value, form=repr) -> str:
    """form(value) cut to 80 characters, as errors echo config values."""
    text = form(value)
    return text if len(text) <= 80 else text[:80] + "..."


class JobConfig(Record):
    """A parsed job.  Its laws are a dict, so it has no hash."""

    _fields = ("shape", "laws", "order", "engines", "precision", "checks",
               "density")

    def __init__(self, shape: str, laws: Dict[Tuple[int, int], NamedLaw],
                 order: int, engines: Tuple[str, ...], precision: str,
                 checks: Tuple[str, ...], density: Optional[dict] = None):
        for name, value in zip(self._fields, (shape, laws, order, engines,
                                              precision, checks, density)):
            object.__setattr__(self, name, value)


def _parse_cell_key(key: str) -> Tuple[int, int]:
    try:
        i, j = key.split(",")
        cell = (int(i), int(j))
    except ValueError:
        raise ConfigError("bad cell key %s (want \"i,j\")" % _shown(key))
    if cell not in ALL_CELLS:
        raise ConfigError("cell %s outside the 2x2 index set" % _shown(key))
    return cell


def _json_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _known_fields(fields, known, what: str) -> None:
    unknown = set(fields) - set(known)
    if unknown:
        raise ConfigError("unknown %s fields %s"
                          % (what, _shown(sorted(unknown))))


def _law_value(value):
    """A law parameter or cumulant: a JSON number (not a bool) or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError("%r is not a number or a string" % (value,))
    return value


def _law_values(values) -> list:
    if not isinstance(values, list):
        raise TypeError("cumulants must be a list")
    return [_law_value(v) for v in values]


# law kind, which names its NamedLaw constructor -> its one parameter
LAW_PARAMETERS = {"semicircle": "a", "point_mass": "b",
                  "custom": "cumulants"}


def _parse_law(spec) -> NamedLaw:
    if isinstance(spec, list):
        return NamedLaw.custom(_law_values(spec))
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("law must be a cumulant list or a kind object")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in LAW_PARAMETERS:
        raise ConfigError("unknown law kind %s" % _shown(kind))
    param = LAW_PARAMETERS[kind]
    if param not in spec:
        raise ConfigError("law %r missing parameter %r" % (kind, param))
    _known_fields(spec, ("kind", param), "law")
    read = _law_values if kind == "custom" else _law_value
    return getattr(NamedLaw, kind)(read(spec[param]))


def _finite_number(value) -> bool:
    """A JSON number (not a bool) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


def _require_finite(values, what: str) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ConfigError("%s not finite in float precision" % what)


def _string_list(data: dict, key: str, default: list) -> Tuple[str, ...]:
    value = data.get(key, default)
    if not (isinstance(value, list)
            and all(isinstance(v, str) for v in value)):
        raise ConfigError("%s must be a list of strings" % key)
    return tuple(value)


def parse_config(data: dict) -> JobConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.get("version", 1)
    if not (_json_int(version) and version == 1):
        raise ConfigError("unsupported config version %s" % _shown(version))
    _known_fields(data, ("version", "shape", "cells", "order", "engines",
                         "precision", "checks", "density"), "config")

    shape = data.get("shape", "custom")
    if not isinstance(shape, str):
        raise ConfigError("shape must be a string")
    if shape != "custom" and shape not in SHAPES:
        raise ConfigError("unknown shape %s" % _shown(shape))
    cells = data.get("cells")
    if not isinstance(cells, dict) or not cells:
        raise ConfigError("config needs a non-empty cells object")

    order = data.get("order", 6)
    if not (_json_int(order) and 1 <= order <= MAX_ORDER):
        raise ConfigError("order must be an integer in 1..%d" % MAX_ORDER)

    engines = _string_list(data, "engines", list(ENGINES))
    if not engines or any(e not in ENGINES for e in engines):
        raise ConfigError("engines must be a non-empty subset of %s"
                          % (ENGINES,))

    precision = data.get("precision", RATIONAL)
    if precision not in (RATIONAL, FLOAT):
        raise ConfigError("precision must be rational or float")

    laws = {}
    for key, spec in cells.items():
        cell = _parse_cell_key(key)
        if cell in laws:
            raise ConfigError("cell key %s repeats cell %d,%d"
                              % (_shown(key), *cell))
        try:
            laws[cell] = _parse_law(spec)
            cumulants = laws[cell].cumulants(order, precision)
        except (TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            raise ConfigError("cell %s: bad law parameter (%s)"
                              % (_shown(key, str), _shown(exc, str)))
        if precision == FLOAT:
            _require_finite(cumulants, "cell %s: cumulants" % _shown(key, str))
    if shape != "custom" and set(laws) != set(SHAPES[shape]):
        raise ConfigError("cells %s do not match shape %r"
                          % (_shown(sorted(cells)), shape))

    checks = _string_list(data, "checks", [])
    if any(c not in CHECKS for c in checks):
        raise ConfigError("checks must be a subset of %s" % (CHECKS,))
    for key, names in (("engines", engines), ("checks", checks)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError("%s list %s twice" % (key, name))
    if "axioms" in checks and order < 2:
        # the conjugate-state conditions act on one-letter words
        raise ConfigError("check axioms needs order >= 2")
    if "uniqueness" in checks and {i for i, _ in laws} != {1, 2}:
        # each row's compressed state yields one component of R
        raise ConfigError("check uniqueness needs a cell in each row")

    density = data.get("density")
    if density is not None:
        need = {"grid_min", "grid_max", "points"}
        if not isinstance(density, dict) or not need <= set(density):
            raise ConfigError("density block needs grid_min, grid_max, points")
        _known_fields(density, need | {"eps"}, "density")
        if precision != FLOAT:
            raise ConfigError("density extraction requires float precision")
        for key in ("grid_min", "grid_max"):
            if not _finite_number(density[key]):
                raise ConfigError("density %s must be a finite number" % key)
        if not math.isfinite(float(density["grid_max"])
                             - float(density["grid_min"])):
            raise ConfigError("density window is wider than float precision")
        eps = density.get("eps", 1e-3)
        if not (_finite_number(eps) and eps > 0):
            raise ConfigError("density eps must be positive and finite")
        points = density["points"]
        if not (_json_int(points) and 2 <= points <= MAX_DENSITY_POINTS):
            raise ConfigError("density points must be an integer in 2..%d"
                              % MAX_DENSITY_POINTS)

    return JobConfig(shape=shape, laws=laws, order=order, engines=engines,
                     precision=precision, checks=checks, density=density)


def _render(value):
    if isinstance(value, Fraction):
        try:
            return "%d/%d" % (value.numerator, value.denominator)
        except ValueError:      # past the interpreter's int-to-str limit
            raise ConfigError("a report value needs more than %d digits"
                              % sys.get_int_max_str_digits())
    return float(value)


def _render_series(series: TruncatedSeries) -> list:
    return [_render(c) for c in series.coeffs]


def _series_agree(a: TruncatedSeries, b: TruncatedSeries, mode: str) -> bool:
    """Equality of the reported coefficients in either precision: each is
    exact, or the exact value rounded once, so *mode* is not consulted."""
    return a == b


def run(config: JobConfig) -> Tuple[dict, int]:
    """Execute one job; returns (report, exit_code)."""
    mode = config.precision
    array = DistributionArray.from_laws(config.laws, config.order, mode)
    depth = config.order
    model = None

    report: dict = {
        "version": 1,
        "shape": config.shape,
        "precision": mode,
        "order": config.order,
        "engines": list(config.engines),
    }
    failed = False

    moments: Dict[str, TruncatedSeries] = {}
    for engine in config.engines:
        if engine == "partition":
            from .moments import smf_moments
            moments[engine] = smf_moments(array, config.order)
        elif engine == "fock":
            from .fock import FockModel
            model = model or FockModel(array, depth)
            moments[engine] = model.moments(config.order)
        elif engine == "analytic":
            from .analytic import master_cauchy
            moments[engine] = master_cauchy(array, config.order)
        if mode == FLOAT:
            _require_finite(moments[engine].coeffs, "%s moments" % engine)
    report["moments"] = {e: _render_series(m) for e, m in moments.items()}

    names = list(moments)
    agree = all(_series_agree(moments[names[0]], moments[e], mode)
                for e in names[1:])
    report["agreement"] = agree
    failed = failed or not agree

    if config.checks:
        from .fock import FockModel
        model = model or FockModel(array, depth)
        checks_out = {}
        if set(config.checks) - {"axioms"}:
            from . import matricial
            verdicts = matricial.check_residuals(
                model, matricial.assemble_matricial_r(array, config.order - 1),
                config.order, config.checks)
        for check in config.checks:
            if check == "axioms":
                violations = model.axiom_check(
                    trials=50, max_length=5, seed=1)
                checks_out[check] = {"pass": not violations,
                                     "violations": violations}
            else:
                passed, res = verdicts[check]
                checks_out[check] = {"pass": passed}
                if check == "eq56":
                    checks_out[check]["residuals"] = [_render(v) for v in res]
                elif check == "eq611":
                    checks_out[check]["residuals"] = {
                        "%d,%d" % cell: [_render(v) for v in row]
                        for cell, row in res.items()}
            failed = failed or not checks_out[check]["pass"]
        report["checks"] = checks_out

    if config.density is not None:
        d = config.density
        pts = d["points"]
        lo, hi = float(d["grid_min"]), float(d["grid_max"])
        eps = float(d.get("eps", 1e-3))
        grid = [lo + (hi - lo) * k / (pts - 1) for k in range(pts)]
        from .analytic import stieltjes_density
        unconverged = []
        try:
            rows, atoms = stieltjes_density(array, grid, eps, unconverged)
        except OverflowError:
            raise ConfigError("density grid overflows float precision")
        except ZeroDivisionError:
            raise ConfigError("density grid meets a pole of the transform")
        _require_finite([y for _, y in rows], "density")
        if unconverged:     # out of band: the report's shape is unchanged
            print("density: %d of %d grid points did not converge"
                  % (len(unconverged), pts), file=sys.stderr)
        report["density"] = {
            "eps": eps,
            "grid": [[x, y] for x, y in rows],
            "atoms": [[p, w] for p, w in atoms],
        }

    return report, (1 if failed else 0)


def _emit(report: dict, out_format: str) -> str:
    if out_format == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":"))
    lines = []
    if "density" in report:
        lines.append("x,density")
        for x, y in report["density"]["grid"]:
            lines.append("%r,%r" % (x, y))
        lines.append("atom_position,atom_weight")
        for p, w in report["density"]["atoms"]:
            lines.append("%r,%r" % (p, w))
    else:
        engines = [e for e in ENGINES if e in report["moments"]]
        lines.append("n," + ",".join(engines))
        for n in range(report["order"] + 1):
            row = [str(n)]
            for e in engines:
                row.append(str(report["moments"][e][n]))
            lines.append(",".join(row))
    return "\n".join(lines)


def _load_json(fh):
    try:
        return json.load(fh)
    except RecursionError:      # the decoder recurses once per nesting level
        raise ConfigError("config nests too deeply to decode")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="smfconv",
        description="Compute and cross-verify moments of strongly "
                    "matricially free convolutions of 2x2 arrays.")
    parser.add_argument("--config", help="path to the job JSON "
                                         "(default: read stdin)")
    parser.add_argument("--order", type=int, help="override moment order")
    parser.add_argument("--engines", help="comma list: partition,fock,analytic")
    parser.add_argument("--precision", choices=(RATIONAL, FLOAT))
    parser.add_argument("--checks", help="comma list: axioms,eq56,eq611,"
                                         "uniqueness")
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    parser.add_argument("--density-eps", type=float,
                        help="override density smoothing epsilon")
    args = parser.parse_args(argv)

    # one error boundary for reading, overriding, parsing and running
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = _load_json(fh)
        else:
            if sys.stdin.isatty():
                raise ConfigError("no --config and stdin is a terminal")
            data = _load_json(sys.stdin)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if args.order is not None:
            data["order"] = args.order
        if args.engines:
            data["engines"] = args.engines.split(",")
        if args.precision:
            data["precision"] = args.precision
        if args.checks is not None:
            data["checks"] = [c for c in args.checks.split(",") if c]
        if args.density_eps is not None:
            density = data.get("density")
            if not density:
                raise ConfigError("--density-eps without a density block")
            if isinstance(density, dict):    # parse_config rejects the rest
                density["eps"] = args.density_eps
        config = parse_config(data)
        report, code = run(config)
    except (ConfigError, OSError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        print(_emit(report, args.out))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; point stdout at devnull so the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if code:
        print("verification failed", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
