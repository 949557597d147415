"""Replay one smfconv job with a span around every layer call.

Usage: python3 perfbench/traced_job.py CONFIG SPANS_OUT   (src/ on PYTHONPATH)

The replay calls each module's public functions in the order ``cli.run``
uses them and builds the same report, so its stdout must equal the CLI's
byte for byte.  Spans (name, start, end, parent) and exact size counts are
kept in memory and written to SPANS_OUT as JSON lines when the job ends.
Two differences from ``cli.run`` are deliberate: the partition engine's
enumeration of NC partitions is done first, cold, under its own span, so
``moments.smf_moments`` is timed with the cache warm; and the Fock
operator ``total()`` is built right after ``FockModel`` under
``fock.build``.  Both only move work between spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.rss_mb = 0.0
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter()}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def replay(config_path: str, tr: Tracer):
    """Run the job under spans; returns (report text, failed)."""
    with tr.span("job"):
        with tr.span("cli.import"):
            from fractions import Fraction
            from smfconv import cli
            from smfconv.analytic import master_cauchy, stieltjes_density
            from smfconv.arrays import DistributionArray
            from smfconv.fock import FockModel
            from smfconv.matricial import assemble_matricial_r, \
                compressed_residuals, invert_C, linearization_residuals, \
                reconstruct_unique
            from smfconv.moments import smf_moments
            from smfconv.partitions import enumerate_nc
            from smfconv.series import RATIONAL, scalars_close

        with tr.span("cli.parse_config"):
            with open(config_path, "r", encoding="utf-8") as fh:
                config = cli.parse_config(json.load(fh))

        with tr.span("cli.run"):
            mode = config.precision
            array = DistributionArray.from_laws(config.laws, config.order,
                                                mode)
            depth = config.order
            model = None

            def fock_model():
                with tr.span("fock.build"):
                    built = FockModel(array, depth)
                    total = built.total()
                tr.counts["fock.basis_words"] = len(built.words)
                tr.counts["fock.total_nnz"] = sum(
                    len(col) for col in total.columns.values())
                return built

            report = {"version": 1, "shape": config.shape, "precision": mode,
                      "order": config.order,
                      "engines": list(config.engines)}
            moments = {}
            for engine in config.engines:
                if engine == "partition":
                    with tr.span("partitions.enumerate_nc"):
                        tr.counts["partitions.count"] = sum(
                            len(enumerate_nc(n))
                            for n in range(1, config.order + 1))
                    with tr.span("moments.smf_moments"):
                        moments[engine] = smf_moments(array, config.order)
                    tr.rss_mb = _rss_mb()
                elif engine == "fock":
                    model = model or fock_model()
                    with tr.span("fock.moments"):
                        moments[engine] = model.moments(config.order)
                elif engine == "analytic":
                    with tr.span("analytic.master_cauchy"):
                        moments[engine] = master_cauchy(array, config.order)
            report["moments"] = {e: cli._render_series(m)
                                 for e, m in moments.items()}
            names = list(moments)
            agree = all(cli._series_agree(moments[names[0]], moments[e], mode)
                        for e in names[1:])
            report["agreement"] = agree
            failed = not agree

            if config.checks:
                checks_out = {}
                zero = Fraction(0) if mode == RATIONAL else 0.0
                one = Fraction(1) if mode == RATIONAL else 1.0

                def residuals_ok(res):
                    return (scalars_close(res[0], one, cli.FLOAT_TOL)
                            and all(scalars_close(v, zero, cli.FLOAT_TOL)
                                    for v in res[1:]))

                for check in config.checks:
                    model = model or fock_model()
                    if check == "axioms":
                        with tr.span("fock.axiom_check"):
                            violations = model.axiom_check(
                                trials=50, max_length=min(5, depth), seed=1)
                        checks_out[check] = {"pass": not violations,
                                             "violations": violations}
                    elif check in ("eq56", "eq611"):
                        with tr.span("matricial." + check):
                            r_unit = assemble_matricial_r(array,
                                                          config.order - 1)
                            b_unit = invert_C(r_unit)
                            if check == "eq56":
                                res = linearization_residuals(
                                    model, b_unit, config.order)
                            else:
                                table = compressed_residuals(
                                    model, b_unit, config.order)
                        if check == "eq56":
                            checks_out[check] = {
                                "pass": residuals_ok(res),
                                "residuals": [cli._render(v) for v in res]}
                        else:
                            checks_out[check] = {
                                "pass": all(residuals_ok(res)
                                            for res in table.values()),
                                "residuals": {
                                    "%d,%d" % cell: [cli._render(v)
                                                     for v in res]
                                    for cell, res in table.items()}}
                    elif check == "uniqueness":
                        with tr.span("matricial.uniqueness"):
                            target = config.order - 1
                            rebuilt = reconstruct_unique(model, target)
                            assembled = assemble_matricial_r(array, target)
                        ok = (rebuilt == assembled if mode == RATIONAL
                              else rebuilt.agrees(assembled, cli.FLOAT_TOL))
                        checks_out[check] = {"pass": ok}
                    failed = failed or not checks_out[check]["pass"]
                report["checks"] = checks_out

            if config.density is not None:
                d = config.density
                pts = int(d["points"])
                lo, hi = float(d["grid_min"]), float(d["grid_max"])
                eps = float(d.get("eps", 1e-3))
                grid = [lo + (hi - lo) * k / (pts - 1) for k in range(pts)]
                tr.counts["analytic.grid_points"] = len(grid)
                with tr.span("analytic.stieltjes_density"):
                    rows, atoms = stieltjes_density(array, grid, eps)
                report["density"] = {
                    "eps": eps,
                    "grid": [[x, y] for x, y in rows],
                    "atoms": [[p, w] for p, w in atoms],
                }

        with tr.span("cli.emit"):
            text = cli._emit(report, "json")
    return text, failed


def main(argv) -> int:
    config_path, spans_out = argv
    tr = Tracer()
    text, failed = replay(config_path, tr)
    sys.stdout.write(text + "\n")
    with open(spans_out, "w", encoding="utf-8") as fh:
        for record in tr.spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.write(json.dumps({"counts": tr.counts, "rss_mb": tr.rss_mb},
                            sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
