#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the smfconv command-line runner.

    python3 perfbench/run.py --workload engines_r10 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run from a checkout (it uses the checkout's own ``src/``).  Each workload
is a closed loop with one client: seeded job configs are written to files
and each is run as a fresh ``python3 -m smfconv --config FILE`` process,
one at a time, in rounds, until the next round would end past
``--seconds``.  Reported times are scaled to a reference speed (see
REFERENCE below).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each job
once untraced and once as a traced replay (perfbench/traced_job.py) in a
fresh process, and reports per-layer self times and exact counts; the
spans are written to ``.perfbench_out/spans-WORKLOAD-SEED.jsonl``.

Every job's output goes through the verification gate (perfbench/verify.py).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any job failed and 2 on
a usage error or a checkout without ``src/smfconv``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

END_TO_END = (("setup_s", "s"), ("job_wall_s", "s"), ("job_cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# span name -> metric name; each metric is the span's self time per job
LAYER_SPANS = (
    ("cli.import", "cli.import_s"),
    ("cli.parse_config", "cli.parse_config_s"),
    ("cli.run", "cli.run_self_s"),
    ("partitions.enumerate_nc", "partitions.enumerate_nc_s"),
    ("moments.smf_moments", "moments.smf_moments_s"),
    ("fock.build", "fock.build_s"),
    ("fock.moments", "fock.moments_s"),
    ("fock.axiom_check", "fock.axiom_check_s"),
    ("matricial.eq56", "matricial.eq56_s"),
    ("matricial.eq611", "matricial.eq611_s"),
    ("matricial.uniqueness", "matricial.uniqueness_s"),
    ("analytic.master_cauchy", "analytic.master_cauchy_s"),
    ("analytic.stieltjes_density", "analytic.stieltjes_density_s"),
    ("cli.emit", "cli.emit_s"),
)
COUNTS = ("partitions.count", "fock.basis_words", "fock.total_nnz",
          "analytic.grid_points")
PER_LAYER = (tuple((metric, "s") for _, metric in LAYER_SPANS)
             + tuple((name, "count") for name in COUNTS)
             + (("cli.report_bytes", "bytes"), ("moments.rss_mb", "MB"),
                ("trace.overhead_s", "s")))

# Other tenants of a shared host slow every process in a VM alike: on a
# 2-vCPU VM, runs of identical jobs drifted from 6.2 s to 4.1 s per job
# over seven minutes.  So next to each set-up probe the benchmark times a
# fresh interpreter running REFERENCE, fixed stdlib-only start-up work
# that never touches smfconv, and scales every reported time by
# REFERENCE_S / (the run's median reference time): times read as seconds
# on a machine that runs REFERENCE in REFERENCE_S.
REFERENCE = ("import argparse, csv, dataclasses, decimal, email.message, "
             "fractions, http.client, json, logging, pathlib, random, "
             "statistics, typing, unittest, xml.etree.ElementTree\n"
             "rows = [(i, i % 7, str(i)) for i in range(20000)]\n"
             "index = {r: r[1] for r in rows}\n")
REFERENCE_S = 0.10

SETUP_PROBES_PER_JOB = 2
SETUP_PROBE = ("import json, sys\n"
               "from smfconv.cli import parse_config\n"
               "with open(sys.argv[1], encoding='utf-8') as fh:\n"
               "    parse_config(json.load(fh))\n")
# every child is killed once the run is this old, so a hung job still
# leaves time to report within the 180 s a run may take
HARD_LIMIT_S = 150.0


class Child:
    """Outcome of one child process: wall, CPU, peak RSS, exit code."""

    def __init__(self, argv, stdout_path, deadline):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(stdout_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, env=env, cwd=ROOT)
            exited = os.pidfd_open(proc.pid)
            try:
                if not select.select([exited], [], [],
                                     max(0.0, deadline - start))[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(exited)
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def self_times(spans) -> dict:
    """Self time per span name: duration minus the time its children cover."""
    out = {}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def read_trace(path):
    spans, summary = [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "counts" in record:
                summary = record
            else:
                spans.append(record)
    if summary is None:
        raise ValueError("%s has no counts line" % path)
    return spans, summary


def run_workload(workload, seed, seconds, trace, log):
    # imported here so that a checkout without src/ fails before any import
    import verify
    from workloads import ROUND, config_bytes, job_config

    work = OUT / ("work-%d" % os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    py = sys.executable
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    jobs, probes, replays, references = [], [], [], []
    failures = {}   # job index -> problems
    try:
        warm = work / "warm.json"
        warm.write_bytes(config_bytes(job_config(workload, seed, 0)))
        # untimed: compiles bytecode so every timed probe starts alike
        Child([py, "-c", SETUP_PROBE, str(warm)], os.devnull, hard_deadline)
        loop_start = round_start = time.perf_counter()
        rounds = []
        index = 0
        while time.perf_counter() < hard_deadline:
            config = job_config(workload, seed, index)
            cfg_path = work / ("job-%d.json" % index)
            cfg_path.write_bytes(config_bytes(config))
            for _ in range(SETUP_PROBES_PER_JOB):
                references.append(Child([py, "-c", REFERENCE], os.devnull,
                                        hard_deadline).wall)
                if not trace:
                    probes.append(Child([py, "-c", SETUP_PROBE, str(cfg_path)],
                                        os.devnull, hard_deadline).wall)
            out_path = work / ("job-%d.out" % index)
            job = Child([py, "-m", "smfconv", "--config", str(cfg_path)],
                        out_path, hard_deadline)
            stdout = out_path.read_bytes()
            jobs.append((index, config, job, stdout))
            if trace:
                rep_out = work / ("replay-%d.out" % index)
                spans_path = work / ("spans-%d.jsonl" % index)
                rep = Child([py, str(ROOT / "perfbench" / "traced_job.py"),
                             str(cfg_path), str(spans_path)],
                            rep_out, hard_deadline)
                if rep.code != job.code or rep_out.read_bytes() != stdout:
                    failures.setdefault(index, []).append(
                        "traced replay report differs from the CLI report")
                try:
                    replays.append((index, rep, *read_trace(spans_path)))
                except (OSError, ValueError):
                    failures.setdefault(index, []).append(
                        "traced replay left no readable spans")
            index += 1
            if index % ROUND[workload] == 0:
                now = time.perf_counter()
                rounds.append(now - round_start)
                round_start = now
                # start another round only if it should end in time
                if now - loop_start + statistics.median(rounds) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, config, job, stdout in jobs:
        found = verify.problems(config, job.code, stdout)
        if found:
            failures.setdefault(index, []).extend(found)

    walls = [j.wall for _, _, j, _ in jobs]
    reference = statistics.median(references)
    scale = REFERENCE_S / reference
    log("%s reference: %d samples, median %.4f s, time scale %.4f"
        % (workload, len(references), reference, scale))
    if trace:
        metrics = _layer_metrics(workload, seed, jobs, replays, walls,
                                 failures)
        for name, unit in PER_LAYER:
            if unit == "s":
                metrics[name] *= scale
    else:
        cpus = [j.cpu for _, _, j, _ in jobs]
        for name, samples in (("setup_s", probes), ("job_wall_s", walls),
                              ("job_cpu_s", cpus)):
            lo, hi = _quartiles(samples)
            log("%s %s unscaled: %d samples, mean %.4f s, median %.4f s, "
                "quartiles %.4f..%.4f s"
                % (workload, name, len(samples), statistics.fmean(samples),
                   statistics.median(samples), lo, hi))
        # Job costs differ by shape and array, and a run holds only a few
        # jobs, so the median jumps between jobs; the mean (the inverse of
        # the loop's throughput) is steadier from run to run.
        metrics = {
            "setup_s": statistics.median(probes) * scale,
            "job_wall_s": statistics.fmean(walls) * scale,
            "job_cpu_s": statistics.fmean(cpus) * scale,
            "peak_rss_mb": max(j.rss_mb for _, _, j, _ in jobs),
        }
        for name, unit in END_TO_END:
            log("%s %s = %.4f %s" % (workload, name, metrics[name], unit))
    for index, found in sorted(failures.items()):
        for problem in found:
            log("FAIL %s job %d: %s" % (workload, index, problem))
    log("%s fail_rate = %d/%d jobs" % (workload, len(failures), len(jobs)))
    units = dict(PER_LAYER if trace else END_TO_END)
    return {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _layer_metrics(workload, seed, jobs, replays, walls, failures):
    OUT.mkdir(exist_ok=True)
    per_job = []
    counts_by_job = {}
    with open(OUT / ("spans-%s-%d.jsonl" % (workload, seed)), "w",
              encoding="utf-8") as fh:
        for index, _, spans, summary in replays:
            for s in spans:
                fh.write(json.dumps(dict(s, job=index), sort_keys=True) + "\n")
            per_job.append(self_times(spans))
            counts_by_job[str(index)] = summary["counts"]
    _check_counts_repeat(workload, seed, counts_by_job, failures)

    def median(values, pick=statistics.median):
        values = list(values)
        return pick(values) if values else 0   # every replay failed

    metrics = {metric: median(t.get(span, 0.0) for t in per_job)
               for span, metric in LAYER_SPANS}
    for name in COUNTS:
        metrics[name] = median((c.get(name, 0)
                                for c in counts_by_job.values()),
                               statistics.median_low)
    metrics["cli.report_bytes"] = statistics.median_low(
        len(stdout) for _, _, _, stdout in jobs)
    metrics["moments.rss_mb"] = median(
        summary["rss_mb"] for _, _, _, summary in replays)
    metrics["trace.overhead_s"] = (
        median(rep.wall for _, rep, _, _ in replays)
        - statistics.median(walls))
    return metrics


def _check_counts_repeat(workload, seed, counts_by_job, failures):
    """Exact counts must repeat between traced runs of the same seed."""
    path = OUT / ("counts-%s-%d.json" % (workload, seed))
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        for index, counts in counts_by_job.items():
            if index in before and before[index] != counts:
                failures.setdefault(int(index), []).append(
                    "counts %s differ from an earlier traced run %s"
                    % (counts, before[index]))
        before.update(counts_by_job)
        counts_by_job = before
    path.write_text(json.dumps(counts_by_job, sort_keys=True),
                    encoding="utf-8")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so Child kills and reaps its job
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "smfconv" / "cli.py").is_file():
        print("perfbench: no smfconv sources at %s; run from a checkout"
              % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def log(line):
        print(line, flush=True)

    results = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace), log)
        results.append(result)
        if not args.workload:
            print(json.dumps(dict(result, workload=workload)), flush=True)
    if args.workload:
        print(json.dumps(results[0]), flush=True)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
