"""Benchmark for modernsets: oracle-checked verdict throughput and latency.

    python3 bench/run.py --workload census3|families|lattices|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread, a closed loop: each job starts when the
previous one has been checked. Jobs come in blocks of the same shape; the
run does the workload's fixed prefix of blocks, then more blocks while the
next one is due to end within ``--seconds``. Counts, the
exhaustive share and the verdict digest are taken over that prefix, so
they repeat exactly for a seed.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run. Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from common import Calibration, timed_in_child
from spans import Direct, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
WORKLOADS = ("census3", "families", "lattices", "cli")

# Every per-layer metric with its unit; a workload that does not exercise
# a layer reports 0 for it.
PER_LAYER = {
    "algebra.table_build_ms": "ms", "algebra.axioms_ms": "ms",
    "algebra.token_op_ns": "ns", "algebra.fraction_op_ns": "ns",
    "matrix.op_us": "us", "matrix.is_member_us": "us",
    "lattice.build_ms": "ms", "lattice.cert_ms": "ms", "lattice.meet_ns": "ns",
    "sets.union_us": "us", "sets.intersection_us": "us", "sets.complement_us": "us",
    "sets.modern_set_us": "us", "sets.crisp_restriction_ms": "ms",
    "laws.check_law_ms": "ms", "laws.lift_ms": "ms", "laws.classify_ms": "ms", "laws.gfcheck_ms": "ms",
    "laws.verdicts": "count", "laws.exhaustive": "count", "laws.sampled": "count",
    "laws.failed": "count", "laws.not_applicable": "count", "laws.sampled_tuples": "count",
    "laws.witness_recheck_failures": "count", "oracle.mismatches": "count",
    "oracle.sampled_misses": "count",
    "fileformat.load_ms": "ms", "expressions.parse_us": "us", "expressions.eval_us": "us",
    "reporting.describe_us": "us",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.workspace_ms": "ms",
    **{f"cli.process_ms.{sub}": "ms"
       for sub in ("laws", "validate", "lift", "gfcheck", "eval", "witness", "oracle")},
    "trace.overhead_share": "ratio",
}

# Busy time: metric -> span names whose self time it sums, over the prefix.
BUSY = {
    "algebra.table_build_ms": ("algebra.FiniteAlgebraTable", "algebra.as_handle"),
    "algebra.axioms_ms": ("algebra.check_wba_axioms",),
    "lattice.build_ms": ("lattice.lattice_from_hasse",),
    "lattice.cert_ms": ("lattice.check_lattice_laws",),
    "sets.crisp_restriction_ms": ("sets.verify_crisp_restriction",),
    "laws.check_law_ms": ("laws.check_all_laws",),
    "laws.lift_ms": ("laws.lift_check",),
    "laws.classify_ms": ("laws.classify_family",),
    "laws.gfcheck_ms": ("laws.check_gf_ring_conditions",),
}
KINDS = ("exhaustive", "sampled", "failed", "not_applicable", "sampled_tuples")


def measure_setup(code):
    """Median seconds, over fresh interpreters, from the first import of the
    package to the end of ``code``; interpreter start is not included.
    Returned at the nominal speed of the calibration, and raw."""
    timed_in_child(ROOT, "", code)  # warm the bytecode cache
    calibration, times = Calibration.of_processes(ROOT, share=1.0), []
    for _ in range(SETUP_RUNS):
        times.append(timed_in_child(ROOT, "", code))
        calibration.record(times[-1])
    return statistics.median(calibration.times()), statistics.median(times)


def calibration_for(workload):
    """CLI jobs are mostly process start-up; the others run in this process."""
    return Calibration.of_processes(ROOT, share=0.3) if workload.name == "cli" else Calibration()


def tail_percentile(n):
    """Highest whole percentile that leaves at least ten of ``n`` jobs beyond it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p):
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


class Totals:
    def __init__(self):
        self.jobs = 0
        self.failed = 0
        self.seconds = 0.0
        self.verdicts = 0
        self.kinds = dict.fromkeys(KINDS, 0)
        self.mismatches = 0
        self.recheck_failures = 0
        self.sampled_misses = 0
        self.digest = hashlib.sha256()
        self.problems = []

    def add(self, check, seconds):
        self.jobs += 1
        self.seconds += seconds
        self.failed += check.failed
        self.verdicts += check.verdicts
        for k in self.kinds:
            self.kinds[k] += check.kinds[k]
        self.mismatches += check.mismatches
        self.recheck_failures += check.recheck_failures
        self.sampled_misses += check.sampled_misses
        for line in check.lines:
            self.digest.update(line.encode() + b"\n")
        if check.problems and len(self.problems) < 10:
            self.problems.append(check.problems[0])


def run_job(workload, api, job):
    start = perf_counter()
    try:
        result = workload.run(job, api)
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        result = exc
    seconds = perf_counter() - start
    return workload.check(job, result), seconds


def run_jobs(workload, api, jobs, totals, calibration):
    for job_id, job in enumerate(jobs):
        api.begin_job(job_id)
        check, seconds = run_job(workload, api, job)
        totals.add(check, seconds)
        calibration.record(seconds)


def untraced(workload, seconds, api, calibration):
    """The prefix blocks, then more while the next one is due to end within ``seconds``."""
    prefix, everything = Totals(), Totals()
    start = perf_counter()
    for index, block in enumerate(workload.blocks()):
        in_prefix = index < workload.prefix_blocks
        for job in block:
            check, elapsed = run_job(workload, api, job)
            everything.add(check, elapsed)
            if in_prefix:
                prefix.add(check, elapsed)
            calibration.record(elapsed)
        done, elapsed = index + 1, perf_counter() - start
        if done >= workload.prefix_blocks and elapsed * (done + 1) / done > seconds:
            return prefix, everything


def end_to_end(workload, seconds):
    """End-to-end metrics; each job's time is divided by its calibration factor."""
    setup_s, setup_raw = measure_setup(workload.setup_code)
    calibration = calibration_for(workload)
    prefix, everything = untraced(workload, seconds, Direct(), calibration)
    times = sorted(calibration.times())
    raw = sorted(calibration.raw)
    p = tail_percentile(prefix.jobs)
    holds = prefix.kinds["exhaustive"] + prefix.kinds["sampled"]
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (everything.verdicts / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (nearest_rank(times, p) * 1e3, "ms"),
        "exhaustive_share": (prefix.kinds["exhaustive"] / holds if holds else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters; raw {setup_raw:.6g} s",
        "verdicts_per_s": f"{everything.verdicts} verdicts in {everything.seconds:.3f} s of jobs; "
                          f"raw {everything.verdicts / everything.seconds:.6g}; "
                          f"mean calibration factor {calibration.factor:.4f} from {calibration.chunks} chunks",
        "job_p50_ms": f"n={len(times)}; raw {statistics.median(raw) * 1e3:.6g} ms",
        "job_tail_ms": f"p{p}, n={len(times)}; raw {nearest_rank(raw, p) * 1e3:.6g} ms",
        "exhaustive_share": f"{prefix.kinds['exhaustive']} of {holds} holds verdicts, prefix of {prefix.jobs} jobs",
        "peak_rss_mb": "children" if workload.name == "cli" else "this process",
    }
    return everything, prefix, metrics, notes


def traced(workload, seconds):
    """Pairs of untraced and traced passes over the prefix jobs."""
    blocks = workload.blocks()
    jobs = [job for _, block in zip(range(workload.prefix_blocks), blocks) for job in block]
    everything = Totals()
    plain_s = traced_s = 0.0
    first = None
    start = perf_counter()
    pairs = 0
    while not pairs or (perf_counter() - start) * (pairs + 1) / pairs <= seconds:
        pairs += 1
        plain, tracer, counted = Totals(), Tracer(), Totals()
        plain_cal, traced_cal = calibration_for(workload), calibration_for(workload)
        run_jobs(workload, Direct(), jobs, plain, plain_cal)
        run_jobs(workload, tracer, jobs, counted, traced_cal)
        plain_s += sum(plain_cal.times())
        traced_s += sum(traced_cal.times())
        for t in (plain, counted):
            everything.jobs += t.jobs
            everything.failed += t.failed
            everything.problems += t.problems[: 10 - len(everything.problems)]
        if first is None:
            first = (counted, tracer)
    counted, tracer = first
    values = dict.fromkeys(PER_LAYER, 0.0)
    self_times = tracer.self_times()
    for name, spans in BUSY.items():
        values[name] = sum(self_times.get(s, (0, 0.0))[1] for s in spans) * 1e3
    calls, total = self_times.get("reporting.describe", (0, 0.0))
    if calls:
        values["reporting.describe_us"] = total / calls * 1e6
    kinds = counted.kinds
    values["laws.verdicts"] = kinds["exhaustive"] + kinds["sampled"] + kinds["failed"] + kinds["not_applicable"]
    for k in KINDS:
        values[f"laws.{k}"] = kinds[k]
    values["laws.witness_recheck_failures"] = counted.recheck_failures
    values["oracle.mismatches"] = counted.mismatches
    values["oracle.sampled_misses"] = counted.sampled_misses
    values.update(workload.probes(jobs))
    values.update(workload.trace_extra(tracer))
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    return everything, counted, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modernsets" / "__init__.py").is_file():
        print(f"error: no modernsets package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(args.workload, ROOT, args.seed)
    try:
        if args.trace:
            everything, counted, metrics = traced(workload, args.seconds)
            notes = {}
        else:
            everything, counted, metrics, notes = end_to_end(workload, args.seconds)
    finally:
        workload.close()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    share = everything.failed / everything.jobs
    print(f"failed_share {share:.6g} ratio  ({everything.failed} of {everything.jobs} jobs)")
    print(f"digest sha256:{counted.digest.hexdigest()}  (verdict lines of the first {counted.jobs} jobs)")
    for problem in everything.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": everything.failed == 0,
        "attempted": everything.jobs,
        "failed": everything.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
