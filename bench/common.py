"""Shared pieces of the workloads: per-job checks and per-call probes."""

from __future__ import annotations

import os
import re
from array import array
import subprocess
import sys
from collections import Counter
from time import perf_counter

import oracle

_SAMPLED = re.compile(r"holds \(sampled, samples=(-?\d+), seed=-?\d+\)")


class Workload:
    """Defaults for the workload classes."""

    def trace_extra(self, tracer) -> dict:
        """Per-layer metrics a workload measures beyond spans and probes."""
        return {}

    def close(self) -> None:
        pass


class Check:
    """What the oracle found about one job's output.

    ``verdicts`` counts every outcome the job delivered and the oracle
    checked. ``kinds`` counts law verdicts by kind, from Verdict objects
    or from the verdict text the CLI prints.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.verdicts = 0
        self.kinds = Counter()
        self.problems: list[str] = []
        self.mismatches = 0
        self.recheck_failures = 0
        self.sampled_misses = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def verdict(self, v) -> None:
        """Count a Verdict object by its status and mode."""
        self.verdicts += 1
        if v.status == "holds":
            if v.mode == "sampled":
                self.kinds["sampled"] += 1
                self.kinds["sampled_tuples"] += v.samples
            else:
                self.kinds["exhaustive"] += 1
        elif v.status == "fails":
            self.kinds["failed"] += 1
        else:
            self.kinds["not_applicable"] += 1

    def verdict_text(self, text: str) -> None:
        """Count a verdict printed as Verdict.describe() text."""
        self.verdicts += 1
        if text == "holds (exhaustive)":
            self.kinds["exhaustive"] += 1
        elif m := _SAMPLED.fullmatch(text):
            self.kinds["sampled"] += 1
            self.kinds["sampled_tuples"] += int(m.group(1))
        elif text.startswith("fails: "):
            self.kinds["failed"] += 1
        elif text.startswith("not applicable ("):
            self.kinds["not_applicable"] += 1
        else:
            self.mismatch("verdict text", text, "a Verdict.describe() form")

    def outcome(self) -> None:
        """Count an outcome that is not a law verdict (axioms, a class, a refusal)."""
        self.verdicts += 1

    def expect(self, what: str, actual, expected) -> bool:
        if actual != expected:
            self.mismatch(what, actual, expected)
            return False
        return True

    def mismatch(self, what, actual, expected) -> None:
        self.mismatches += 1
        self.problems.append(f"{what}: got {actual!r}, expected {expected!r}")

    def recheck(self, what: str, ok: bool) -> None:
        if not ok:
            self.recheck_failures += 1
            self.problems.append(f"{what}: witness does not reproduce")

    def error(self, what: str, exc: BaseException) -> None:
        self.problems.append(f"{what}: raised {type(exc).__name__}: {exc}")


def per_call(calls, unit_scale, min_seconds=0.05):
    """Mean time per call over ``calls``, a list of (fn, x) or (fn, x, y),
    repeated for at least ``min_seconds``; the loop's own overhead is
    included. 0.0 when there is nothing to call."""
    if not calls:
        return 0.0
    binary = len(calls[0]) == 3
    done = 0
    start = perf_counter()
    while True:
        if binary:
            for f, x, y in calls:
                f(x, y)
        else:
            for f, x in calls:
                f(x)
        done += len(calls)
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / done * unit_scale


NS, US, MS = 1e9, 1e6, 1e3


def child_env(root):
    """Environment for a child interpreter that imports the package from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_in_child(root, before, code, timeout=120):
    """Seconds a fresh interpreter spends in ``code``, after running ``before``."""
    program = f"{before}\nimport time\n_t0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - _t0)"
    done = subprocess.run([sys.executable, "-c", program], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=timeout, check=True)
    return float(done.stdout)


def wall_of_child(root, code, timeout=120):
    """Wall seconds of a fresh interpreter running ``code``, start to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                   capture_output=True, timeout=timeout, check=True)
    return perf_counter() - start


# A fixed reference computation: the oracle's law scans over forty census
# tables. It shares the program's instruction mix (dict and list lookups,
# small tuples, lambda calls) and no code with it.
_REFERENCE_TABLES = [oracle.census_table("ref", i * 1471, i % 2 == 0) for i in range(40)]


def _reference():
    for table in _REFERENCE_TABLES:
        for law in oracle.LAW_NAMES:
            table.holds(law)


# Stdlib modules much like the ones the package imports; a fresh interpreter
# importing them pays the same kind of start-up cost as a CLI call.
_REFERENCE_IMPORTS = "import argparse, dataclasses, fractions, functools, itertools, json, random, re, typing"


class Calibration:
    """How fast this machine runs Python right now.

    Shared machines speed up and slow down by a fifth or more within
    seconds. A fixed reference computation runs between the jobs, at about
    ``share`` of their time. Each job gets a local factor: the seconds per
    reference chunk in the chunk groups just before and just after it,
    divided by the chunk's nominal seconds. Dividing the job's time by its
    factor gives its time at the nominal speed.

    The in-process reference (``Calibration()``) suits work done in this
    interpreter. ``Calibration.of_processes(root)`` instead times a fresh
    interpreter importing stdlib modules, which tracks process start-up.
    """

    def __init__(self, chunk=_reference, nominal_s=0.003, share=0.1):
        self._chunk = chunk
        self.nominal_s = nominal_s
        self.share = share
        self.work = 0.0
        self.chunks = 0
        self.seconds = 0.0
        self._last_group = None  # seconds per chunk in the latest group
        self.raw = array("d")  # job seconds, in job order
        self.factors = array("d")  # one per job once the group after it has run

    @classmethod
    def of_processes(cls, root, share=0.1):
        return cls(lambda: wall_of_child(root, _REFERENCE_IMPORTS), nominal_s=0.09, share=share)

    def record(self, raw_seconds):
        """Note a job's time; then run chunks until they are ``share`` of all job time."""
        self.raw.append(raw_seconds)
        self.work += raw_seconds
        chunks, seconds = 0, 0.0
        while self.seconds + seconds < self.share * self.work or not self.chunks + chunks:
            start = perf_counter()
            self._chunk()
            seconds += perf_counter() - start
            chunks += 1
        if chunks:
            self._close_group(seconds / chunks)
            self.chunks += chunks
            self.seconds += seconds

    def _close_group(self, per_chunk):
        before = per_chunk if self._last_group is None else self._last_group
        factor = (before + per_chunk) / 2 / self.nominal_s
        self.factors.extend([factor] * (len(self.raw) - len(self.factors)))
        self._last_group = per_chunk

    def times(self):
        """Calibrated job times, in job order."""
        if len(self.factors) < len(self.raw):
            self._close_group(self._last_group)
        return [raw / factor for raw, factor in zip(self.raw, self.factors)]

    @property
    def factor(self):
        """The mean slowness over the whole run."""
        return self.seconds / self.chunks / self.nominal_s
