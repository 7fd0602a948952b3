"""Calls into the package, run directly or recorded as spans.

Every public call the benchmark makes goes through ``call(name, fn, ...)``.
``Direct`` just calls; ``Tracer`` also records a span with its name, start,
end, parent span and job id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Direct:
    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_job(self, job_id):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job id]
        self._stack = []
        self._job = None

    def begin_job(self, job_id):
        self._job = job_id

    def call(self, name, fn, /, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._job]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def self_times(self):
        """{name: (calls, total self seconds)}: duration minus child coverage.

        Children of one span run one after another, so the time they cover
        is the sum of their durations.
        """
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - child[i]
        return {name: tuple(v) for name, v in totals.items()}
