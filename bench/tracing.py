"""Spans around the benchmark's calls into the library's public functions.

A span records its name, start, end, parent span and job. Spans stay in
memory and are written out once, when the run ends.
"""

import json
import time


class NullTracer:
    """Untraced runs: calls go straight through and side calls are
    skipped, so the timed work is exactly the job's own calls."""

    traced = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def side(self, name, fn, *args, **kwargs):
        return None


class Tracer:
    """Traced runs. `side` times a call that a job's own calls also make
    internally, where it cannot be timed from outside (a Groebner basis
    inside `analyze`, the Neumann solve inside `primitive_form`). Its time
    is left out of the job's traced wall time."""

    traced = True

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    def call(self, name, fn, *args, **kwargs):
        return self._span(name, False, fn, args, kwargs)

    def side(self, name, fn, *args, **kwargs):
        return self._span(name, True, fn, args, kwargs)

    def _span(self, name, side, fn, args, kwargs):
        span = {"id": len(self.spans), "name": name, "job": self.job,
                "parent": self._stack[-1] if self._stack else None,
                "side": side, "start": None, "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, job_ids):
        """{span name: summed self time} over the given jobs. Self time
        is a span's duration minus the time its child spans cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + \
                    s["end"] - s["start"]
        out = {}
        for s in self.spans:
            if s["job"] in job_ids:
                own = s["end"] - s["start"] - child.get(s["id"], 0.0)
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def job_walls(self):
        """{job: traced wall time}, a job's root span minus its side
        spans."""
        out = {}
        for s in self.spans:
            dur = s["end"] - s["start"]
            if s["parent"] is None:
                out[s["job"]] = out.get(s["job"], 0.0) + dur
            elif s["side"]:
                out[s["job"]] = out.get(s["job"], 0.0) - dur
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"clock": "time.perf_counter seconds",
                       "spans": self.spans}, fh)
