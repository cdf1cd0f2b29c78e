"""Spans and work counts around the calls into each schemarith layer.

The tracer replaces, for the duration of a traced pass, the module
attributes through which the CLI and the pipeline call each layer (for
example `schemarith.pipeline.propagate`).  Each call leaves one span
(name, start, end, parent span, problem id) in memory; the work counts
are read from the call's arguments and return value.  A new problem
starts at each `run_problem` call, so every span below it and the
reports built after it carry its id.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

PROBLEM_SPAN = "pipeline.run_problem"

# Span name -> metric name of its self time per problem.  The one
# exception is `pipeline.run_problem_ms`, the inclusive time of the
# entry point: it is the base the other layers' shares are taken of.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_ms",
    "parser.tokenize": "parser.tokenize_ms",
    "parser.parse_problem": "parser.parse_ms",
    "discourse.build_store": "discourse.build_store_ms",
    "discourse.build_timelines": "discourse.build_timelines_ms",
    "discourse.render_propositions": "discourse.render_ms",
    "schema_engine.initial_lsi": "schema_engine.initial_lsi_ms",
    "schema_engine.build_lsi": "schema_engine.build_lsi_ms",
    "solver.propagate": "solver.propagate_ms",
    "pipeline.result_to_dict": "pipeline.report_ms",
    "pipeline.render_text_report": "pipeline.text_report_ms",
}

# Slope metric -> span names whose self time it fits against event count.
SLOPES = {
    "parser.parse_slope": ("parser.tokenize", "parser.parse_problem"),
    "discourse.render_slope": ("discourse.render_propositions",),
    "solver.propagate_slope": ("solver.propagate",),
}

# Per-problem count recorded by build_store and used only as the slopes' x.
EVENTS = "events"

COUNT_METRICS = (
    "parser.clauses", "parser.propositions", "discourse.elementary_events",
    "discourse.timelines", "schema_engine.lsi_size", "schema_engine.skipped",
    "solver.equations", "solver.trace_steps",
)


def _store_counts(args, store):
    return {"discourse.elementary_events": len(store.events),
            EVENTS: len(store.raw_events)}


def _lsi_counts(args, out):
    lsi, skipped = out
    return {"schema_engine.lsi_size": len(lsi),
            "schema_engine.skipped": len(skipped)}


def _solve_counts(args, solve):
    return {"solver.equations": len(args[0]),
            "solver.trace_steps": len(solve.trace)}


def _targets():
    """(owner, attribute, span name, counter) for every traced call site."""
    import schemarith.cli as cli
    import schemarith.parser as parser
    import schemarith.pipeline as pipeline
    from schemarith.discourse import PropositionStore

    return [
        (cli, "main", "cli.main", None),
        (cli, "run_problem", PROBLEM_SPAN, None),
        (cli, "result_to_dict", "pipeline.result_to_dict", None),
        (cli, "render_text_report", "pipeline.render_text_report", None),
        (pipeline, "parse_problem", "parser.parse_problem",
         lambda args, props: {"parser.propositions": len(props)}),
        (parser, "tokenize", "parser.tokenize",
         lambda args, sentences: {
             "parser.clauses": sum(len(s.clauses) for s in sentences)}),
        (pipeline, "build_store", "discourse.build_store", _store_counts),
        (pipeline, "build_timelines", "discourse.build_timelines",
         lambda args, timelines: {"discourse.timelines": len(timelines)}),
        (PropositionStore, "render_propositions",
         "discourse.render_propositions", None),
        (pipeline, "initial_lsi", "schema_engine.initial_lsi", None),
        (pipeline, "build_lsi", "schema_engine.build_lsi", _lsi_counts),
        (pipeline, "propagate", "solver.propagate", _solve_counts),
    ]


class Tracer:
    """Spans and per-problem counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, problem id]
        self.counts = []    # per problem id: {count name: value}
        self._stack = []

    def wrap(self, name, fn, counter):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if name == PROBLEM_SPAN:
                self.counts.append(defaultdict(int))
            problem = len(self.counts) - 1
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    problem]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.counts[problem][key] += value
            return out

        return traced

    @contextmanager
    def installed(self):
        """Route the traced call sites through this tracer, then restore them."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self):
        """{(span name, problem id): self time in seconds}.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, problem) in enumerate(self.spans):
            out[(name, problem)] += end - start - children[i]
        return out

    def inclusive_times(self, name):
        """{problem id: summed duration of the spans with this name}."""
        out = defaultdict(float)
        for span_name, start, end, _, problem in self.spans:
            if span_name == name:
                out[problem] += end - start
        return out

    def dump(self):
        """JSON-ready spans, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"fields": ["name", "start_s", "end_s", "parent", "problem"],
                "spans": [[n, s - t0, e - t0, p, q]
                          for n, s, e, p, q in self.spans]}


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x); None under two points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
