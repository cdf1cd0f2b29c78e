"""End-to-end run of one problem: parse, represent, instantiate, solve.

A run and its reports make no reference cycles, so `run_problem`,
`result_to_dict` and `render_text_report` each pause the cyclic collector
while they run and then restore it, through `quantity._collector_paused`,
which the lexicon load and `cli.main` use too.  The collector is
process-wide.
"""
import time

from .discourse import build_store, build_timelines
from .lexicon import load_default_lexicon
from .parser import parse_problem, render_locus
from .quantity import _collector_paused
from .schema_engine import Strategy, build_lsi, initial_lsi, report_slots
from .solver import Solved, propagate


class ProblemResult:
    """Everything one run produced, for reports and for tests.  Reports
    render the two proposition lists from the store."""

    def __init__(self, strategy, store, timelines, lsi, skipped, solve,
                 timing_ms=0.0):
        self.strategy = strategy
        self.store = store
        self.timelines = timelines
        self.lsi = lsi
        self.skipped = skipped            # the Timelines the cautious gate skipped
        self.solve = solve                # SolveResult
        self.timing_ms = timing_ms

    @property
    def verdict(self):
        return self.solve.verdict

    @property
    def verdict_name(self) -> str:
        return type(self.solve.verdict).__name__.lower()

    @property
    def answer(self):
        return self.verdict.answer if isinstance(self.verdict, Solved) else None


@_collector_paused
def run_problem(text, lexicon=None, strategy=Strategy.CAUTIOUS) -> ProblemResult:
    """Understand and solve one problem text.

    Raises the parser/discourse errors on texts outside the controlled
    grammar; once a representation exists, every outcome (including
    contradictions and insufficiency) is a verdict, not an exception.
    """
    lex = lexicon or load_default_lexicon()
    start = time.perf_counter()
    props = parse_problem(text, lex)
    store = build_store(props, lex)
    # Comparisons and combines instantiate first (introducing their unknown
    # states); timelines then see those states as endpoints.
    first = initial_lsi(store)
    timelines = build_timelines(store)
    lsi, skipped = build_lsi(store, timelines, strategy, first)
    solve = propagate(lsi)
    elapsed = (time.perf_counter() - start) * 1000.0
    return ProblemResult(strategy, store, timelines, lsi, skipped, solve, elapsed)


@_collector_paused
def result_to_dict(result) -> dict:
    """Stable JSON-ready form of a result (schema: docs/report-schema.md).
    It ends with the verdict's name and then the verdict's own fields, in
    the order of its class's ``__slots__``."""
    pre_split, post_split = result.store.render_propositions()
    verdict = result.verdict
    return {
        "strategy": result.strategy.value,
        "propositions": {"pre_split": pre_split, "post_split": post_split},
        "lsi": [{"kind": si.kind, "slots": slots, "equation": equation}
                for si, slots, equation in zip(
                    result.lsi, report_slots(result.lsi), result.solve.equations)],
        "skipped": [
            {
                "kinds": [event.kind.schema for event in timeline.events],
                "locus": render_locus(timeline.locus),
                "object": timeline.obj,
                "missing": list(timeline.missing),
            }
            for timeline in result.skipped
        ],
        "binding": dict(sorted(result.solve.binding.items())),
        "trace": list(result.solve.trace),
        "timing_ms": round(result.timing_ms, 3),
        "verdict": result.verdict_name,
        **{name: getattr(verdict, name) for name in verdict.__slots__},
    }


@_collector_paused
def render_text_report(result, trace=False) -> str:
    """Human-readable report; with trace, a two-column table of the
    propositions against the recorded schema instantiations, then the
    solver's steps."""
    lines = []
    if trace:
        props, split = result.store.render_propositions()
        insts = [si.render() for si in result.lsi]
        width = max([len(p) for p in props] + [24]) + 2
        lines.append(f"{'Propositions':<{width}}| Schema Instantiations")
        lines.append("-" * width + "+" + "-" * 40)
        for i in range(max(len(props), len(insts))):
            left = props[i] if i < len(props) else ""
            right = insts[i] if i < len(insts) else ""
            lines.append(f"{left:<{width}}| {right}".rstrip())
        lines.append("")
        lines.append("After splitting compound events:")
        lines.extend(f"  {p}" for p in split)
        if result.skipped:
            lines.append("")
            lines.append("Not recorded (cautious strategy):")
            for timeline in result.skipped:
                names = " + ".join(event.kind.schema for event in timeline.events)
                lines.append(f"  {names} for {render_locus(timeline.locus)}'s "
                             f"{timeline.obj}: {' and '.join(timeline.missing)} "
                             f"amount not found, not recorded")
        lines.append("")
        lines.append("Equations:")
        lines.extend(f"  {equation}" for equation in result.solve.equations)
        if result.solve.trace:
            lines.append("")
            lines.append("Propagation:")
            lines.extend(f"  {step}" for step in result.solve.trace)
        lines.append("")
    v = result.verdict
    if result.verdict_name == "solved":
        lines.append(f"Answer: {v.answer}")
    elif result.verdict_name == "insufficient":
        unresolved = ", ".join(v.unresolved) or "the question"
        lines.append(f"Insufficient data: could not determine {unresolved}")
    elif result.verdict_name == "contradiction":
        lines.append(f"Contradiction in the problem data: {v.equation} "
                     f"({v.detail})")
    else:
        lines.append(f"Invalid amount derived: {v.equation} gives {v.value}")
    return "\n".join(lines)
