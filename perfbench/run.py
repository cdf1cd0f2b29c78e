#!/usr/bin/env python3
"""Benchmark of schemarith: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout: it imports the package from
the `src/` directory beside this one, so nothing is installed or built.
With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it makes the separate traced run that gives the per-layer
metrics.  BENCHMARK.json names both sets.  Every answer, from the library
and from the CLI, is checked against an expectation that does not come
from the program.  The last line of standard output is the JSON result;
the result with its details is also saved under --out.  The exit code is
0 only when every check passed.  Times are normalised to a reference speed
(see reference.py), and the run is pinned to one CPU.

The loop is closed with one client: each problem is solved after the
previous one returned, in one process and one thread.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference
from workloads import WORKLOADS, make

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 11        # fresh-interpreter set-ups per run, median reported
CLI_SHARE = 0.4          # share of an end-to-end run spent in CLI processes
MIN_CLI_BATCHES = 3      # CLI processes per end-to-end run, at the least
MIN_TRACED_PASSES = 3    # traced passes per traced run, at the least
BLOCK_S = 0.2            # solving time between two reference samples
REF_AROUND = 3           # reference samples before and after a CLI pass
CLI_TIMEOUT_S = 150

# Set-up as a one-shot CLI call pays it: import, then the lexicon load.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import schemarith.cli
t1 = time.perf_counter()
schemarith.cli.load_default_lexicon()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""
# What the installed `schemarith` console script runs.
CLI_CODE = "import sys; from schemarith.cli import main; sys.exit(main())"


class Checker:
    """Outcomes checked against expectations, and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def problem(self, problem, verdict, answer, where):
        self.attempted += 1
        if (verdict, answer) != (problem.expected_verdict, problem.expected_answer):
            self.failures.append(
                f"{where} {problem.id}: expected {problem.expected_verdict} "
                f"{problem.expected_answer}, got {verdict} {answer}")

    def exception(self, problem, exc, where):
        self.attempted += 1
        self.failures.append(f"{where} {problem.id}: {type(exc).__name__}: {exc}")

    def cli_report(self, problems, code, stdout, where):
        """Check one `solve --format json` report: exit code and every answer."""
        self.attempted += 1
        expected = next((p.expected_exit for p in problems if p.expected_exit), 0)
        if code != expected:
            self.failures.append(f"{where}: exit code {code}, expected {expected}")
        try:
            rows = json.loads(stdout)["problems"]
        except (ValueError, KeyError, TypeError):
            rows = []
        if len(rows) != len(problems):
            self.failures.append(
                f"{where}: {len(rows)} problems reported, expected {len(problems)}")
        for problem, row in zip(problems, rows):
            verdict = row.get("verdict") or row.get("error", {}).get("type")
            self.problem(problem, verdict, row.get("answer"), where)

    @property
    def failed(self):
        return len(self.failures)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probes(ref):
    """[(import s, lexicon load s)] of fresh interpreters, normalised."""
    out = []
    for _ in range(SETUP_PROBES):
        ref.mark()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=60)
        scale = ref.mark()
        imp, load = (float(x) * scale for x in proc.stdout.split())
        out.append((imp, load))
    return out


def run_cli(workfile, problems, checker, ref):
    """Normalised wall seconds of one `schemarith solve FILE --format json`.

    The process shares this one's CPU.  Reference samples taken every
    BLOCK_S while it runs track the CPU's speed during the run; their CPU
    time is taken off the measured wall time.
    """
    outfile = workfile.with_suffix(".out.json")
    ref.mark(REF_AROUND)
    first = len(ref.samples)
    with open(outfile, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_CODE, "solve", str(workfile),
             "--format", "json"],
            env=child_env(), stdout=out, stderr=subprocess.DEVNULL)
        try:
            while proc.poll() is None:
                if time.perf_counter() - start > CLI_TIMEOUT_S:
                    raise subprocess.TimeoutExpired(proc.args, CLI_TIMEOUT_S)
                try:
                    proc.wait(timeout=BLOCK_S)
                except subprocess.TimeoutExpired:
                    ref.mark()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start - sum(ref.samples[first:])
    ref.mark(REF_AROUND)
    scale = ref.scale_since(first - REF_AROUND)
    checker.cli_report(problems, proc.returncode,
                       outfile.read_text(encoding="utf-8"), "cli")
    outfile.unlink()
    return wall * scale


class LibraryPath:
    """The library path, `run_problem` then `result_to_dict`, pass by pass.

    A pass solves the whole set, so every problem weighs the same.  A
    reference sample follows each block of about BLOCK_S of solving.
    """

    def __init__(self, problems, checker, ref):
        from schemarith.lexicon import load_default_lexicon
        from schemarith import pipeline

        self.pipeline = pipeline
        self.lexicon = load_default_lexicon()
        self.problems = problems
        self.checker = checker
        self.ref = ref
        self.passes = []      # per timed pass: normalised seconds per problem

    def run_pass(self, timed=True):
        clock = time.perf_counter
        done, block, block_s = [], [], 0.0
        self.ref.mark()
        for problem in self.problems:
            t0 = clock()
            try:
                report = self.pipeline.result_to_dict(
                    self.pipeline.run_problem(problem.text, self.lexicon))
            except Exception as exc:  # any exception is a failed problem
                report = None
                self.checker.exception(problem, exc, "library")
            block.append(clock() - t0)
            block_s += block[-1]
            if report is not None:
                self.checker.problem(problem, report["verdict"],
                                     report.get("answer"), "library")
            if block_s >= BLOCK_S:
                scale = self.ref.mark()
                done.extend(t * scale for t in block)
                block, block_s = [], 0.0
        scale = self.ref.mark()
        done.extend(t * scale for t in block)
        if timed:
            self.passes.append(done)

    def problems_per_s(self):
        """Throughput of a pass in which each problem takes its median time.

        The per-problem median over passes keeps a slow stretch of machine
        time from weighing on the whole of one pass.
        """
        return len(self.problems) / sum(
            statistics.median(p[i] for p in self.passes)
            for i in range(len(self.problems)))


def end_to_end(problems, workfile, seconds, checker):
    """End-to-end metrics, tracing off.

    After the set-up probes and one untimed library pass (lazy set-up and
    caches settle), library passes and CLI processes alternate for
    `seconds`, the CLI taking about CLI_SHARE of the time, so that both
    sample the same stretch of machine speed.
    """
    ref = Reference()
    probes = setup_probes(ref)
    library = LibraryPath(problems, checker, ref)
    library.run_pass(timed=False)
    cli_walls, cli_spent = [], 0.0
    clock = time.perf_counter
    start = clock()
    while clock() - start < seconds:
        if cli_spent < CLI_SHARE * (clock() - start):
            t0 = clock()
            cli_walls.append(run_cli(workfile, problems, checker, ref))
            cli_spent += clock() - t0
        else:
            library.run_pass()
    while len(cli_walls) < MIN_CLI_BATCHES:
        cli_walls.append(run_cli(workfile, problems, checker, ref))
    latencies = [t for p in library.passes for t in p]
    deciles = statistics.quantiles(latencies, n=10)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "problems_per_s": (library.problems_per_s(), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (deciles[8] * 1000, "ms"),
        "cli_batch_s": (statistics.median(cli_walls), "s"),
        "setup_s": (statistics.median(i + l for i, l in probes), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    details = {
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > deciles[8]),
        "library_passes": len(library.passes),
        "pass_problems_per_s": [len(p) / sum(p) for p in library.passes],
        "cli_batch_walls_s": cli_walls,
        "setup_probes_s": probes,
        "reference_samples": len(ref.samples),
        "reference_median_s": statistics.median(ref.samples),
    }
    return metrics, details


def traced_run(problems, workfile, seconds, checker, spans_path):
    """Per-layer metrics from traced in-process CLI passes over the workload.

    Untraced and traced passes alternate; their ratio is the tracing
    overhead.  Each traced pass yields per-problem self times and work
    counts; the counts of every pass must be identical.
    """
    import schemarith.cli as cli
    from tracing import (COUNT_METRICS, EVENTS, PROBLEM_SPAN, SELF_TIME_METRICS,
                         SLOPES, Tracer, loglog_slope)

    ref = Reference()
    probes = setup_probes(ref)
    clock = time.perf_counter
    argv = ["solve", str(workfile), "--format", "json"]

    def one_pass():
        """Normalised wall time and time scale of one in-process CLI pass."""
        out = io.StringIO()
        ref.mark(REF_AROUND)
        with contextlib.redirect_stdout(out):
            start = clock()
            code = cli.main(argv)
            wall = clock() - start
        scale = ref.mark(REF_AROUND)
        checker.cli_report(problems, code, out.getvalue(), "traced cli")
        return wall * scale, scale

    one_pass()  # untimed: lexicon load and first-call costs
    plain, traced, layer_passes, slope_passes = [], [], [], []
    counts = None
    tracer = None
    deadline = clock() + seconds
    while len(traced) < MIN_TRACED_PASSES or clock() < deadline:
        plain.append(one_pass()[0])
        tracer = Tracer()
        with tracer.installed():
            wall, scale = one_pass()
        traced.append(wall)
        n = len(tracer.counts)
        pass_counts = [dict(c) for c in tracer.counts]
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            checker.failures.append("work counts differ between traced passes")
        self_times = tracer.self_times()
        layers = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for (name, _), t in self_times.items():
            if name in SELF_TIME_METRICS:
                layers[SELF_TIME_METRICS[name]] += t * scale * 1000 / n
        layers["pipeline.run_problem_ms"] = (
            sum(tracer.inclusive_times(PROBLEM_SPAN).values()) * scale * 1000 / n)
        layer_passes.append(layers)
        slope_passes.append({
            slope: [sum(self_times[(name, i)] for name in names) * scale
                    for i in range(n)]
            for slope, names in SLOPES.items()})

    spans_path.write_text(json.dumps(tracer.dump()))
    n = len(counts)
    metrics = {
        "lexicon.load_ms": (statistics.median(l for _, l in probes) * 1000, "ms"),
        "cli.import_ms": (statistics.median(i for i, _ in probes) * 1000, "ms"),
    }
    for name in layer_passes[0]:
        metrics[name] = (statistics.median(p[name] for p in layer_passes), "ms")
    for name in COUNT_METRICS:
        metrics[name] = (sum(c.get(name, 0) for c in counts) / n, "count")
    timelines = sum(c.get("discourse.timelines", 0) for c in counts)
    skipped = sum(c.get("schema_engine.skipped", 0) for c in counts)
    metrics["schema_engine.recorded_share"] = (
        (timelines - skipped) / timelines if timelines else 0.0, "ratio")
    events = [c.get(EVENTS, 0) for c in counts]
    for slope in SLOPES:
        per_problem = [statistics.median(p[slope][i] for p in slope_passes)
                       for i in range(n)]
        metrics[slope] = (loglog_slope(zip(events, per_problem)), "exponent")
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "ratio")
    details = {
        "traced_passes": len(traced),
        "plain_pass_s": plain,
        "traced_pass_s": traced,
        "events_per_problem": events,
        "counts_per_problem": counts,
        "spans_file": spans_path.name,
        "reference_samples": len(ref.samples),
        "reference_median_s": statistics.median(ref.samples),
    }
    return metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, default=RESULTS / "runs",
                    help="directory for the saved result (default: %(default)s)")
    args = ap.parse_args(argv)

    if not (SRC / "schemarith" / "__init__.py").is_file():
        print(f"perfbench: no schemarith sources under {SRC}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schemarith
    from schemarith.corpus import CORPUS

    if not Path(schemarith.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: schemarith imported from {schemarith.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    # Installed packages ship compiled bytecode; set-up is measured so.
    compileall.compile_dir(str(SRC / "schemarith"), quiet=1)

    # One CPU for this process and its children, so that the reference
    # samples time the CPU the measured code runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    checker = Checker()
    problems = make(args.workload, args.seed, CORPUS)
    if make(args.workload, args.seed, CORPUS) != problems:
        checker.failures.append("the generator is not deterministic for this seed")
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}.t{args.trace}.s{args.seed}"
    workfile = RESULTS / "work" / f"{stem}.{os.getpid()}.txt"
    workfile.parent.mkdir(parents=True, exist_ok=True)
    workfile.write_text("\n\n".join(p.text for p in problems) + "\n",
                        encoding="utf-8")
    try:
        if args.trace:
            metrics, details = traced_run(problems, workfile, args.seconds, checker,
                                          args.out / f"{stem}.spans.json")
        else:
            metrics, details = end_to_end(problems, workfile, args.seconds, checker)
    finally:
        workfile.unlink()

    failed_share = checker.failed / checker.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    print(f"{'failed_share':32} {failed_share:14.6g} ratio "
          f"({checker.failed} of {checker.attempted} attempted)")
    if "latency_samples" in details:
        print(f"latency samples: {details['latency_samples']} "
              f"({details['samples_beyond_p90']} beyond p90)")
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    saved = dict(result, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, set_size=len(problems),
                 failed_share=failed_share, failures=checker.failures,
                 details=details)
    (args.out / f"{stem}.json").write_text(json.dumps(saved, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
