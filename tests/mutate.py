"""Mutation analysis of the package against the tier-1 tests.

A mutant is one small change at one point of ``src/schemarith``: ``+`` and
``-`` swapped, a comparison swapped (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``is``/``is not``, ``in``/``not in``), ``and``/``or``
swapped, a ``not`` dropped, 1 added to an int, or an ``if`` test made
``True`` (DeMillo, Lipton & Sayward, "Hints on test data selection",
IEEE Computer 11, 1978).  Each mutant is written over its file in a copy
of the repository, and the tier-1 tests run there with ``-x``; the mutant
is killed when they fail or run past the time limit, and survives when
they pass.  Two copies are tested at once.  Run from the repository root:

    python tests/mutate.py               # the whole catalogue
    python tests/mutate.py --sample 100  # a sample drawn by --seed, 1 by default

It prints each survivor as it is found and a table of them at the end,
and exits 1 if a survivor is missing from ``EQUIVALENT`` or an entry of
``EQUIVALENT`` names no mutant of the catalogue.  A mutant's id is its
module, the function it is in, the operator and the code before and
after, so it stays the same when lines move; ``#2`` marks a second
mutant of the same id in one function.  Only the standard library is
used; pytest runs the tests but does not collect this file.
"""
import argparse
import ast
import concurrent.futures
import copy
import os
import queue
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "schemarith"
JOBS = 2   # copies tested at once: the two vCPUs of a CI runner

#: Survivors that no output can tell from the code, each with the reason;
#: nothing else may survive.  Where the code they change only saves
#: work, the reason names the gain that keeps it.
EQUIVALENT = {
    "parser._split_and add 1: 1 -> 2":
        "following starts at -2 in place of -1; both are below every \"and\", so "
        "the first \"and\" that needs a later verb scans for one alike",
    "parser._split_and swap: left < n -> left <= n":
        "also reads the word at n, an \"and\", which is no verb",
    "parser._split_and swap: following <= n -> following < n":
        "following is never n: the word at n is an \"and\", which is no verb",
    "parser._split_and swap: following < stop -> following <= stop":
        "the word at stop is _END or the \"and\" past the sentence, no verb, so "
        "the scan ends at stop + 1, past every later \"and\" as stop is",
    # warm tokenize of the 12 corpus problems, median of 10 runs pinned to
    # one CPU under CPython 3.11: 17.5 us a problem with both guards
    "parser.tokenize if True: ',' in tokens -> True":
        "filters the tokens of a sentence with no comma too: 19.0 us a problem",
    "parser.tokenize if True: None in words -> True":
        "walks the tokens of a sentence the word table holds whole: 18.2 us a problem",
    # pinned to one CPU under CPython 3.11, median of 30 runs: build_lsi
    # under the cautious strategy, which admits only timelines with both
    # endpoints, over the seed-1 workloads
    "schema_engine.build_lsi if True: amounts[i] is None -> True":
        "looks each stated endpoint up again: 7.0 us a corpus problem against 3.4, "
        "115 us a chain-forward problem against 110",
    # the same, median of 21 runs: one solve's whole text output written to
    # a UTF-8 stdout
    "cli._write_stdout if True: not utf -> True":
        "encodes and decodes a text that needs no escape: 0.77 ms of a traced "
        "240-problem corpus report (200 kB) and 4.3 ms of a traced chain-forward "
        "one (1.4 MB); the test itself costs 0.3 us more on a one-line report",
}

_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}
_OPS = {ast.Add: "+", ast.Sub: "-"}


class Mutant:
    """One change: the bytes ``[start, end)`` of ``path`` become
    ``replacement``, which spans as many lines."""

    def __init__(self, path, line, start, end, replacement, ident):
        self.path, self.line = path, line
        self.start, self.end, self.replacement = start, end, replacement
        self.ident = ident

    def source(self, original):
        return original[:self.start] + self.replacement + original[self.end:]


def _short(node):
    text = " ".join(ast.unparse(node).split())
    return text if len(text) <= 60 else text[:57] + "..."


def _mutations(node):
    """(operator, the node whose text changes, the node it becomes) of
    each mutation of `node` itself."""
    if isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in _SWAPS:
        yield "swap", node, _replace(node, op=_SWAPS[type(node.op)]())
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            yield "swap", node, _replace(node, ops=[
                _SWAPS[type(o)]() if j == i else o for j, o in enumerate(node.ops)])
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "drop not", node, node.operand
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "add 1", node, ast.Constant(node.value + 1)
    elif isinstance(node, ast.If):
        yield "if True", node.test, ast.Constant(True)


def _replace(node, **fields):
    new = copy.copy(node)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def catalogue():
    """Every mutant of the package, in file and text order.  An
    expression's replacement is parenthesised, and an augmented
    assignment's value; the line breaks of the code replaced go inside the
    parentheses, so no line below moves."""
    mutants = []
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        starts = [0]
        for line in data.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        found = []
        todo = [(ast.parse(data), path.stem)]
        while todo:
            node, scope = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.JoinedStr):
                    continue   # an f-string's parts carry no reliable columns before 3.12
                inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
                todo.append((child, f"{scope}.{child.name}" if inner else scope))
                for operator, old, new in _mutations(child):
                    start = starts[old.lineno - 1] + old.col_offset
                    found.append((start, f"{scope} {operator}: {_short(old)} -> {_short(new)}",
                                  old, new))
        seen = {}
        for start, ident, old, new in sorted(found, key=lambda f: f[:2]):
            seen[ident] = seen.get(ident, 0) + 1
            if seen[ident] > 1:
                ident += f" #{seen[ident]}"
            breaks = "\n" * (old.end_lineno - old.lineno)
            if isinstance(new, ast.AugAssign):
                text = f"{ast.unparse(new.target)} {_OPS[type(new.op)]}= " \
                       f"({ast.unparse(new.value)}{breaks})"
            else:
                text = f"({ast.unparse(new)}{breaks})"
            mutants.append(Mutant(path, old.lineno, start,
                                  starts[old.end_lineno - 1] + old.end_col_offset,
                                  text.encode(), ident))
    return mutants


def _copy_tree(target):
    shutil.copytree(ROOT, target, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "results"))


def _run_tests(tree, timeout):
    """True if tier-1 passes in `tree`, False if it fails, None past `timeout`."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "tests"]
    # a process group of its own, so that a timeout ends the tests' children too
    tests = subprocess.Popen(command, cwd=tree, env=env, start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return tests.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(tests.pid, signal.SIGKILL)
        tests.wait()
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn by --seed")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    mutants = catalogue()
    stale = sorted(set(EQUIVALENT) - {m.ident for m in mutants})
    chosen = mutants
    if args.sample is not None:
        chosen = sorted(random.Random(args.seed).sample(mutants, min(args.sample, len(mutants))),
                        key=mutants.index)

    with tempfile.TemporaryDirectory(prefix="mutate-") as workdir:
        trees = queue.Queue()
        for i in range(JOBS):
            tree = Path(workdir) / str(i)
            _copy_tree(tree)
            trees.put(tree)
        clean = time.monotonic()
        tree = trees.get()
        if not _run_tests(tree, timeout=600):
            print("the tests fail on the unchanged code", file=sys.stderr)
            return 2
        trees.put(tree)
        limit = max(60.0, 3 * (time.monotonic() - clean))
        print(f"{len(chosen)} of {len(mutants)} mutants; clean run "
              f"{time.monotonic() - clean:.1f} s, limit {limit:.0f} s", flush=True)

        def run(mutant):
            tree = trees.get()
            target = tree / mutant.path.relative_to(ROOT)
            original = mutant.path.read_bytes()
            try:
                target.write_bytes(mutant.source(original))
                return mutant, _run_tests(tree, limit)
            finally:
                target.write_bytes(original)
                trees.put(tree)

        survivors, killed = [], 0
        started = time.monotonic()
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for mutant, passed in pool.map(run, chosen):
                if passed:
                    survivors.append(mutant)
                    mark = "equivalent" if mutant.ident in EQUIVALENT else "SURVIVED"
                    print(f"{mark}\t{mutant.path.name}:{mutant.line}\t{mutant.ident}", flush=True)
                else:
                    killed += 1
    print(f"\n{killed} killed, {len(survivors)} survived, "
          f"in {time.monotonic() - started:.0f} s\n")
    if survivors:
        print("| mutant | where | fate |\n|---|---|---|")
        for m in survivors:
            fate = EQUIVALENT.get(m.ident, "**not triaged**")
            print(f"| `{m.ident}` | {m.path.name}:{m.line} | {fate} |")
    for ident in stale:
        print(f"EQUIVALENT names no mutant: {ident}", file=sys.stderr)
    untriaged = [m for m in survivors if m.ident not in EQUIVALENT]
    return 1 if untriaged or stale else 0


if __name__ == "__main__":
    sys.exit(main())
