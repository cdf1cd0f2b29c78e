"""Every function the package defines runs in a fixed mix of CLI runs.

The static gate of test_imports.py sees a function that nothing names;
this gate sees one that is named but never called.  A child process
installs a profiler before it imports ``schemarith.cli``, runs
``cli.main`` over a fixed mix of inputs and prints the functions that
started.  Functions are matched by file and first line, so the two
methods named ``render`` stay apart, and every non-dunder function of
the package must have run but the exempt ones.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden import EXTRA

from schemarith.corpus import CORPUS
from schemarith.lexicon import DEFAULT_LEXICON

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemarith"

#: Functions that no CLI run calls, each with the reason it stays.
EXEMPT = {
    "parser.parse_clause": "test seam: parses one clause outside a problem",
    "corpus.by_id": "test seam: looks a corpus problem up by its id",
    "parser.render_proposition": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_state": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_compare": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_combine": "ROADMAP items 3 and 9 read the proposition renderers",
}

#: One text for each way a problem is refused or ends without an answer
#: the corpus does not reach: a parse error, a data conflict, an invalid
#: amount and a text that asks no question.
REFUSED = (
    "Ruth had 3 apples. Tom gave. How many apples does Ruth have now?",
    "Ruth had 3 apples. Ruth had 4 apples. How many apples does Ruth have now?",
    "Ruth had 3 apples. Ruth gave 5 apples to Tom. How many apples does Ruth have now?",
    "Ruth had 3 apples.",
)

CHILD = """
import contextlib, io, json, sys

started = set()

def profile(frame, event, arg):
    if event == "call":
        started.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

def run(argv):
    try:
        return schemarith.cli.main(argv)
    except SystemExit as exc:   # a misuse of the command line
        return exc.code

sys.setprofile(profile)
import schemarith.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "started": sorted(started)}))
"""


def package_functions():
    """{(file, first line): "module.Qualified.name"} of every non-dunder
    function the package defines.  A decorated function's code starts at
    its first decorator."""
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
        while todo:
            node, name = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    qualname = f"{name}.{child.name}"
                    todo.append((child, qualname))
                    if isinstance(child, ast.FunctionDef) and not (
                            child.name.startswith("__") and child.name.endswith("__")):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        functions[os.path.realpath(path), first] = qualname
    return functions


def the_mix(tmp_path):
    """The argument lists of the mix; the exit codes they end with."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    problems = write("problems.txt", "\n\n".join(
        [p.text for p in CORPUS] + list(EXTRA.values())))
    refused = write("refused.txt", "\n\n".join(REFUSED))
    lexicon = write("lexicon.tsv", DEFAULT_LEXICON + "noun\tkites\tkite\n")
    kites = write("kites.txt", "Tom had 3 kites. Tom got 2 kites. "
                               "How many kites does Tom have now?")
    runs = []
    for strategy in ("cautious", "total"):
        for form in ([], ["--trace"], ["--format", "json"]):
            runs.append(["solve", problems, "--strategy", strategy, *form])
    for form in ([], ["--format", "json"]):
        runs.append(["solve", refused, *form])
    runs.append(["solve", kites, "--lexicon", lexicon])
    for strategy in ("cautious", "total"):
        for form in ("text", "json"):
            runs.append(["corpus", "--strategy", strategy, "--format", form])
    runs.append(["solve", problems, "--format", "xml"])
    return runs, [4] * 6 + [2] * 2 + [0] * 5 + [2]


def never_started(tmp_path):
    runs, codes = the_mix(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(out.stdout)
    assert report["codes"] == codes
    started = {(os.path.realpath(file), line) for file, line in report["started"]}
    return {name for key, name in package_functions().items() if key not in started}


def test_every_function_runs_in_the_mix_but_the_exempt(tmp_path):
    assert never_started(tmp_path) == set(EXEMPT)
