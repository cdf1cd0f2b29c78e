"""Every statement the package defines runs in a fixed mix of CLI runs.

The static gate of test_imports.py sees a function that nothing names;
this gate sees one that is named but never called, and a statement that
no run reaches.  A child process installs a tracer before it imports
``schemarith.cli``, runs ``cli.main`` over a fixed mix of inputs and
prints the lines that ran.  A statement is matched by its function and
its first line's text, so the exemptions stay put when lines move, and
every statement outside the exempt functions must have run but the
exempt ones.  A function that never starts runs none of its statements,
and every function of the package has one besides its docstring, so the
gate sees it too.  The tracer is ``sys.settrace``, which every supported
version has.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import EXTRA, GOLDEN_ERRORS

from schemarith.corpus import CORPUS
from schemarith.lexicon import DEFAULT_LEXICON

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemarith"

#: Functions that no CLI run calls, each with the reason it stays; the
#: gate leaves their statements out.
EXEMPT = {
    "parser.parse_clause": "test seam: parses one clause outside a problem",
    "corpus.by_id": "test seam: looks a corpus problem up by its id",
    "parser.render_proposition": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_state": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_compare": "ROADMAP items 3 and 9 read the proposition renderers",
    "parser._render_combine": "ROADMAP items 3 and 9 read the proposition renderers",
}

#: Statements that no CLI run reaches, by function and first line, each
#: with the reason it stays.  A statement of an exempt function is left out.
EXEMPT_STATEMENTS = {
    ("cli._run_text", 'code, heading = EXIT_ERROR, "Internal error"'):
        "a fault of the program, reported and never raised; no input reaches it",
    ("cli.run_corpus", 'row.update({"verdict": "error", "answer": None,'):
        "a bundled problem that fails; test_cli keeps every one passing",
    ("cli.run_corpus", "all_match = False"):
        "a bundled problem that fails; test_cli keeps every one passing",
    ("cli.run_corpus", "rows.append(row)"):
        "a bundled problem that fails; test_cli keeps every one passing",
    ("cli.run_corpus", "continue"):
        "a bundled problem that fails; test_cli keeps every one passing",
    ("cli", "sys.exit(main())"):
        "the module run as a script, `python -m schemarith.cli`, which test_cli runs",
    ("parser.render_event", 'return f"{objs} {past}"'):
        "an event with no participant, which the store refuses; only the public "
        "render_proposition renders one",
    ("quantity._EnumType.__len__", "return len(cls._members)"):
        "the enum contract of the quantity docstring: len counts the members",
    ("quantity._Enum.__reduce__", "return self.__class__, (self._value_,)"):
        "the enum contract: a copy or an unpickled member is the member itself",
    ("quantity._Enum.__repr__",
     'return f"<{self.__class__.__name__}.{self._name_}: {self._value_!r}>"'):
        "the enum contract: a member prints as Enum prints it",
    ("quantity._Enum.__str__", 'return f"{self.__class__.__name__}.{self._name_}"'):
        "the enum contract: a member prints as Enum prints it",
    ("quantity._Frozen.__eq__", "return NotImplemented"):
        "values of different classes are never equal; no run compares two",
    ("quantity._Frozen.__repr__",
     'fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)'):
        "a value's repr, for a reader of a failing test",
    ("quantity._Frozen.__repr__", 'return f"{self.__class__.__qualname__}({fields})"'):
        "a value's repr, for a reader of a failing test",
    ("quantity.Question.__new__", "return QUESTION"):
        "Question() is the one question, also when a copy or unpickling makes it",
    ("quantity.render_quantity", 'raise TypeError(f"not a quantity: {q!r}")'):
        "an amount is an int, an unknown's name or the question; a bool is none",
    ("solver.propagate", 'raise MalformedLSI(f"a stated amount is negative: {q}")'):
        "propagate is public: a check of its argument",
    ("solver.propagate", 'raise MalformedLSI(f"not a quantity: {q!r}")'):
        "propagate is public: a check of its argument",
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

#: A text for each other branch of the parser, the word rules and the
#: solver that neither the corpus nor the golden mutants reach.
BRANCHES = (
    ".",
    "Tom had 3 apples. How many apples does Tom have now? "
    "How many apples did Tom have in the beginning?",
    "Tom had 3 appl\u00e9s. How many apples does Tom have now?",
    f"Tom had {'9' * 1001} apples. How many apples does Tom have now?",
    "They had 3 apples. How many apples do they have now?",
    "Tom put 3 apples into Ruth. How many apples does Tom have now?",
    "Ruth had 3 apples. Tom gave 2 apples to her. How many apples does Ruth have now?",
    "How many apples did the girls have altogether?",
    "Tom had 3 apples more than Tom. How many apples does Tom have now?",
    "Tom took 3 apples. How many apples does Tom have now?",
    "Tom and Ruth ate 3 apples. How many apples does Tom have now?",
    "Tom and Ruth had 3 apples more than Ann. How many apples does Ann have now?",
    "Tom had 3 apples more than there were in the basket. There were 4 apples in "
    "the basket. How many apples did Tom have in the beginning?",
    "Tom had 3 apples altogether. How many apples does Tom have now?",
    "Tom and Tom had 3 apples altogether. How many apples does Tom have now?",
    "3 girls remained in the room in the beginning. "
    "How many girls are there in the room now?",
    "Tom remained in the room. How many apples does Tom have now?",
    "Tom had 5 apples. Tom gave 3 apples to the basket. How many apples does Tom have now?",
    "There were 5 apples in the box. Tom dragged 3 apples out of the box. "
    "How many apples are there in the box now?",
    "Tom had 3 apples. How many apples did Tom have in the beginning?",
    "Tom had 3 apples. tOM got 2 apples. How many apples does Tom have now?",
    "Tom had 3 7s. How many apples does Tom have now?",
    "Tom had 3 sevens. How many apples does Tom have now?",
    "Tom had 3 berries. Tom got 2 berries. How many berries does Tom have now?",
    "Tom had 3 dishes. Tom killed 1 dish. Tom fetches 2 dishes into the box. "
    "How many dishes does Tom have now?",
    "Tom gets 2 apples. How many apples does Tom have now?",
    "There were 5 birds in the garden. 3 birds were born in the garden. "
    "How many birds are there in the garden now?",
    "3 girls bought 2 tickets. 2 boys bought 3 tickets. "
    "How many tickets did the girls buy altogether?",
    # a later pass of two equations, and a combine with one part known
    "Ruth had 2 apples more than Tom. Ann had 3 apples more than Tom. Tom got 2 "
    "apples. Now Tom has 7 apples. How many apples did Ruth have in the beginning?",
    "Tom had 3 apples. Now Ruth has 4 apples. Ruth got 2 apples. "
    "How many apples did they have altogether?",
)

#: One lexicon record for each way the loader refuses a record.
BAD_RECORDS = (
    "verb\tzap",
    "noun\tApple\tapple",
    "name\t12\tm",
    "name\tZed\tx",
    "number\tzillion\tmany",
    "noun\tbig apple\tapple",
    "adjective\tred\tcolour",
    "form\tjumped\tjump:past",
    "noun\tthe\tthe",
    "verb\tzap\telementary:sideways:place",
    "verb\tzap\tcompound:in:place",
    "verb\tzap\tmagic",
    "verb\tzap\tcompound:in:place:agent",
)

CHILD = """
import io, json, os, sys

package = sys.argv[2]
reached = set()

def line(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return line

def call(frame, event, arg):
    if not frame.f_code.co_filename.startswith(package):
        return None
    return line(frame, event, arg)

def run(argv, stdout):
    if stdout == "gone":   # the write end of a pipe whose reader has gone
        reader, writer = os.pipe()
        os.close(reader)
        sys.stdout = open(writer, "w", encoding="utf-8")
    else:
        sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding=stdout)
    try:
        return schemarith.cli.main(argv)
    except SystemExit as exc:   # a misuse of the command line
        return exc.code
    finally:
        sys.stdout.close()

out = sys.stdout
sys.settrace(call)
import schemarith.cli
codes = [run(argv, stdout) for argv, stdout in json.loads(sys.argv[1])]
codes.append(len(schemarith.CORPUS))            # the package loads the corpus on first use
codes.append(getattr(schemarith, "Corpus", 0))  # and has no other lazy name
sys.settrace(None)
sys.stdout = out
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def the_mix(tmp_path):
    """The runs of the mix, each its argument list and the encoding of its
    stdout ("gone" for a pipe whose reader has gone); the exit codes they
    end with, and then the corpus's size and the 0 of a name the package
    lacks."""
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    problems = write("problems.txt", "\n\n".join(
        [p.text for p in CORPUS] + list(EXTRA.values()) + list(BRANCHES)))
    refused = write("refused.txt", "\n\n".join(REFUSED))
    mutants = write("mutants.txt", "\n\n".join(
        m["text"] for m in json.loads(GOLDEN_ERRORS.read_text(encoding="utf-8"))))
    # a tabled noun, and a verb whose past and present take the -y rules
    lexicon = write("lexicon.tsv", DEFAULT_LEXICON + "noun\tkites\tkite\n"
                                                     "verb\tcarry\telementary:in:place\n")
    kites = write("kites.txt", "Tom had 3 kites. Tom got 2 kites. Tom carries 1 kite "
                               "into the box. How many kites does Tom have now?")
    missing = str(tmp_path / "missing.txt")
    runs = []
    for strategy in ("cautious", "total"):
        for form in ([], ["--trace"], ["--format", "json"]):
            runs.append(["solve", problems, "--strategy", strategy, *form])
    for form in ([], ["--format", "json"]):
        runs.append(["solve", refused, *form])
        runs.append(["solve", mutants, *form])
    runs.append(["solve", kites, "--lexicon", lexicon])
    for strategy in ("cautious", "total"):
        for form in ("text", "json"):
            runs.append(["corpus", "--strategy", strategy, "--format", form])
    codes = [4] * 6 + [2] * 4 + [0] * 5
    # misuses, the help, files that do not open and lexicons that do not load
    for argv in (["solve", problems, "--format", "xml"], ["solve", "--format"],
                 ["corpus", "extra"], ["frobnicate"], [], ["--help"],
                 ["solve", "--lexicon", lexicon, "--", kites], ["solve", missing],
                 ["solve", "-5"], ["solve", kites, "--lexicon", missing]):
        runs.append(argv)
    codes += [2, 2, 2, 2, 2, 0, 0, 1, 1, 1]
    for n, record in enumerate(BAD_RECORDS):
        runs.append(["solve", kites, "--lexicon", write(f"bad{n}.tsv", record + "\n")])
    codes += [1] * len(BAD_RECORDS)
    runs = [(argv, "utf-8") for argv in runs]
    # a stdout outside the UTF family, and one whose reader has gone
    for form in ("text", "json"):
        runs.append((["solve", kites, "--lexicon", lexicon, "--format", form], "latin-1"))
    runs.append((["solve", kites, "--lexicon", lexicon], "gone"))
    codes += [0, 0, 1]
    return runs, codes + [len(CORPUS), 0]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The lines reached in a child that runs the mix, a set of (real path,
    line)."""
    tmp_path = tmp_path_factory.mktemp("mix")
    runs, codes = the_mix(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs), str(PACKAGE)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    report = json.loads(out.stdout)
    assert report["codes"] == codes
    return {(os.path.realpath(file), line) for file, line in report["reached"]}


def _statements(node, scope, lines, path, found):
    """Append to `found` ((scope, first line's text), its head lines, its
    statements) of each statement under `node`: the head of a simple
    statement is all its lines, of a compound one its lines from the first
    decorator to the line before its body.  A docstring or other lone
    constant and ``global`` compile to no line of their own."""
    for child in ast.iter_child_nodes(node):
        inner = f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else scope
        if not isinstance(child, ast.stmt):
            _statements(child, inner, lines, path, found)
            continue
        if isinstance(child, ast.Global) or (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
            continue
        first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
        body = getattr(child, "body", None)
        last = max(first, body[0].lineno - 1) if body else child.end_lineno
        inside = []
        _statements(child, inner, lines, path, inside)
        found.append(((scope, lines[first - 1].strip()),
                      {(path, line) for line in range(first, last + 1)}, inside))


def never_reached(reached, package=PACKAGE, exempt=EXEMPT):
    """{(function, first line's text)} of the statements outside the exempt
    functions that ran no line of their head, none of their statements
    either (a ``try`` or ``while True`` head may compile to no line)."""
    missed = set()

    def ran(statement):
        key, head, inside = statement
        hit = any([ran(s) for s in inside]) or not head.isdisjoint(reached)
        if not hit and not any(key[0] == f or key[0].startswith(f + ".") for f in exempt):
            missed.add(key)
        return hit

    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        found = []
        _statements(ast.parse("\n".join(lines)), path.stem, lines,
                    os.path.realpath(path), found)
        for statement in found:
            ran(statement)
    return missed


def test_every_statement_runs_in_the_mix_but_the_exempt(traced):
    assert never_reached(traced) == set(EXEMPT_STATEMENTS)


def test_statement_gate_sees_unreached_heads_and_bodies(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""doc"""\n'                    # 1
        "def f(x):\n"                      # 2
        '    """doc"""\n'                  # 3
        "    if x:\n"                      # 4
        "        return (1,\n"             # 5
        "                2)\n"             # 6
        "    try:\n"                       # 7
        "        x += 1\n"                 # 8
        "    except ValueError:\n"         # 9
        "        pass\n"                   # 10
        "    return x\n", encoding="utf-8")  # 11
    path = os.path.realpath(tmp_path / "m.py")
    ran = {(path, line) for line in (2, 4, 6, 8, 11)}
    assert never_reached(ran, tmp_path, {}) == {("m.f", "pass")}
    # a try and its handler are reached through the statements they hold
    assert never_reached(ran - {(path, 8)}, tmp_path, {}) == {
        ("m.f", "try:"), ("m.f", "x += 1"), ("m.f", "pass")}
    # the function's own statements are left out when it is exempt
    assert never_reached(ran - {(path, 4), (path, 6)}, tmp_path, {"m.f": ""}) == set()
    assert never_reached(ran - {(path, 4), (path, 6)}, tmp_path, {}) == {
        ("m.f", "if x:"), ("m.f", "return (1,"), ("m.f", "pass")}
