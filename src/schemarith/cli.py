"""Command-line front end; ``_HELP`` below is what ``schemarith --help`` prints.

The arguments are read as argparse read them (``--opt value``, ``--opt=value``,
a unique prefix such as ``--form json`` or ``--t``, ``--`` before FILEs that start
with a dash, ``-h``/``--help`` before or after the command), except that FILEs may
also follow options (``solve a.txt --trace b.txt``).  A misuse prints the usage and
``schemarith: error: ...`` on stderr and exits 2, at the first argument that
is wrong, even where argparse would have printed a later ``-h``'s help.
"""
import codecs
import os
import sys

from .discourse import DataConflict
from .lexicon import load_default_lexicon, load_lexicon_file
from .parser import ProblemTextError
from .pipeline import render_text_report, result_to_dict, run_problem
from .quantity import _collector_paused
from .schema_engine import Strategy

FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_UNDERSTOOD = 2
EXIT_INSUFFICIENT = 3
EXIT_INCONSISTENT = 4

_VERDICT_EXIT = {
    "solved": EXIT_OK,
    "insufficient": EXIT_INSUFFICIENT,
    "contradiction": EXIT_INCONSISTENT,
    "invalid": EXIT_INCONSISTENT,
}


def _blocks(text):
    """Problems in a file: one per block between blank lines (spaces allowed).

    Only "\n" ends a line; a line of other whitespace, "\r" and "\x85"
    among it, is blank.
    """
    blocks = [[]]
    for line in text.split("\n"):
        if line and not line.isspace():
            blocks[-1].append(line)
        else:
            blocks.append([])
    return ["\n".join(block).strip() for block in blocks if block]


def _run_text(text, lexicon, strategy=Strategy.CAUTIOUS, format="text", trace=False):
    """(exit code, report) for one problem text: only the form asked for,
    the report dict for JSON, else the text report.

    Any exception outside the documented set is a fault of the program;
    it is reported as an internal error, never raised.
    """
    try:
        result = run_problem(text, lexicon, strategy)
        code = _VERDICT_EXIT[result.verdict_name]
        if format == "json":
            return code, result_to_dict(result)
        return code, render_text_report(result, trace)
    except Exception as exc:
        if isinstance(exc, ProblemTextError):
            code, heading = EXIT_NOT_UNDERSTOOD, "Not understood"
        elif isinstance(exc, DataConflict):
            code, heading = EXIT_INCONSISTENT, "Contradiction in the problem data"
        else:
            code, heading = EXIT_ERROR, "Internal error"
        if format == "json":
            return code, {"error": {"type": type(exc).__name__, "message": str(exc)}}
        return code, f"{heading}: {exc}"


def cmd_solve(inputs, lexicon, strategy, format, trace):
    """(exit code, output): the report dict for JSON, else the text; no
    output after an input error."""
    codes = []
    reports = []
    for path in inputs:
        try:
            with open(path, encoding="utf-8") as fh:
                content = fh.read()
        except (OSError, ValueError) as exc:   # ValueError: not UTF-8
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_ERROR, None
        blocks = _blocks(content) or [""]
        # Bytes of the name that do not decode show as "\xff", not as a
        # lone surrogate that no stdout can encode.
        name = os.fsencode(path).decode(sys.getfilesystemencoding(), "backslashreplace")
        for i, block in enumerate(blocks, start=1):
            code, report = _run_text(block, lexicon, strategy, format, trace)
            codes.append(code)
            if format == "json":
                report = {"source": f"{name}#{i}", **report}
            elif len(blocks) > 1 or len(inputs) > 1:
                report = f"== {name}#{i}\n{report}"
            reports.append(report)
    bad = [c for c in codes if c != EXIT_OK]
    output = ({"format_version": FORMAT_VERSION, "problems": reports}
              if format == "json" else "\n\n".join(reports))
    return (bad[0] if bad else EXIT_OK), output


def run_corpus(problems, lexicon, strategy):
    """Run bundled problems and compare against their expectations.

    Returns (rows, all_match); with the total strategy each row also
    carries the cautious LSI size for the size-delta report.
    """
    rows = []
    all_match = True
    for problem in problems:
        row = {"id": problem.id,
               "expected_verdict": problem.expected_verdict,
               "expected_answer": problem.expected_answer}
        try:
            result = run_problem(problem.text, lexicon, strategy)
        except Exception as exc:  # a corpus problem must never fail to parse
            row.update({"verdict": "error", "answer": None,
                        "match": False, "error": str(exc)})
            all_match = False
            rows.append(row)
            continue
        row.update({
            "verdict": result.verdict_name,
            "answer": result.answer,
            "lsi_size": len(result.lsi),
            "timing_ms": round(result.timing_ms, 3),
        })
        if strategy is not Strategy.CAUTIOUS:
            # The cautious strategy would record every change but those
            # of the timelines that lack an endpoint.
            delta = sum(len(timeline.events) for timeline in result.timelines
                        if timeline.missing)
            row["cautious_lsi_size"] = len(result.lsi) - delta
            row["lsi_delta"] = delta
        row["match"] = (row["verdict"] == problem.expected_verdict
                        and row["answer"] == problem.expected_answer)
        all_match = all_match and row["match"]
        rows.append(row)
    return rows, all_match


def cmd_corpus(lexicon, strategy, format):
    """(exit code, output): the report dict for JSON, else the text."""
    from .corpus import CORPUS   # loaded for this command alone
    rows, all_match = run_corpus(CORPUS, lexicon, strategy)
    code = EXIT_OK if all_match else EXIT_ERROR
    if format == "json":
        return code, {
            "format_version": FORMAT_VERSION,
            "strategy": strategy.value,
            "problems": rows,
            "summary": _summary(rows),
        }
    lines = []
    for row in rows:
        status = "ok" if row["match"] else "MISMATCH"
        expected = (row["expected_answer"]
                    if row["expected_answer"] is not None
                    else row["expected_verdict"])
        got = row["answer"] if row["answer"] is not None else row["verdict"]
        line = f"{row['id']:<20} expected {expected!s:<14} got {got!s:<14} {status}"
        if "lsi_delta" in row:
            line += (f"  lsi {row['cautious_lsi_size']} -> {row['lsi_size']}"
                     f" (+{row['lsi_delta']})")
        lines.append(line)
    counts = _summary(rows)["verdicts"]
    lines.append(f"\n{len(rows)} problems; verdicts: "
                 + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    lines.append("all expectations met" if all_match else "EXPECTATION MISMATCH")
    return code, "\n".join(lines)


def _summary(rows):
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    return {"total": len(rows), "verdicts": counts,
            "matches": sum(1 for r in rows if r["match"])}


def _write_stdout(output):
    """Print a report dict as compact JSON, or a text; False if stdout is closed.

    A stdout whose encoding is outside the UTF family gets JSON with
    \\u escapes, and text with backslash escapes for what it cannot encode.
    """
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    utf = codecs.lookup(encoding).name.startswith("utf")
    if isinstance(output, str):
        if not utf:
            output = output.encode(encoding, "backslashreplace").decode(encoding)
    else:   # a report is a tree built afresh, so it holds no cycle to check for
        import json
        output = json.dumps(output, ensure_ascii=not utf, separators=(",", ":"),
                            check_circular=False)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`... | head`).  Point stdout at devnull so
        # that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False
    return True


_USAGE = """\
usage: schemarith solve [-h] [--trace] [--strategy S] [--format F] [--lexicon PATH] FILE...
       schemarith corpus [-h] [--strategy S] [--format F] [--lexicon PATH]"""
_HELP = _USAGE + """

solve: the problems in UTF-8 FILEs, one per block between blank lines; corpus: the
bundled corpus.  --trace: the representation and the solver's steps.  S: cautious
(default) or total.  F: text (default) or json.  PATH: a lexicon in place of the
embedded one.  Exit codes: 0 solved, 1 I/O or internal error (a closed stdout too), 2
text not understood or a misuse, 3 insufficient data, 4 contradictory or invalid data."""

#: The options of each command, and the choices of those that take a value.
_CHOICES = {"--strategy": ("cautious", "total"), "--format": ("text", "json"), "--lexicon": None}
_OPTIONS = {None: ("--help",), "corpus": ("--help", *_CHOICES),
            "solve": ("--help", *_CHOICES, "--trace")}


def _is_value(arg):
    """Whether argparse took `arg` as a value: a word, "", "-", a negative
    number, or a dash-led word with a space before any newline.  A number's
    digits are any decimal digits, and it may end in one newline."""
    if arg[:1] != "-":
        return True
    number = arg[1:-1] if arg[-1:] == "\n" else arg[1:]
    whole, dot, fraction = number.partition(".")
    return (not number or number.isdecimal()
            or dot and (not whole or whole.isdecimal()) and fraction.isdecimal()
            or " " in arg.partition("\n")[0])


def _option(arg, command):
    """The option of `command` that `arg` names, whole or by a prefix (no two
    options share a first letter), else None."""
    name = "--help" if arg == "-h" else arg.partition("=")[0]
    return next((o for o in _OPTIONS[command] if len(name) > 2 and o.startswith(name)), None)


def _misuse(reason):
    print(f"{_USAGE}\nschemarith: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def read_args(argv):
    """(command, FILEs, strategy, format, lexicon path or None, trace) of a
    command line, read as the module docstring says."""
    command, inputs = None, []
    values = {"--strategy": "cautious", "--format": "text", "--lexicon": None, "--trace": False}
    args = iter(argv)
    for arg in args:
        option, (eq, value) = _option(arg, command), arg.partition("=")[1:]
        if option == "--help" and not eq:
            print(_HELP)
            raise SystemExit(0)
        if option == "--trace" and not eq:
            values[option] = True
        elif option in _CHOICES:
            if not eq:   # the next argument, unless it is an option; "--" if none is left
                value = next(args, "--")
                if _option(value, command) or not _is_value(value):
                    _misuse(f"argument {option}: expected one argument")
            if _CHOICES[option] and value not in _CHOICES[option]:
                _misuse(f"argument {option}: invalid choice: {value!r} "
                        f"(choose from {', '.join(_CHOICES[option])})")
            values[option] = value
        elif arg == "--" and command == "solve":   # only FILEs after it
            inputs.extend(args)
        elif option or not _is_value(arg) or command == "corpus":
            _misuse(f"unrecognized arguments: {arg}")
        elif command:
            inputs.append(arg)
        elif arg in _OPTIONS:
            command = arg
        else:
            _misuse(f"argument command: invalid choice: {arg!r} (choose from solve, corpus)")
    if not command or command == "solve" and not inputs:
        _misuse(f"the following arguments are required: {'FILE' if command else 'command'}")
    return (command, inputs, *values.values())


@_collector_paused
def main(argv=None) -> int:
    command, inputs, strategy, format, lexicon, trace = read_args(
        sys.argv[1:] if argv is None else argv)
    try:
        lexicon = load_lexicon_file(lexicon) if lexicon else load_default_lexicon()
    except (OSError, ValueError) as exc:   # ValueError: not UTF-8, or malformed
        print(f"error: lexicon: {exc}", file=sys.stderr)
        return EXIT_ERROR
    strategy = Strategy(strategy)
    if command == "solve":
        code, output = cmd_solve(inputs, lexicon, strategy, format, trace)
    else:
        code, output = cmd_corpus(lexicon, strategy, format)
    if output is not None and not _write_stdout(output):
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
