import argparse
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from schemarith import cli, corpus
from schemarith.corpus import CORPUS, CorpusProblem, by_id
from schemarith.lexicon import MAX_DIGITS, load_default_lexicon
from schemarith.schema_engine import Strategy
from test_parser import chain_text

LEX = load_default_lexicon()
SRC = Path(__file__).resolve().parent.parent / "src"


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_exit_zero_and_answer(tmp_path, capsys):
    path = write_problem(tmp_path, by_id("basket-apples").text)
    assert cli.main(["solve", path]) == 0
    assert "Answer: 6" in capsys.readouterr().out


def test_each_report_is_headed_when_more_than_one_problem_is_read(tmp_path, capsys):
    """README: with more than one problem, from the blocks of one file or
    from several files, each report is headed ``== FILE#N``."""
    one = write_problem(tmp_path, by_id("basket-apples").text, "one.txt")
    two = write_problem(tmp_path, by_id("basket-apples").text, "two.txt")
    assert cli.main(["solve", one]) == 0
    assert capsys.readouterr().out == "Answer: 6\n"
    assert cli.main(["solve", one, two]) == 0
    assert capsys.readouterr().out == f"== {one}#1\nAnswer: 6\n\n== {two}#1\nAnswer: 6\n"


def test_solve_trace_shows_instantiation(tmp_path, capsys):
    path = write_problem(tmp_path, by_id("basket-apples").text)
    assert cli.main(["solve", path, "--trace"]) == 0
    out = capsys.readouterr().out
    assert "Transfer-In-Place (initially 4, in 2, finally ?)" in out
    assert "Schema Instantiations" in out


def test_trace_leaves_out_the_blocks_with_nothing_to_show(tmp_path, capsys):
    """README: the `Not recorded` block shows only when the cautious
    strategy skipped a candidate, and the `Propagation:` block only when a
    step derived an amount."""
    path = write_problem(tmp_path, "Ruth got 2 apples. How many apples does Ruth have now?")
    assert cli.main(["solve", path, "--trace"]) == 3
    out = capsys.readouterr().out
    assert "Not recorded (cautious strategy):" in out
    assert out.endswith("\nEquations:\n\nInsufficient data: could not determine "
                        "the question\n")
    assert cli.main(["solve", path, "--trace", "--strategy", "total"]) == 3
    out = capsys.readouterr().out
    assert "Not recorded" not in out
    assert out.endswith("\nEquations:\n  ? = X + 2\n\nInsufficient data: could not "
                        "determine X\n")
    path = write_problem(tmp_path, by_id("basket-apples").text)
    assert cli.main(["solve", path, "--trace"]) == 0
    assert "\nPropagation:\n  " in capsys.readouterr().out


def test_trace_renders_a_bare_place_of_a_termination_verb_as_where_it_happened(
        tmp_path, capsys):
    path = write_problem(tmp_path, "There were 5 apples in the basket. Tom ate 2 "
                         "apples the basket. How many apples are there in the basket now?")
    assert cli.main(["solve", path, "--trace"]) == 0
    assert capsys.readouterr().out.splitlines()[:5] == [
        "Propositions                       | Schema Instantiations",
        "-" * 35 + "+" + "-" * 40,
        "There were 5 apples in the basket  | Termination (place) (initially 5, "
        "terminated 2, finally ?)",
        "Tom ate 2 apples in the basket     |",
        "There are ? apples in the basket   |",
    ]


def test_contradiction_exit_code_and_report(tmp_path, capsys):
    path = write_problem(tmp_path, by_id("candies-conflict").text)
    assert cli.main(["solve", path]) == 4
    out = capsys.readouterr().out
    assert "10 = 9 + 3" in out


def test_unparseable_exit_code_names_sentence(tmp_path, capsys):
    path = write_problem(
        tmp_path,
        "Ruth had 3 apples. Gibberish withoutmeaning here. "
        "How many apples does Ruth have now?")
    assert cli.main(["solve", path]) == 2
    assert "sentence 2" in capsys.readouterr().out


def test_no_question_exit_code(tmp_path, capsys):
    path = write_problem(tmp_path, "Ruth had 3 apples.")
    assert cli.main(["solve", path]) == 2


def test_insufficient_exit_code(tmp_path, capsys):
    path = write_problem(
        tmp_path, "Ruth had 3 apples. How many candies does David have now?")
    assert cli.main(["solve", path]) == 3


def test_empty_file_not_understood(tmp_path):
    path = write_problem(tmp_path, "")
    assert cli.main(["solve", path]) == 2


def test_missing_file_is_io_error(capsys):
    assert cli.main(["solve", "/nonexistent/problems.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_blank_line_separated_blocks(tmp_path, capsys):
    text = by_id("basket-apples").text + "\n\n" + by_id("candy-gifts").text
    path = write_problem(tmp_path, text)
    assert cli.main(["solve", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["format_version"] == 2
    assert [p["answer"] for p in report["problems"]] == [6, 14]
    for problem in report["problems"]:
        assert "equations" not in problem
        assert [sorted(entry) for entry in problem["lsi"]] == (
            [["equation", "kind", "slots"]] * len(problem["lsi"]))


def test_whitespace_only_line_separates_blocks(tmp_path, capsys):
    text = (by_id("basket-apples").text + "\n  \t \n"
            + by_id("candy-gifts").text)
    path = write_problem(tmp_path, text)
    assert cli.main(["solve", path, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["answer"] for p in report["problems"]] == [6, 14]


def test_sentence_of_many_and_clauses(tmp_path, capsys):
    clauses = " and ".join(["Dan got 1 nut"] * 2000)
    path = write_problem(
        tmp_path,
        f"Dan had 3 nuts. {clauses}. How many nuts does Dan have now?")
    assert cli.main(["solve", path, "--format", "json"]) == 0
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["answer"] == 2003


@pytest.mark.parametrize("combine", [
    "Ruth and Ruth had 8 apples altogether.",
    "Ruth had 2 apples. Ruth and she had 8 apples altogether.",
    "2 girls and 3 girls had 8 apples altogether.",
])
def test_combine_naming_one_owner_twice_is_not_understood(tmp_path, capsys, combine):
    path = write_problem(
        tmp_path, f"{combine} How many apples did Ruth have in the beginning?")
    assert cli.main(["solve", path, "--format", "json"]) == 2
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["error"]["type"] == "ParseError"
    assert "one owner twice" in problem["error"]["message"]


NOW = " How many apples does Ruth have now?"


@pytest.mark.parametrize("text, message", [
    ("José had 3 apples. José got 2 apples. How many apples does Jos have now?",
     "sentence 1: non-ASCII word 'José'"),
    ("Zoë had 3 apples. Zoë got 2 apples. How many apples does Zo have now?",
     "sentence 1: non-ASCII word 'Zoë'"),
    ("Ruth had 3 apples. Ruth got 1\u0663 apples." + NOW,
     "sentence 2: non-ASCII word '1\u0663'"),
    ("Ruth has 3 apples more than Ruth has." + NOW,
     "sentence 1: a comparison names one amount twice"),
    ("Ruth has 3 apples more than she has." + NOW,
     "sentence 1: a comparison names one amount twice"),
    ("There are 3 apples more in the box than there are in the box." + NOW,
     "sentence 1: a comparison names one amount twice"),
    ("Ruth had 5 apples. Ruth got 2 apples. Ruth has 3 apples more than Ruth has."
     + NOW, "sentence 3: a comparison names one amount twice"),
    # a numeral or a grammar keyword names no object class
    ("Tom had 3 7. Tom got 2 7. How many 7 does Tom have now?",
     "sentence 1: expected an object noun, found '7'"),
    ("Tom had 3 and.", "sentence 1: expected an object noun, found 'and'"),
    # nor does the regular plural of a number word, grammar word or pronoun
    ("Tom had 3 sevens. Tom lost 1 sevens. How many sevens does Tom have now?",
     "sentence 1: expected an object noun, found 'sevens'"),
    ("Tom had 3 ands. Tom lost 1 ands. How many ands does Tom have now?",
     "sentence 1: expected an object noun, found 'ands'"),
    ("Tom had 3 hims. Tom lost 1 hims. How many hims does Tom have now?",
     "sentence 1: expected an object noun, found 'hims'"),
    ("Tom had 3 thes. Tom lost 1 thes. How many thes does Tom have now?",
     "sentence 1: expected an object noun, found 'thes'"),
    # nor does a word that begins with no letter, or a short reserved word plus "s"
    *[(f"Tom had 3 {w}. Tom got 2 {w}. How many {w} does Tom have now?",
       f"sentence 1: expected an object noun, found {w!r}")
      for w in ("7s", "1s", "hes", "ins", "tos", "ofs", "ans", "-3", "'", "--")],
    ("Tom put 2 apples into Ruth.",
     "sentence 1: expected a place noun, found the name 'Ruth'"),
    ("How many apples did the boys have altogether?",
     "sentence 1: class-noun questions need a change verb, found 'have'"),
    ("Tom and Ruth had 3 apples more than Dan.",
     "sentence 1: comparisons take a single subject"),
    ("Tom and Ann got 3 apples. How many apples does Tom have now?",
     "sentence 1: change events take a single subject"),
    ("Tom had 3 apples altogether.",
     "sentence 1: 'altogether' needs a conjunction of owners"),
    ("3 boys remained in the room in the beginning.",
     "sentence 1: time marker conflicts with the verb's meaning"),
    ("Tom remained in the room.",
     "sentence 1: a counted class noun must head this clause"),
    # an event names each role at most once
    ("Ann had 1 apple. Tom gave Ann 3 apples to Bob. How many apples does Ann have now?",
     "sentence 2: two recipients in one event"),
    ("Tom gave 3 apples to Ann to Bob.", "sentence 1: two recipients in one event"),
    ("Tom put 2 apples into the box into the basket.",
     "sentence 1: two destinations in one event"),
    ("Tom put 2 apples into the box to the basket.",
     "sentence 1: two destinations in one event"),
    ("Tom moved 2 apples from the box from the basket.",
     "sentence 1: two sources in one event"),
    ("3 eggs fell out of the box box.", "sentence 1: two sources in one event"),
    ("Two boys left stone room.", "sentence 1: two sources in one event"),
    ("Tom put 2 apples onto the box onto the basket.",
     "sentence 1: two destinations in one event"),
    ("Tom put 2 apples in the box into the basket.",
     "sentence 1: two destinations in one event"),
    ("Tom moved 2 apples from the box out of the basket.",
     "sentence 1: two sources in one event"),
    ("Tom gave to Bob Ann 3 apples.", "sentence 1: two recipients in one event"),
    ("Bob had 1 apple. Ann gave him 3 apples to Tom. How many apples does Bob have now?",
     "sentence 2: two recipients in one event"),
    ("Two boys entered the room hall.", "sentence 1: two destinations in one event"),
    ("Two boys entered the room into the hall.",
     "sentence 1: two destinations in one event"),
    ("Two boys left the room from the hall.", "sentence 1: two sources in one event"),
])
def test_non_ascii_word_or_self_comparison_is_not_understood_in_both_formats(
        tmp_path, capsys, text, message):
    path = write_problem(tmp_path, text)
    assert cli.main(["solve", path]) == 2
    assert capsys.readouterr().out.strip() == f"Not understood: {message}"
    assert cli.main(["solve", path, "--format", "json"]) == 2
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["error"] == {"type": "ParseError", "message": message}


BOX_THEN_TOM = (" There were 3 apples in the {0}."
                " How many apples did Tom have in the beginning?")


@pytest.mark.parametrize("strategy", ["cautious", "total"])
@pytest.mark.parametrize("text, answer", [
    ("Tom had 2 apples more than the box had." + BOX_THEN_TOM.format("box"), 5),
    ("Tom had 2 apples less than the basket." + BOX_THEN_TOM.format("basket"), 1),
])
def test_a_place_after_than_in_a_possession_comparison_is_that_place(
        tmp_path, capsys, strategy, text, answer):
    path = write_problem(tmp_path, text)
    assert cli.main(["solve", path, "--strategy", strategy, "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(f"Answer: {answer}\n")
    assert " had X apples" not in out   # no owner named after the place
    assert cli.main(["solve", path, "--strategy", strategy, "--format", "json"]) == 0
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["answer"] == answer


THEY_TEXT = "Ruth had 3 apples. {} How many apples does Ruth have now?"


@pytest.mark.parametrize("text,where", [
    (THEY_TEXT.format("They bought 2 apples."), "sentence 2: pronoun 'They'"),
    (THEY_TEXT.format("Ruth gave 2 apples to they."), "sentence 2: pronoun 'they'"),
    ("They had 4 apples. They had 2 apples more than Tom had. "
     "How many apples did Tom have in the beginning?", "sentence 1: pronoun 'They'"),
    (THEY_TEXT.format("Tom had 2 apples more than they had."),
     "sentence 2: pronoun 'they'"),
    (THEY_TEXT.format("Tom and they had 5 apples altogether."),
     "sentence 2: pronoun 'they'"),
], ids=["event-subject", "event-recipient", "state", "compare", "combine"])
def test_they_outside_its_question_is_not_understood(tmp_path, capsys, text, where):
    # "they" names no one outside "How many OBJ do they have altogether?"
    message = f"{where} is read only in 'How many OBJ do they have altogether?'"
    path = write_problem(tmp_path, text)
    for strategy in ("cautious", "total"):
        assert cli.main(["solve", path, "--strategy", strategy]) == 2
        assert capsys.readouterr().out.strip() == f"Not understood: {message}"
        assert cli.main(["solve", path, "--strategy", strategy, "--format", "json"]) == 2
        [problem] = json.loads(capsys.readouterr().out)["problems"]
        assert problem["error"] == {"type": "ParseError", "message": message}


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("broken stage")

    monkeypatch.setattr(cli, "run_problem", broken)
    path = write_problem(tmp_path, by_id("basket-apples").text)
    assert cli.main(["solve", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    [problem] = json.loads(captured.out)["problems"]
    assert problem["error"] == {"type": "RuntimeError", "message": "broken stage"}
    assert cli.main(["solve", path]) == 1
    assert capsys.readouterr().out.strip() == "Internal error: broken stage"


def test_invalid_derived_amount_in_both_formats(tmp_path, capsys):
    path = write_problem(
        tmp_path, "Ruth had 3 apples. Ruth gave 5 apples to Tom. "
                  "How many apples does Ruth have now?")
    assert cli.main(["solve", path]) == 4
    assert capsys.readouterr().out.strip() == \
        "Invalid amount derived: 3 = ? + 5 gives -2"
    assert cli.main(["solve", path, "--format", "json"]) == 4
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert (problem["verdict"], problem["equation"], problem["value"]) == \
        ("invalid", "3 = ? + 5", -2)


def test_data_conflict_in_both_formats(tmp_path, capsys):
    path = write_problem(
        tmp_path, "Ruth had 3 apples. Ruth had 4 apples. "
                  "How many apples does Ruth have now?")
    message = "conflicting amounts for Ruth / apple (initial): 3 vs 4"
    assert cli.main(["solve", path]) == 4
    assert capsys.readouterr().out.strip() == \
        f"Contradiction in the problem data: {message}"
    assert cli.main(["solve", path, "--format", "json"]) == 4
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem == {"source": f"{path}#1",
                       "error": {"type": "DataConflict", "message": message}}


VERDICT_PROBLEMS = [
    by_id("candy-gifts").text,
    "Tom got 2 apples. How many apples does Tom have now?",
    by_id("candies-conflict").text,
    "Ruth had 3 apples. Ruth gave 5 apples to Tom. How many apples does Ruth have now?",
]


@pytest.mark.parametrize("strategy,lines", [
    ("cautious", ["Answer: 14",
                  "Insufficient data: could not determine the question",
                  "Contradiction in the problem data: 10 = 9 + 3 "
                  "(9 + 3 = 12, but 10 is required)",
                  "Invalid amount derived: 3 = ? + 5 gives -2"]),
    ("total", ["Answer: 14",
               "Insufficient data: could not determine X",
               "Contradiction in the problem data: 10 = 9 + 3 "
               "(9 + 3 = 12, but 10 is required)",
               "Invalid amount derived: 3 = ? + 5 gives -2"]),
])
def test_a_verdict_reports_the_fields_of_its_class(tmp_path, capsys, strategy, lines):
    """Each JSON problem ends with `verdict` and then its verdict class's
    fields in `__slots__` order; each text report ends with its verdict line."""
    from schemarith import solver

    path = write_problem(tmp_path, "\n\n".join(VERDICT_PROBLEMS))
    assert cli.main(["solve", path, "--format", "json", "--strategy", strategy]) == 3
    problems = json.loads(capsys.readouterr().out)["problems"]
    assert [p["verdict"] for p in problems] == \
        ["solved", "insufficient", "contradiction", "invalid"]
    for problem in problems:
        fields = getattr(solver, problem["verdict"].title()).__slots__
        assert list(problem)[-1 - len(fields):] == ["verdict", *fields]
        assert list(problem)[-2 - len(fields)] == "timing_ms"
    assert cli.main(["solve", path, "--strategy", strategy]) == 3
    reports = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert [report.split("\n")[-1] for report in reports] == lines


def test_solve_builds_only_the_report_form_asked_for(tmp_path, capsys, monkeypatch):
    calls = {"result_to_dict": 0, "render_text_report": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, name, counted)
    path = write_problem(
        tmp_path, by_id("basket-apples").text + "\n\n" + by_id("candy-gifts").text)
    assert cli.main(["solve", path, "--format", "json"]) == 0
    assert calls == {"result_to_dict": 2, "render_text_report": 0}
    assert cli.main(["solve", path, "--trace"]) == 0
    assert calls == {"result_to_dict": 2, "render_text_report": 2}
    capsys.readouterr()


@pytest.mark.parametrize("first, second", [
    ("1" + "0" * 4400, "2"),
    ("9" * 4300, "9" * 4300),
], ids=["4401-digits", "two-of-4300-digits"])
def test_a_numeral_past_the_digit_bound_is_not_understood(tmp_path, capsys, first,
                                                          second):
    path = write_problem(
        tmp_path, f"Ruth had {first} apples. Ruth got {second} apples. "
                  "How many apples does Ruth have now?")
    assert cli.main(["solve", path]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"Not understood: sentence 1: numeral of {len(first)} digits")
    assert "Internal error" not in out


def test_amounts_at_the_digit_bound_solve(tmp_path, capsys):
    amount = "9" * MAX_DIGITS
    path = write_problem(
        tmp_path, f"Ruth had {amount} apples. Ruth got {amount} apples. "
                  "How many apples does Ruth have now?")
    total = 2 * int(amount)
    assert cli.main(["solve", path, "--trace"]) == 0
    assert capsys.readouterr().out.endswith(f"⇒ ? = {total}\n\nAnswer: {total}\n")
    assert cli.main(["solve", path, "--format", "json"]) == 0
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["answer"] == total


def test_json_report_shape(tmp_path, capsys):
    path = write_problem(tmp_path, by_id("candy-gifts").text)
    cli.main(["solve", path, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    [problem] = report["problems"]
    assert problem["verdict"] == "solved"
    assert problem["answer"] == 14
    assert problem["propositions"]["pre_split"][0] == "David gave 3 candies to Ruth"
    assert report["format_version"] == 2
    assert problem["lsi"][0] == {
        "kind": "More", "slots": [["left", "?"], ["right", "X"], ["by", 4]],
        "equation": "? = X + 4"}
    assert [entry["equation"] for entry in problem["lsi"]] == ["? = X + 4", "X = 7 + 3"]
    assert "rendered" not in problem["lsi"][0] and "equations" not in problem
    assert "timing_ms" in problem


def _stripped_json(capsys):
    report = json.loads(capsys.readouterr().out)
    for problem in report["problems"]:
        problem.pop("timing_ms", None)
    return json.dumps(report, sort_keys=True)


def test_json_determinism(tmp_path, capsys):
    path = write_problem(tmp_path, by_id("eggs-places").text)
    cli.main(["solve", path, "--format", "json"])
    first = _stripped_json(capsys)
    cli.main(["solve", path, "--format", "json"])
    second = _stripped_json(capsys)
    assert first == second


def test_exit_code_is_function_of_verdict(tmp_path):
    codes = {}
    for problem in CORPUS:
        path = write_problem(tmp_path, problem.text, f"{problem.id}.txt")
        codes[problem.id] = cli.main(["solve", path])
    for problem in CORPUS:
        expected = 0 if problem.expected_verdict == "solved" else 4
        assert codes[problem.id] == expected


def test_corpus_command_all_match(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "all expectations met" in out
    assert out.count("ok") >= len(CORPUS)


def test_corpus_total_strategy_reports_deltas(capsys):
    assert cli.main(["corpus", "--strategy", "total"]) == 0
    out = capsys.readouterr().out
    assert "lsi 2 -> 5 (+3)" in out  # the two-gift problem


def test_corpus_json(capsys):
    assert cli.main(["corpus", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["total"] == len(CORPUS)
    assert report["summary"]["matches"] == len(CORPUS)


def test_timing_is_reported_to_the_microsecond(tmp_path, capsys):
    """docs/report-schema.md: `timing_ms` is rounded to 3 decimals, in a
    problem report and in a corpus row."""
    path = write_problem(tmp_path, "\n\n".join(p.text for p in CORPUS))
    cli.main(["solve", path, "--format", "json"])
    timings = [p["timing_ms"] for p in json.loads(capsys.readouterr().out)["problems"]]
    assert cli.main(["corpus", "--format", "json"]) == 0
    timings += [p["timing_ms"] for p in json.loads(capsys.readouterr().out)["problems"]]
    assert len(timings) == 2 * len(CORPUS)
    assert all(round(t, 3) == t for t in timings), timings


def test_perturbed_golden_answer_detected(capsys, monkeypatch):
    perturbed = list(CORPUS)
    first = perturbed[0]
    perturbed[0] = CorpusProblem(first.id, first.text, first.expected_verdict, 99,
                                 first.pronoun_free)
    monkeypatch.setattr(corpus, "CORPUS", tuple(perturbed))   # cmd_corpus reads it there
    assert cli.main(["corpus"]) != 0
    assert "MISMATCH" in capsys.readouterr().out


def test_run_corpus_library_interface():
    rows, all_match = cli.run_corpus(CORPUS, LEX, Strategy.CAUTIOUS)
    assert all_match
    assert len(rows) == len(CORPUS)


def test_corpus_problem_that_does_not_parse_is_an_error_row(capsys, monkeypatch):
    broken = CorpusProblem("broken", "Gibberish withoutmeaning here.", "solved", 1,
                           True)
    rows, all_match = cli.run_corpus([broken], LEX, Strategy.CAUTIOUS)
    assert not all_match
    assert rows == [{"id": "broken", "expected_verdict": "solved",
                     "expected_answer": 1, "verdict": "error", "answer": None,
                     "match": False, "error": rows[0]["error"]}]
    assert rows[0]["error"].startswith("sentence 1:")
    monkeypatch.setattr(corpus, "CORPUS", (broken,))
    assert cli.main(["corpus"]) == 1
    out = capsys.readouterr().out
    assert "expected 1              got error          MISMATCH" in out
    assert "1 problems; verdicts: error=1" in out
    assert cli.main(["corpus", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["problems"] == rows
    assert report["summary"] == {"total": 1, "verdicts": {"error": 1}, "matches": 0}


def test_total_corpus_run_solves_each_problem_once(monkeypatch):
    run_problem = cli.run_problem
    calls = []

    def counted(*args):
        calls.append(args)
        return run_problem(*args)

    monkeypatch.setattr(cli, "run_problem", counted)
    rows, all_match = cli.run_corpus(CORPUS, LEX, Strategy.TOTAL)
    assert all_match
    assert len(calls) == len(CORPUS) == 12
    for row, problem in zip(rows, CORPUS):
        cautious = run_problem(problem.text, LEX, Strategy.CAUTIOUS)
        assert row["cautious_lsi_size"] == len(cautious.lsi)


def test_lexicon_flag_and_env(tmp_path, monkeypatch, capsys):
    from schemarith.lexicon import DEFAULT_LEXICON

    custom = tmp_path / "lex.tsv"
    custom.write_text(DEFAULT_LEXICON + "noun\tkites\tkite\n", encoding="utf-8")
    problem = write_problem(
        tmp_path, "Tom had 3 kites. Tom got 2 kites. "
                  "How many kites does Tom have now?")
    monkeypatch.setenv("SCHEMARITH_LEXICON", "/nonexistent/lex.tsv")
    assert cli.main(["solve", problem, "--lexicon", str(custom)]) == 0
    assert "Answer: 5" in capsys.readouterr().out


def test_no_environment_variable_names_a_lexicon(monkeypatch, capsys):
    monkeypatch.setenv("SCHEMARITH_LEXICON", "/nonexistent/lex.tsv")
    assert cli.main(["corpus"]) == 0
    assert capsys.readouterr().err == ""


# --- The argument reader, against the argparse parser it replaced ---

def reference_parser():
    """The argparse parser that read the command line before `cli.read_args`."""
    parser = argparse.ArgumentParser(
        prog="schemarith",
        description="Understand and solve controlled-English arithmetic "
                    "word problems with extraneous information.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve problems from text files")
    solve.add_argument("inputs", nargs="+", metavar="FILE",
                       help="UTF-8 text; blank lines separate problems")
    corpus = sub.add_parser("corpus", help="run the bundled evaluation corpus")
    for p in (solve, corpus):
        p.add_argument("--strategy", choices=["cautious", "total"],
                       default="cautious",
                       help="change-schema recording strategy (default: cautious)")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--lexicon", metavar="PATH", default=None,
                       help="lexicon file overriding the embedded tables")
    solve.add_argument("--trace", action="store_true",
                       help="show the representation and the solver's steps")
    return parser


def reference_reading(argv):
    """(command, FILEs, strategy, format, lexicon, trace), or the exit code."""
    try:
        args = reference_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return (args.command, getattr(args, "inputs", []), args.strategy, args.format,
            args.lexicon, getattr(args, "trace", False))


def reader_reading(argv):
    try:
        return cli.read_args(argv)
    except SystemExit as exc:
        return exc.code


#: Command lines that the reader reads as argparse did.  Exit codes and
#: fields are compared, not argparse's messages, which differ by version.
SAME_READING = [
    ["solve", "a"],
    ["solve", "a", "b", "--trace"],
    ["solve", "a", "--strategy", "total", "--format", "json", "--lexicon", "lex.tsv"],
    ["solve", "--format=json", "--strategy=total", "--lexicon=lex.tsv", "a"],
    ["solve", "a", "--form", "json"],
    ["solve", "a", "--t"],
    ["solve", "--s=total", "--f", "text", "--l", "x", "--tr", "a", "b"],
    ["solve", "a", "--format", "text", "--format", "json"],
    ["solve", "--", "--trace"],
    ["solve", "--trace", "--", "-a", "b"],
    ["solve", "a", "--", "b"],
    ["solve", "-", "-1", "--lexicon", "-"],
    ["solve", "solve"],
    ["corpus"],
    ["corpus", "--strategy", "total", "--format", "json"],
    ["corpus", "--lexicon=lex.tsv", "--str", "total"],
    # help, at the top and after a command
    ["-h"], ["--help"], ["--he"], ["solve", "-h"], ["solve", "a", "--h"],
    ["corpus", "--help"], ["-h", "bogus"],
    # misuse
    [], ["solve"], ["bogus"], ["solve", "a", "--format"], ["solve", "a", "--format", "xml"],
    ["corpus", "x"], ["corpus", "--trace"], ["corpus", "--t"], ["corpus", "--"],
    ["solve", "a", "--trace=1"], ["solve", "a", "--help=1"], ["solve", "a", "--bogus"],
    ["solve", "a", "-x"], ["solve", "a", "--format", "--trace"], ["solve", "a", "--lexicon"],
    ["solve", "a", "--strategy=bogus"], ["--trace", "solve", "a"], ["solve", "--"],
    ["solve", "--bogus", "a", "--format", "xml", "-h"],
]


@pytest.mark.parametrize("argv", SAME_READING, ids=lambda argv: " ".join(argv) or "none")
def test_the_reader_reads_a_command_line_as_argparse_did(capsys, argv):
    assert reader_reading(argv) == reference_reading(argv)


# --- The str readers, against the regexes they replaced ---

#: The values argparse took, as the reader once matched them.
REFERENCE_VALUE = re.compile(r"[^-]|-?$|-\d+$|-\d*\.\d+$|-.* ").match


def reference_blocks(text):
    blocks = [b.strip() for b in re.split(r"\n\s*\n", text)]
    return [b for b in blocks if b]


def strings(alphabet, longest):
    for n in range(longest + 1):
        yield from map("".join, itertools.product(alphabet, repeat=n))


@pytest.mark.parametrize("arg, value", [
    ("-\n", True), ("-5\n", True), ("-5\n\n", False), ("-.5", True), ("-5.", False),
    ("- x", True), ("-x\n y", False), ("-\u0663", True), ("-\u00b2", False), ("", True),
])
def test_the_value_reader_reads_an_argument_as_its_regex(arg, value):
    assert cli._is_value(arg) is value
    assert bool(REFERENCE_VALUE(arg)) is value


def test_the_value_reader_agrees_with_its_regex_on_every_short_argument():
    # "\u0663" is an Arabic-Indic digit, decimal like "0"; "\u00b2" is a
    # digit but not a decimal one
    alphabet = "-. \n\t\r07\u0660\u0663\u00b2aZ"
    assert len(alphabet) == 13
    differ = [arg for arg in strings(alphabet, 5)
              if cli._is_value(arg) is not bool(REFERENCE_VALUE(arg))]
    assert differ == []


@pytest.mark.parametrize("text, blocks", [
    ("a\n \t\nb", ["a", "b"]), ("a\r\n\r\nb", ["a", "b"]), ("a\nb", ["a\nb"]),
    (" a \n\n\n b \n", ["a", "b"]), ("a\r\rb", ["a\r\rb"]), ("\n \n", []),
])
def test_the_block_reader_splits_a_file_as_its_regex(text, blocks):
    assert cli._blocks(text) == reference_blocks(text) == blocks


def test_the_block_reader_agrees_with_its_regex_on_every_short_text():
    # every whitespace kind that is not "\n": "\x0b", "\x1c" and "\x85"
    # are whitespace to str and to re alike, as is the no-break space
    alphabet = "\n \t\r\x0b\x1c\x85\xa0a"
    differ = [text for text in strings(alphabet, 5)
              if cli._blocks(text) != reference_blocks(text)]
    assert differ == []


@pytest.mark.parametrize("argv, files", [
    (["solve", "a", "--trace", "b"], ["a", "b"]),
    (["solve", "--format", "json", "a", "--t", "b", "c"], ["a", "b", "c"]),
], ids=["after-a-flag", "after-two-options"])
def test_files_may_follow_options(capsys, argv, files):
    # argparse took FILEs in one run only; the reader takes them anywhere.
    assert reference_reading(argv) == 2
    reading = reader_reading(argv)
    assert reading[1] == files
    assert reading == reference_reading([arg for arg in argv if arg not in files] + files)


def test_a_misuse_stops_before_a_later_help(capsys):
    # argparse read the whole line first and printed the help; the reader
    # stops at the first wrong argument.
    argv = ["solve", "a", "--bogus", "-h"]
    assert (reader_reading(argv), reference_reading(argv)) == (2, 0)


@pytest.mark.parametrize("argv", [["solve", "-h"], ["--help"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: schemarith solve") and "Exit codes:" in out


@pytest.mark.parametrize("argv, reason", [
    ([], "the following arguments are required: command"),
    (["solve", "a", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from text, json)"),
    (["corpus", "x", "--bogus"], "unrecognized arguments: x"),
])
def test_a_misuse_prints_the_usage_and_exits_2(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: schemarith solve")
    assert err.endswith(f"\nschemarith: error: {reason}\n")


@pytest.mark.parametrize("verb", ["carries", "carried"])
def test_a_custom_consonant_y_verb_solves_in_both_tenses(tmp_path, capsys, verb):
    from schemarith.lexicon import DEFAULT_LEXICON

    custom = tmp_path / "lex.tsv"
    custom.write_text(DEFAULT_LEXICON + "verb\tcarry\telementary:in:place\n",
                      encoding="utf-8")
    problem = write_problem(
        tmp_path, f"There were 3 apples in the basket. Tom {verb} 2 apples into "
                  "the basket. How many apples are there in the basket now?")
    assert cli.main(["solve", problem, "--lexicon", str(custom), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "Tom carried 2 apples into the basket" in out
    assert out.endswith("Answer: 5\n")


@pytest.mark.parametrize("problem, lexicon", [
    pytest.param(b"\xff\xfeRuth had 3 apples.", None, id="problem-not-utf8"),
    pytest.param(None, b"x\tbad\n", id="lexicon-malformed"),
    pytest.param(None, b"\xff\xfeverb\n", id="lexicon-not-utf8"),
])
def test_unreadable_input_is_an_io_error(tmp_path, capsys, problem, lexicon):
    path = tmp_path / "problem.txt"
    path.write_bytes(problem or by_id("basket-apples").text.encode())
    argv = ["solve", str(path)]
    if lexicon is not None:
        lexicon_path = tmp_path / "lexicon.tsv"
        lexicon_path.write_bytes(lexicon)
        argv += ["--lexicon", str(lexicon_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "Ruth had 3 apples. How many apples did Ruth have in the beginning?",
    "How many apples did Ruth have in the beginning? Ruth had 3 apples.",
    "There were 4 apples in the box. "
    "How many apples were there in the box in the beginning?",
])
def test_question_about_a_stated_amount_is_not_understood(tmp_path, capsys, text):
    path = write_problem(tmp_path, text)
    assert cli.main(["solve", path, "--format", "json"]) == 2
    [problem] = json.loads(capsys.readouterr().out)["problems"]
    assert problem["error"] == {
        "type": "ParseError",
        "message": "sentence 2: the question asks for an amount the text states"}


# --- The JSON writer and the writing of stdout ---

ERROR_TEXTS = (
    "Ruth had 3 apples. Gibberish withoutmeaning here. "
    "How many apples does Ruth have now?",
    "Ruth had 3 apples.",
    "Ruth had 3 apples. They bought 2 apples. How many apples does Ruth have now?",
)


@pytest.mark.parametrize("argv", [
    ["solve", "{path}", "--format", "json"],
    ["corpus", "--format", "json"],
    ["corpus", "--format", "json", "--strategy", "total"],
], ids=["solve", "corpus-cautious", "corpus-total"])
def test_json_stdout_is_the_stdlib_compact_dump(tmp_path, capsys, argv):
    path = write_problem(
        tmp_path, "\n\n".join([p.text for p in CORPUS] + list(ERROR_TEXTS)))
    cli.main([arg.format(path=path) for arg in argv])
    out = capsys.readouterr().out
    report = json.loads(out)
    if argv[0] == "solve":
        assert len(report["problems"]) == len(CORPUS) + len(ERROR_TEXTS)
        assert sum("error" in p for p in report["problems"]) == len(ERROR_TEXTS)
    assert out == json.dumps(report, ensure_ascii=False, separators=(",", ":")) + "\n"


def test_json_stdout_skips_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    # The stdlib encodes with `indent` through the pure-Python
    # `_make_iterencode`; the report writer must not reach it.
    calls = []
    make_iterencode = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        calls.append(args)
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    path = write_problem(tmp_path, by_id("candy-gifts").text)
    assert cli.main(["solve", path, "--format", "json"]) == 0
    assert cli.main(["corpus", "--format", "json"]) == 0
    assert capsys.readouterr().out.count('"format_version":2') == 2
    assert calls == []


def _writer_calls(tmp_path, capsys, monkeypatch, text):
    """Python and C calls made inside `_write_stdout` while it writes the
    `solve --format json` report of `text`."""
    events = []
    write_stdout = cli._write_stdout

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            events.append(event)

    def counted(output):
        sys.setprofile(profile)
        try:
            return write_stdout(output)
        finally:
            sys.setprofile(None)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_write_stdout", counted)
        assert cli.main(["solve", write_problem(tmp_path, text), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["problems"][0]["verdict"] == "solved"
    return len(events)


def test_the_json_writer_makes_a_fixed_number_of_calls(tmp_path, capsys, monkeypatch):
    # The C encoder writes the whole report, so the writer's work does not
    # grow with the problem.
    short = _writer_calls(tmp_path, capsys, monkeypatch, chain_text(20))
    long = _writer_calls(tmp_path, capsys, monkeypatch, chain_text(200))
    assert short == long <= 20


def run_cli(args, **env):
    """A `schemarith` process, with its stdout and stderr as pipes."""
    return subprocess.Popen(
        [sys.executable, "-m", "schemarith.cli", *args],
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)


@pytest.mark.parametrize("args", [
    ["solve", "{path}", "--format", "json"],
    ["solve", "{path}", "--trace"],
], ids=["json", "text"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, args):
    # 300 problems give a report far larger than a pipe's buffer, so the
    # process is still writing when the reader goes away.
    path = write_problem(tmp_path, "\n\n".join([by_id("basket-apples").text] * 300))
    proc = run_cli([arg.format(path=path) for arg in args])
    assert proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("fmt, name, encoding", [
    ("json", "prøblem ⇒.txt", "ascii"),
    ("text", "prøblem ⇒.txt", "ascii"),
    ("json", b"pr\xffblem.txt", "utf-8"),
    ("text", b"pr\xffblem.txt", "utf-8"),
], ids=["json", "text", "json-undecodable-name", "text-undecodable-name"])
def test_ascii_stdout_escapes_what_it_cannot_encode(tmp_path, capsys, fmt, name,
                                                    encoding):
    try:
        path = write_problem(
            tmp_path, by_id("basket-apples").text + "\n\n" + by_id("candy-gifts").text,
            name=os.fsdecode(name))
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses the name")
    args = ["solve", path] + (["--format", "json"] if fmt == "json" else ["--trace"])
    proc = run_cli(args, PYTHONIOENCODING=encoding)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")
    assert cli.main(args) == 0
    expected = capsys.readouterr().out
    decoded = out.decode(encoding)
    shown = "pr\\xffblem.txt" if isinstance(name, bytes) else name
    if fmt == "json":
        if encoding == "ascii":
            assert "\\u21d2" in decoded
        got, want = json.loads(decoded), json.loads(expected)
        assert got["problems"][1]["source"] == f"{tmp_path / shown}#2"
        for report in (got, want):
            for problem in report["problems"]:
                del problem["timing_ms"]
        assert got == want
    elif encoding == "ascii":
        assert "\\u21d2" in decoded and "\\xf8" in decoded
        assert decoded.encode().decode("unicode_escape") == expected
    else:
        assert f"== {tmp_path / shown}#2" in decoded
        assert decoded == expected
