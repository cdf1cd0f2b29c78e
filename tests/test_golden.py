"""Reports of fixed problems, compared byte for byte with a stored copy.

`tests/data/golden_reports.json` holds, for each problem and strategy,
the JSON report (`result_to_dict` without `timing_ms`) and the `--trace`
text, one list item per line.  The problems are the corpus and five
more that reach the creation and termination kinds, which the corpus
does not.  `tests/data/golden_corpus.json` holds the report of
`schemarith corpus --format json` under each strategy, without the
per-problem `timing_ms`.  After an intended change of output, rewrite
both files with `PYTHONPATH=src python tests/test_golden.py` and review
their diff.
"""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from schemarith.cli import main
from schemarith.corpus import CORPUS
from schemarith.lexicon import load_default_lexicon
from schemarith.pipeline import render_text_report, result_to_dict, run_problem
from schemarith.schema_engine import Strategy

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.json"

EXTRA = {
    "terminate-ownership":
        "Tom had 5 apples. Tom ate 2 apples. How many apples does Tom have now?",
    "create-ownership":
        "Tom had 5 cakes. Tom made 2 cakes. How many cakes does Tom have now?",
    "create-place":
        "There were 5 cakes in the kitchen. Tom made 2 cakes in the kitchen. "
        "How many cakes are there in the kitchen now?",
    "terminate-place":
        "There were 5 birds in the garden. 2 birds died in the garden. "
        "How many birds are there in the garden now?",
    "extraneous-create-terminate":
        "Tom made 2 cakes. Tom had 5 apples. Tom ate 1 apple. There are 4 "
        "birds in the garden. 2 birds died in the garden. How many apples "
        "does Tom have now?",
}

PROBLEMS = {**{p.id: p.text for p in CORPUS}, **EXTRA}

LEX = load_default_lexicon()


def dump(data):
    return json.dumps(data, indent=1, ensure_ascii=False)


def reports(text, strategy):
    result = run_problem(text, LEX, strategy)
    report = result_to_dict(result)
    del report["timing_ms"]
    return {"report": report,
            "trace": render_text_report(result, trace=True).split("\n")}


def current():
    return {pid: {s.value: reports(text, s) for s in Strategy}
            for pid, text in PROBLEMS.items()}


def corpus_report(strategy):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["corpus", "--format", "json",
                     "--strategy", strategy.value]) == 0
    report = json.loads(out.getvalue())
    for row in report["problems"]:
        del row["timing_ms"]
    return report


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_problem(golden):
    assert list(golden) == list(PROBLEMS)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("pid", list(PROBLEMS))
def test_report_matches_golden(golden, pid, strategy):
    got = dump(reports(PROBLEMS[pid], strategy)).split("\n")
    assert got == dump(golden[pid][strategy.value]).split("\n")


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_corpus_report_matches_golden(strategy):
    golden = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8"))
    got = dump(corpus_report(strategy)).split("\n")
    assert got == dump(golden[strategy.value]).split("\n")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(current()) + "\n", encoding="utf-8")
    GOLDEN_CORPUS.write_text(
        dump({s.value: corpus_report(s) for s in Strategy}) + "\n", encoding="utf-8")
