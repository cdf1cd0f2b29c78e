"""Reports of fixed problems, compared byte for byte with a stored copy.

`tests/data/golden_reports.json` holds, for each problem and strategy,
the JSON report (`result_to_dict` without `timing_ms`) and the `--trace`
text, one list item per line.  The problems are the corpus, five more
that reach the creation and termination kinds, which the corpus does
not, and a forward and a backward chain of 12 changes beside an
extraneous holder, which pin the numbering of intermediate unknowns and
the order of a multi-pass trace.  `tests/data/golden_corpus.json` holds the report of
`schemarith corpus --format json` under each strategy, without the
per-problem `timing_ms`.  `tests/data/golden_errors.json` holds seeded
word-level mutants of the corpus problems with the outcome of each: its
exit code, and the error's type and message or the verdict and answer.
After an intended change of output, rewrite the three files with
`PYTHONPATH=src python tests/test_golden.py` and review their diff.
"""
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from schemarith.cli import _run_text, main
from schemarith.corpus import CORPUS
from schemarith.lexicon import DEFAULT_LEXICON, load_default_lexicon, load_lexicon_text
from schemarith.parser import tokenize
from schemarith.pipeline import render_text_report, result_to_dict, run_problem
from schemarith.schema_engine import Strategy

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus.json"
GOLDEN_ERRORS = Path(__file__).parent / "data" / "golden_errors.json"

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
    "chain-forward":
        "Ruth had 10 apples. Ruth got 3 apples and Ruth lost 2 apples. Ruth gave "
        "4 apples to Tom and Mary gave Ruth 5 apples. Ruth got 1 apple. Ruth lost "
        "6 apples and Ruth gave 2 apples to Dan. Ann gave Ruth 7 apples and Ruth "
        "got 2 apples and Ruth lost 3 apples. David had 6 nuts. Ruth gave 1 apple "
        "to Tom and Fred gave Ruth 4 apples. How many apples does Ruth have now?",
    "chain-backward":
        "Sara lost 2 candies and Sara got 5 candies. John gave Sara 3 candies. "
        "Sara gave 4 candies to Eve and Sara got 1 candy. Sara lost 3 candies. "
        "Adam gave Sara 6 candies and Sara gave 2 candies to Eve and Sara lost 1 "
        "candy. Sara got 4 candies. Bob had 8 marbles. Sara gave 5 candies to John "
        "and Clara gave Sara 2 candies. Now Sara has 11 candies. How many candies "
        "did Sara have in the beginning?",
}

PROBLEMS = {**{p.id: p.text for p in CORPUS}, **EXTRA}

LEX = load_default_lexicon()


def dump(data):
    return json.dumps(data, indent=1, ensure_ascii=False)


def reports(text, strategy, lex=LEX):
    result = run_problem(text, lex, strategy)
    report = result_to_dict(result)
    del report["timing_ms"]
    return {"report": report,
            "trace": render_text_report(result, trace=True).split("\n")}


def current(lex=LEX):
    return {pid: {s.value: reports(text, s, lex) for s in Strategy}
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


# Words a mutation draws: grammar words, a few words outside the lexicon
# (one of them a regular verb form), and, at generation, every surface of
# the default lexicon's tables.
GRAMMAR_WORDS = ("a", "altogether", "an", "and", "beginning", "by", "from",
                 "how", "if", "in", "into", "less", "many", "more", "now", "of",
                 "onto", "out", "than", "the", "there", "to")
UNKNOWN_WORDS = ("zz", "cakes", "remained", "quickly", "Zorro", "12", "then",
                 "next", "after", "this", "that", "it", "is", "known")
MUTANTS = 1500


def vocabulary():
    words = set(GRAMMAR_WORDS) | set(UNKNOWN_WORDS)
    for table in (LEX.verbs, LEX.verb_forms, LEX.number_words, LEX.noun_forms,
                  LEX.pronouns, LEX.names):
        for surface in table:
            words.update(surface.split())
    return sorted(words)


def mutate(words, rng, vocab):
    """One substitution, deletion, duplication or adjacent swap of a word."""
    slots = [i for i, w in enumerate(words) if w[0].isalnum()]
    i = rng.choice(slots)
    op = rng.choice(("substitute", "delete", "duplicate", "swap"))
    if op == "substitute":
        word = rng.choice(vocab)
        words[i] = word.title() if rng.random() < 0.2 else word
    elif op == "delete":
        del words[i]
    elif op == "duplicate":
        words.insert(i, words[i])
    else:
        j = min(i + 1, len(words) - 1)
        words[i], words[j] = words[j], words[i]


def mutants(seed=6):
    """Texts of MUTANTS mutants of the corpus problems, one or two edits each."""
    rng = random.Random(seed)
    vocab = vocabulary()
    texts = []
    for n in range(MUTANTS):
        words = re.findall(r"[A-Za-z0-9'-]+|[^\sA-Za-z0-9'-]", CORPUS[n % len(CORPUS)].text)
        for _ in range(rng.choice((1, 1, 2))):
            mutate(words, rng, vocab)
        texts.append(" ".join(words))
    return texts


def outcome(text):
    code, data = _run_text(text, LEX, format="json")
    if "error" in data:
        return {"text": text, "exit": code,
                "error": [data["error"]["type"], data["error"]["message"]]}
    return {"text": text, "exit": code, "verdict": data["verdict"],
            "answer": data.get("answer")}


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


@pytest.mark.parametrize("seed", ["0", "4242"])
def test_reports_do_not_depend_on_the_hash_seed(seed):
    # unknowns are str keys, and the per-process seed sets their hashes
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = "import test_golden as g; print(g.dump(g.current()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, encoding="utf-8", check=True, timeout=120)
    assert out.stdout.split("\n") == GOLDEN.read_text(encoding="utf-8").split("\n")


def test_mutant_outcomes_match_golden():
    golden = json.loads(GOLDEN_ERRORS.read_text(encoding="utf-8"))
    assert len(golden) == MUTANTS
    assert [outcome(row["text"]) for row in golden] == golden


#: Threads that read through one lexicon at once: more than the cores of a
#: CI runner, so their derivations of one surface overlap.
THREADS = 5


def test_threads_filling_one_table_report_as_one_thread_does():
    """Threads that read the golden problems and the mutants through one
    fresh lexicon at once get a sequential run's reports, and every token
    of a tabled surface, in every thread, is the one Word its table holds."""
    expected = current(load_lexicon_text(DEFAULT_LEXICON))
    shared = load_lexicon_text(DEFAULT_LEXICON)
    texts = list(PROBLEMS.values()) + mutants()
    barrier = threading.Barrier(THREADS, timeout=60)
    got, seen = [None] * THREADS, [[] for _ in range(THREADS)]

    def run(i):
        try:
            barrier.wait()
            for text in texts:
                for sentence in tokenize(text, shared):
                    for words, start, end, _, _ in sentence.clauses:
                        seen[i].extend(words[start:end])
            got[i] = current(shared)
        except Exception as exc:   # raised again in the main thread
            got[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads often, so derivations overlap
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for result in got:
        if isinstance(result, Exception):
            raise result
        assert result == expected
    words = {}   # tabled surface -> the ids of its Words in every thread
    for word in (word for tokens in seen for word in tokens):
        if word.text in shared.tabled and word.surface in (word.text,
                                                           word.text.capitalize()):
            words.setdefault(word.surface, set()).add(id(word))
    assert len(words) > 100
    for surface, ids in words.items():
        assert ids == {id(shared.words[surface])}, surface


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(current()) + "\n", encoding="utf-8")
    GOLDEN_CORPUS.write_text(
        dump({s.value: corpus_report(s) for s in Strategy}) + "\n", encoding="utf-8")
    rows = (json.dumps(outcome(text), ensure_ascii=False) for text in mutants())
    GOLDEN_ERRORS.write_text("[\n" + ",\n".join(rows) + "\n]\n", encoding="utf-8")

