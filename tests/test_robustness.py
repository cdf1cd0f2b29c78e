"""Stability of answers under sentence transposition and irrelevant data.

Transposing a problem's sentences or adding states about entities the
problem never relates to the question must not change the answer; under
transposition the recorded equations must also agree up to renaming of
the unknowns.
"""
import random
import re

import pytest

from oracle import equation_sets_equal, render_equation

from schemarith.corpus import CORPUS
from schemarith.lexicon import load_default_lexicon
from schemarith.pipeline import run_problem

LEX = load_default_lexicon()

PRONOUN_FREE = [p for p in CORPUS if p.pronoun_free]

# Fresh owners, places and object classes; none occur in any corpus problem.
EXTRANEOUS = [
    "Alice had 9 pencils.",
    "There were 8 stones in the garden.",
    "Bob has 6 marbles.",
]


def sentences_of(text):
    return [s.strip() for s in re.findall(r"[^.?!]+[.?!]", text)]


def outcome(result):
    return (result.verdict_name, result.answer)


@pytest.mark.parametrize("problem", PRONOUN_FREE, ids=lambda p: p.id)
def test_sentence_transposition_preserves_solution(problem):
    base = run_problem(problem.text, LEX)
    parts = sentences_of(problem.text)
    rng = random.Random(42)
    for _ in range(20):
        shuffled = parts[:]
        rng.shuffle(shuffled)
        result = run_problem(" ".join(shuffled), LEX)
        assert outcome(result) == outcome(base)
        assert equation_sets_equal(result.lsi, base.lsi), \
            (problem.id, [render_equation(si) for si in result.lsi],
             [render_equation(si) for si in base.lsi])


@pytest.mark.parametrize("problem", PRONOUN_FREE, ids=lambda p: p.id)
def test_extraneous_states_do_not_change_answers(problem):
    base = run_problem(problem.text, LEX)
    parts = sentences_of(problem.text)
    rng = random.Random(7)
    for _ in range(5):
        padded = parts[:]
        for extra in EXTRANEOUS:
            padded.insert(rng.randrange(len(padded) + 1), extra)
        result = run_problem(" ".join(padded), LEX)
        assert outcome(result) == outcome(base), problem.id


@pytest.mark.parametrize("problem", PRONOUN_FREE, ids=lambda p: p.id)
def test_transposition_plus_extraneous_states(problem):
    base = run_problem(problem.text, LEX)
    rng = random.Random(99)
    for _ in range(5):
        padded = sentences_of(problem.text)
        rng.shuffle(padded)
        for extra in EXTRANEOUS:
            padded.insert(rng.randrange(len(padded) + 1), extra)
        result = run_problem(" ".join(padded), LEX)
        assert outcome(result) == outcome(base), problem.id
