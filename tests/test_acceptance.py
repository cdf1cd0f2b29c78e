"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Expected answers marked by the enumeration oracle were fixed
before the implementation; the oracle re-derives them here.
"""
import random
import re
import time

from oracle import (
    _holds,
    enumerate_solutions,
    equation_sets_equal,
    equations_subset,
)

from schemarith.corpus import CORPUS, by_id
from schemarith.lexicon import load_default_lexicon
from schemarith.parser import parse_problem, render_proposition, tokenize
from schemarith.parser import parse_clause
from schemarith.pipeline import run_problem
from schemarith.schema_engine import Strategy
from schemarith.solver import Contradiction, Solved

LEX = load_default_lexicon()


def ok(criterion):
    print(f"PASS  {criterion}")


def timed(problem_id, strategy=Strategy.CAUTIOUS):
    start = time.perf_counter()
    result = run_problem(by_id(problem_id).text, LEX, strategy)
    return result, time.perf_counter() - start


def test_criterion_single_place_change_problem():
    """Basket problem: 4 propositions, one instantiation, answer 6, < 1 s."""
    result, elapsed = timed("basket-apples")
    assert len(parse_problem(by_id("basket-apples").text, LEX)) == 4
    assert [si.render() for si in result.lsi] == [
        "Transfer-In-Place (initially 4, in 2, finally ?)"]
    assert result.verdict == Solved(6)
    assert elapsed < 1.0
    ok("basket problem: 4 propositions, one cautious instantiation, answer 6")


def test_criterion_two_gift_compare_problem():
    """Two-gift problem: representation table, splitting, 2 instantiations, 14."""
    result, elapsed = timed("candy-gifts")
    propositions, split = result.store.render_propositions()
    assert propositions == [
        "David gave 3 candies to Ruth",
        "John gave 2 candies to David",
        "David has ? candies",
        "Ruth had 7 candies",
        "Ruth has X candies",
    ]
    assert result.lsi[0].render() == "More (?, than X, by 4)"
    assert split[:4] == [
        "David forfeited 3 candies",
        "Ruth got 3 candies",
        "John forfeited 2 candies",
        "David got 2 candies",
    ]
    assert len(result.lsi) == 2
    assert result.verdict == Solved(14)
    # the oracle agrees and the solution is unique: X = 10, ? = 14
    [solution] = enumerate_solutions(result.lsi, bound=50)
    assert solution == {"?": 14, "X": 10}
    assert elapsed < 1.0
    ok("two-gift problem: representation matches, 2 instantiations, answer 14")


def test_criterion_multistep_corpus():
    """The six multi-step problems: 6, 7, 14, 5, 4, contradiction; < 1 s total."""
    expected = {
        "apples-altogether": 6,
        "boys-in-room": 7,
        "tickets-bought": 14,
        "nuts-chain": 5,
        "eggs-places": 4,
    }
    total = 0.0
    for problem_id, answer in expected.items():
        result, elapsed = timed(problem_id)
        total += elapsed
        assert result.verdict == Solved(answer), problem_id
    result, elapsed = timed("candies-conflict")
    total += elapsed
    assert isinstance(result.verdict, Contradiction)
    assert total < 1.0
    ok("multi-step corpus: answers 6/7/14/5/4 and one detected contradiction")


def _sentences(text):
    return [s.strip() for s in re.findall(r"[^.?!]+[.?!]", text)]


def test_criterion_robustness():
    """Transpositions and irrelevant data leave solutions untouched."""
    extraneous = [
        "Alice had 9 pencils.",
        "There were 8 stones in the garden.",
        "Bob has 6 marbles.",
    ]
    rng = random.Random(4242)
    for problem in CORPUS:
        if not problem.pronoun_free:
            continue
        base = run_problem(problem.text, LEX)
        parts = _sentences(problem.text)
        for _ in range(20):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            result = run_problem(" ".join(shuffled), LEX)
            assert (result.verdict_name, result.answer) \
                == (base.verdict_name, base.answer), problem.id
            assert equation_sets_equal(result.lsi, base.lsi), problem.id
        padded = parts[:]
        for extra in extraneous:
            padded.insert(rng.randrange(len(padded) + 1), extra)
        result = run_problem(" ".join(padded), LEX)
        assert (result.verdict_name, result.answer) \
            == (base.verdict_name, base.answer), problem.id
    ok("robustness: 20 transpositions and 3 inserted irrelevant states per problem")


def test_criterion_strategy_contrast():
    """Total records >= 3 extra change instantiations; cautious is a subset."""
    cautious = run_problem(by_id("candy-gifts").text, LEX, Strategy.CAUTIOUS)
    total = run_problem(by_id("candy-gifts").text, LEX, Strategy.TOTAL)

    def change_count(result):
        return sum(1 for si in result.lsi if si.kind not in ("More", "Less", "Combine"))

    assert change_count(total) - change_count(cautious) >= 3
    assert equations_subset(cautious.lsi, total.lsi)
    for problem in CORPUS:
        a = run_problem(problem.text, LEX, Strategy.CAUTIOUS)
        b = run_problem(problem.text, LEX, Strategy.TOTAL)
        if isinstance(a.verdict, Solved) and isinstance(b.verdict, Solved):
            assert a.answer == b.answer, problem.id
    ok("strategy contrast: total adds >= 3 change instantiations, answers agree")


def test_criterion_solver_properties():
    """Oracle equivalence, shuffle confluence, every equation holds after a solve."""
    from schemarith.solver import propagate

    rng = random.Random(77)
    for problem in CORPUS:
        result = run_problem(problem.text, LEX)
        solutions = enumerate_solutions(result.lsi, bound=50)
        if problem.expected_verdict == "contradiction":
            assert solutions == []
            assert isinstance(result.verdict, Contradiction)
        else:
            assert len(solutions) == 1
            assert solutions[0]["?"] == result.answer == problem.expected_answer
        for _ in range(50):
            shuffled = list(result.lsi)
            rng.shuffle(shuffled)
            rerun = propagate(shuffled)
            assert rerun.verdict == result.verdict
        if isinstance(result.verdict, Solved):
            assignment = {**result.solve.binding, "?": result.answer}
            assert all(_holds(si, assignment) for si in result.lsi)
    ok("solver: oracle equivalence, 50-shuffle confluence, every equation holds after a solve")


def test_criterion_parser_properties():
    """Corpus-wide render/re-parse round trip; verb table categories hold."""
    for problem in CORPUS:
        for prop in parse_problem(problem.text, LEX):
            rendered = render_proposition(prop, LEX)
            latest = {}
            reparsed = []
            for index, sentence in enumerate(tokenize(rendered, LEX)):
                for clause in sentence.clauses:
                    reparsed.extend(parse_clause(clause, LEX, latest, index))
            assert reparsed == [prop], rendered
    # every tabled change verb classifies to its printed category
    from schemarith.lexicon import ChangeKind, Compound, Direction, LocusKind

    categories = {
        (Direction.IN, LocusKind.OWNERSHIP): ["receive", "get"],
        (Direction.OUT, LocusKind.OWNERSHIP): ["lose", "forfeit", "send"],
        (Direction.IN, LocusKind.PLACE): ["fetch", "bring", "put in", "lay",
                                          "enter", "fall into", "add"],
        (Direction.OUT, LocusKind.PLACE): ["take out", "take away", "exit",
                                           "go away", "drag out", "fall from"],
        (Direction.CREATE, None): ["build", "be born", "create", "make"],
        (Direction.TERMINATE, None): ["eat", "destroy", "die", "kill"],
    }
    for (direction, locus), lemmas in categories.items():
        for lemma in lemmas:
            cls = LEX.verbs[lemma]
            assert isinstance(cls, ChangeKind), lemma
            assert cls.direction is direction, lemma
            if locus is not None:
                assert cls.locus_kind is locus, lemma
    for lemma in ("buy", "give", "pay", "sell", "donate", "steal"):
        cls = LEX.verbs[lemma]
        assert isinstance(cls, Compound) and len(cls.components) == 2, lemma
    ok("parser: corpus round trip and change-verb table categories")
