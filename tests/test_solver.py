import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import (
    _holds,
    enumerate_solutions,
    enumerate_solutions_naive,
    propagate_sweep,
    unknown_names,
)
from test_golden import PROBLEMS

from schemarith.corpus import CORPUS
from schemarith.lexicon import load_default_lexicon
from schemarith.pipeline import run_problem
from schemarith.schema_engine import SchemaInstantiation, Strategy
from schemarith.quantity import QUESTION
from schemarith.solver import (
    Contradiction,
    Insufficient,
    Invalid,
    MalformedLSI,
    Solved,
    propagate,
)

LEX = load_default_lexicon()


def entry(a, b, c):
    """The LSI entry of c = a + b, as a combine of a and b."""
    return SchemaInstantiation(
        "Combine", (("part", a), ("part", b), ("altogether", c)), a, b, c)


def lsi_of(*equations):
    """The LSI of equations given as (a, b, c) for c = a + b."""
    return [entry(*eq) for eq in equations]


def test_single_step_solution():
    result = propagate(lsi_of((4, 2, QUESTION)))
    assert result.verdict == Solved(6)
    assert result.trace == ["? = 4 + 2 ⇒ ? = 6"]


def test_two_step_solution():
    result = propagate(lsi_of(
        ("X", 4, QUESTION),   # ? = X + 4
        (7, 3, "X"),   # X = 7 + 3
    ))
    assert result.verdict == Solved(14)
    assert result.binding == {"X": 10}


def test_contradiction_on_fully_known_equation():
    result = propagate(lsi_of(
        (QUESTION, 4, "X"),
        (9, 3, 10),  # 9 + 3 is not 10
        (7, 2, "X"),
    ))
    assert isinstance(result.verdict, Contradiction)
    assert result.verdict.equation == "10 = 9 + 3"


def test_negative_derivation_is_invalid():
    result = propagate(lsi_of((QUESTION, 5, 2)))
    assert isinstance(result.verdict, Invalid)
    assert result.verdict.value == -3


def test_empty_lsi_is_insufficient():
    result = propagate([])
    assert isinstance(result.verdict, Insufficient)


def test_unconstrained_unknowns_reported():
    result = propagate(lsi_of(("A", "B", QUESTION)))
    assert isinstance(result.verdict, Insufficient)
    assert set(result.verdict.unresolved) == {"A", "B"}


def test_an_lsi_without_the_question_is_insufficient():
    result = propagate(lsi_of((1, 2, "X")))
    assert result.verdict == Insufficient(())
    assert result.binding == {"X": 3}


def test_an_unknown_named_question_mark_is_its_own_slot():
    lsi = lsi_of(
        (1, 2, "?"),   # the unknown "?" = 1 + 2
        ("?", 4, QUESTION),   # the question = "?" + 4
    )
    result = propagate(lsi)
    assert result.verdict == Solved(7)
    assert result.binding == {"?": 3}
    assert result.trace == ["? = 1 + 2 ⇒ ? = 3", "? = ? + 4 with ? = 3 ⇒ ? = 7"]
    assert_same_run(lsi)


def test_solved_even_with_free_side_unknowns():
    # extraneous unknowns may stay free once the question is bound
    result = propagate(lsi_of(
        (4, 2, QUESTION),
        ("J", 2, "K"),
    ))
    assert result.verdict == Solved(6)


@pytest.mark.parametrize("slot", [None, -1, True, 2.0], ids=repr)
def test_propagate_raises_on_a_slot_that_is_not_a_quantity(slot):
    # a stated amount is an int, never negative; a bool or a float is none
    with pytest.raises(MalformedLSI):
        propagate(lsi_of((1, slot, "X")))


def test_a_str_slot_is_the_unknown_of_that_name():
    result = propagate(lsi_of((2, "Y", 5)))   # 5 = 2 + Y
    assert result.verdict == Insufficient(())
    assert result.binding == {"Y": 3}


@pytest.mark.parametrize("equation,value", [
    (("Y", 2, 5), 3),   # 5 = Y + 2
    ((2, 3, "Y"), 5),   # Y = 2 + 3
], ids=["a", "c"])
def test_an_unknown_is_solved_in_the_a_and_the_c_slot(equation, value):
    # the b slot is test_a_str_slot_is_the_unknown_of_that_name's case
    result = propagate(lsi_of(equation))
    assert result.binding == {"Y": value}


# -- corpus-level properties -----------------------------------------------------


@pytest.mark.parametrize("problem", CORPUS, ids=lambda p: p.id)
def test_oracle_equivalence(problem):
    """Exhaustive 0..50 enumeration agrees with propagation on every problem."""
    result = run_problem(problem.text, LEX)
    solutions = enumerate_solutions(result.lsi, bound=50)
    if problem.expected_verdict == "contradiction":
        assert solutions == []
        assert isinstance(result.verdict, Contradiction)
    else:
        assert len(solutions) == 1
        assert solutions[0]["?"] == problem.expected_answer == result.answer


@pytest.mark.parametrize(
    "problem",
    [p for p in CORPUS
     if len(unknown_names(run_problem(p.text, LEX).lsi)) <= 3],
    ids=lambda p: p.id)
def test_pruned_oracle_agrees_with_naive_scan(problem):
    lsi = run_problem(problem.text, LEX).lsi
    assert enumerate_solutions(lsi, bound=50) == enumerate_solutions_naive(lsi, bound=50)


@pytest.mark.parametrize("problem", CORPUS, ids=lambda p: p.id)
def test_confluence_under_shuffling(problem):
    base = run_problem(problem.text, LEX)
    rng = random.Random(23)
    for _ in range(50):
        shuffled = list(base.lsi)
        rng.shuffle(shuffled)
        result = propagate(shuffled)
        assert result.verdict == base.verdict


# Cautious is the default strategy, so its runs take the bare problem id.
@pytest.mark.parametrize("pid, strategy", [
    pytest.param(pid, strategy,
                 id=pid if strategy is Strategy.CAUTIOUS else f"{pid}-total")
    for strategy in Strategy for pid in PROBLEMS])
def test_verify_after_solved(pid, strategy):
    """A solved run's binding and answer violate no equation of its LSI.
    Under the total strategy an extraneous unknown may stay free, so an
    equation may stay undecided; under the cautious one every equation holds."""
    result = run_problem(PROBLEMS[pid], LEX, strategy)
    if isinstance(result.verdict, Solved):
        assignment = {**result.solve.binding, "?": result.answer}
        holds = [_holds(si, assignment) for si in result.lsi]
        assert False not in holds
        if strategy is Strategy.CAUTIOUS:
            assert all(holds)


@pytest.mark.parametrize("problem", CORPUS, ids=lambda p: p.id)
def test_trace_never_rebinds(problem):
    result = run_problem(problem.text, LEX)
    targets = [line.split("⇒")[1].split("=")[0].strip()
               for line in result.solve.trace]
    assert len(targets) == len(set(targets))


# -- randomized chains --------------------------------------------------------------


@st.composite
def chains(draw):
    start = draw(st.integers(min_value=0, max_value=30))
    steps = draw(st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=10)),
        min_size=1, max_size=5))
    values = [start]
    deltas = []
    for add, magnitude in steps:
        magnitude = magnitude if add else min(magnitude, values[-1])
        values.append(values[-1] + magnitude if add else values[-1] - magnitude)
        deltas.append((add, magnitude))
    return start, deltas, values


@given(chains(), st.randoms(use_true_random=False))
def test_chain_propagation_matches_arithmetic(chain, rng):
    start, deltas, values = chain
    equations = []
    slots = [start] + [f"V{i}" for i in range(len(deltas) - 1)] + [QUESTION]
    for i, (add, magnitude) in enumerate(deltas):
        before, after = slots[i], slots[i + 1]
        if add:
            equations.append((before, magnitude, after))
        else:
            equations.append((after, magnitude, before))
    order = list(equations)
    rng.shuffle(order)
    result = propagate(lsi_of(*order))
    assert result.verdict == Solved(values[-1])


# -- worklist against the reference sweep ----------------------------------------


# A small pool, so that slots repeat within and across equations; small
# amounts, so that fully known equations are often violated and derived
# amounts are often negative.
slots = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.sampled_from(["A", "B", "C", "D"]),
    st.just(QUESTION),
)
systems = st.lists(st.builds(entry, slots, slots, slots), max_size=8)


def assert_same_run(lsi):
    result = propagate(lsi)
    reference = propagate_sweep(lsi)
    assert result.verdict == reference.verdict
    assert result.binding == reference.binding
    assert result.trace == reference.trace
    assert result.equations == reference.equations
    assert result.visits <= reference.visits


@given(systems)
def test_worklist_matches_sweep(lsi):
    assert_same_run(lsi)


@pytest.mark.parametrize("problem", CORPUS, ids=lambda p: p.id)
def test_worklist_matches_sweep_on_shuffled_corpus(problem):
    base = run_problem(problem.text, LEX)
    rng = random.Random(29)
    for _ in range(20):
        shuffled = list(base.lsi)
        rng.shuffle(shuffled)
        assert_same_run(shuffled)


# -- linearity gate ---------------------------------------------------------------


def backward_chain(k):
    """A k-change chain asking the initial amount: one unknown per change."""
    text = " ".join(["Dan got 1 nut."] * k)
    return run_problem(
        f"{text} Dan has {k + 5} nuts now. "
        "How many nuts did Dan have in the beginning?", LEX)


def test_visits_grow_linearly_on_backward_chain():
    small, large = backward_chain(100), backward_chain(1000)
    assert small.answer == large.answer == 5
    assert large.solve.visits <= 12 * small.solve.visits


def test_linearity_gate_rejects_the_sweep():
    """The gate's size ratio at a fifth of its sizes: the sweep is quadratic."""
    small, large = backward_chain(20), backward_chain(200)
    visits = [propagate_sweep(r.lsi).visits for r in (small, large)]
    assert visits[1] > 12 * visits[0]


@pytest.mark.parametrize("k", [20, 200])
def test_propagate_makes_a_bounded_number_of_python_calls(k):
    """Numbering, rendering and propagating read every slot and equation
    inline, so a run makes at most 5 Python-level calls whatever the
    chain's size: propagate itself, its result and its verdict."""
    chain = backward_chain(k)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        result = propagate(chain.lsi)
    finally:
        sys.setprofile(None)
    assert result.verdict == Solved(5)
    assert len(result.trace) == k
    assert calls <= 5, calls
