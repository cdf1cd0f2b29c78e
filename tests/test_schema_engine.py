import pytest

from oracle import equations_subset
from test_discourse import owner, place, states

from schemarith.corpus import CORPUS, by_id
from schemarith.discourse import ElementaryEvent, build_store, build_timelines
from schemarith.lexicon import (
    ChangeKind,
    Direction,
    LocusKind,
    DEFAULT_LEXICON,
    load_default_lexicon,
    load_lexicon_text,
)
from schemarith.parser import (
    CombineProp,
    CompareProp,
    Entity,
    EntityKind,
    StateKey,
    parse_problem,
)
from schemarith.pipeline import run_problem
from schemarith.quantity import QUESTION, TimePoint
from schemarith.schema_engine import (
    Strategy,
    UnresolvableCombine,
    build_lsi,
    change_instantiation,
    initial_lsi,
    instantiate_combine,
    instantiate_compare,
)

LEX = load_default_lexicon()


def proper(name):
    return Entity(name, EntityKind.PROPER)


def cls(name):
    return Entity(name, EntityKind.CLASS)


def understood(problem_id, strategy=Strategy.CAUTIOUS):
    return run_problem(by_id(problem_id).text, LEX, strategy)


def store_for(problem_id):
    return build_store(parse_problem(by_id(problem_id).text, LEX), LEX)


def cautious_lsi(store):
    """(lsi, skipped, timelines) of a store, in the pipeline's order."""
    first = initial_lsi(store)
    timelines = build_timelines(store)
    lsi, skipped = build_lsi(store, timelines, Strategy.CAUTIOUS, first)
    return lsi, skipped, timelines


def slot_values(inst):
    return tuple(q for _, q in inst.slots)


# -- change schemas ----------------------------------------------------------


def test_eight_distinct_schema_names_one_per_kind():
    assert [kind.schema for kind in ChangeKind] == [
        "Transfer-In-Ownership", "Transfer-In-Place",
        "Transfer-Out-Ownership", "Transfer-Out-Place",
        "Creation (ownership)", "Creation (place)",
        "Termination (ownership)", "Termination (place)"]


# What 5 becomes after a change of 2 of each kind: in and create add to
# the locus's amount, out and terminate take from it.
AFTER_A_CHANGE_OF_2_FROM_5 = {
    ChangeKind.IN_OWNERSHIP: 7, ChangeKind.IN_PLACE: 7,
    ChangeKind.OUT_OWNERSHIP: 3, ChangeKind.OUT_PLACE: 3,
    ChangeKind.CREATE_OWNERSHIP: 7, ChangeKind.CREATE_PLACE: 7,
    ChangeKind.TERMINATE_OWNERSHIP: 3, ChangeKind.TERMINATE_PLACE: 3,
}


@pytest.mark.parametrize("kind", list(ChangeKind), ids=lambda k: k.name)
def test_a_change_entry_carries_the_equation_of_its_kind(kind):
    locus = (owner(proper("Tom")) if kind.locus_kind is LocusKind.OWNERSHIP
             else place(cls("basket")))
    event = ElementaryEvent(kind, locus, "apple", 2)
    after = AFTER_A_CHANGE_OF_2_FROM_5[kind]
    inst = change_instantiation(event, 5, after)
    assert inst.slots == (("initially", 5), (kind.direction.slot, 2), ("finally", after))
    assert inst.a + inst.b == inst.c
    wrong = change_instantiation(event, 5, 10 - after)   # the other direction's end
    assert wrong.a + wrong.b != wrong.c
    # the roles hold unknown ends too, whichever way the change goes
    unknown = change_instantiation(event, "X", QUESTION)
    assert unknown.slots == (("initially", "X"), (kind.direction.slot, 2),
                             ("finally", QUESTION))


@pytest.mark.parametrize("text, slots", [
    ("Tom had 5 apples. Tom had 3 apples more than Ann. "
     "How many apples did Ann have in the beginning?",
     [(("left", 5), ("right", QUESTION), ("by", 3))]),
    ("Ann had 5 apples. Tom had 3 apples less than Ann. "
     "How many apples did Tom have in the beginning?",
     [(("left", QUESTION), ("right", 5), ("by", 3))]),
    ("Tom had 2 apples. Ann had 3 apples. Tom and Ann and Dan had 9 apples "
     "altogether. How many apples did Dan have in the beginning?",
     [(("part", 2), ("part", 3), ("altogether", "X")),
      (("part", "X"), ("part", QUESTION), ("altogether", 9))]),
], ids=["more", "less", "combine"])
def test_a_relation_entry_reads_its_roles_from_the_table(text, slots):
    """left is the compared owner's amount, right the other's and by the
    difference; a combine of three parts chains through a partial sum."""
    assert [inst.slots for inst in run_problem(text, LEX).lsi] == slots


# -- comparisons -----------------------------------------------------------------


def test_compare_instantiation_matches_question_and_introduces_unknown():
    store = store_for("candy-gifts")
    [comp] = [r for r in store.relations if isinstance(r, CompareProp)]
    inst = instantiate_compare(comp, store)
    assert inst.render() == "More (?, than X, by 4)"
    introduced = StateKey(owner(proper("Ruth")), "candy", TimePoint.FINAL)
    assert states(store)[introduced] == "X"


def test_place_compare_introduces_two_unknowns():
    store = store_for("eggs-places")
    first = [r for r in store.relations if isinstance(r, CompareProp)][0]
    inst = instantiate_compare(first, store)
    assert inst.render() == "More (X, than X1, by 4)"
    assert states(store)[StateKey(place(cls("refrigerator")), "egg",
                                  TimePoint.INITIAL)] == "X"
    assert states(store)[StateKey(place(cls("box")), "egg",
                                  TimePoint.INITIAL)] == "X1"


def test_zero_difference_compare():
    comp = CompareProp(
        StateKey(owner(proper("Tom")), "apple", TimePoint.FINAL),
        StateKey(owner(proper("Dan")), "apple", TimePoint.FINAL),
        0, "more")
    store = store_for("basket-apples")
    inst = instantiate_compare(comp, store)
    assert inst.b == 0  # left = right + 0


# -- combines --------------------------------------------------------------------


def test_statement_combine_instantiation():
    store = store_for("apples-altogether")
    [comb] = store.relations
    [inst] = instantiate_combine(comb, store)
    # Ruth's initial amount is the question itself; only Tom needs an unknown
    assert inst.render() == "Combine (X, plus ?, altogether 8)"


def test_event_combine_uses_deltas_not_cardinalities():
    store = store_for("tickets-bought")
    [comb] = store.relations
    [inst] = instantiate_combine(comb, store)
    assert inst.render() == "Combine (6, plus 8, altogether ?)"
    values = [q for _, q in inst.slots if q.__class__ is int]
    assert 5 not in values and 7 not in values


def test_group_combine_over_owners():
    store = store_for("dolls-combine")
    [comb] = store.relations
    [inst] = instantiate_combine(comb, store)
    assert inst.render() == "Combine (3, plus 4, altogether ?)"


def test_unresolvable_combine():
    store = store_for("dolls-combine")
    [comb] = store.relations
    lonely = CombineProp("ticket", comb.total, comb.time, comb.parts, comb.group,
                         comb.verb, comb.sentence)  # nobody holds tickets
    with pytest.raises(UnresolvableCombine):
        instantiate_combine(lonely, store)


def test_an_event_combine_over_a_class_with_no_members_is_refused():
    records = DEFAULT_LEXICON.splitlines(keepends=True)
    lexicon = load_lexicon_text("".join(
        record for record in records if not record.startswith("superset\t")))
    with pytest.raises(UnresolvableCombine) as refused:
        run_problem(by_id("tickets-bought").text, lexicon)
    assert str(refused.value) == (
        "cannot resolve combine statement: 'child' has no configured member classes")


# -- change schemas along timelines -------------------------------------------------


def test_match_fully_bound_change():
    lsi, skipped, _ = cautious_lsi(store_for("basket-apples"))
    [inst] = lsi
    assert skipped == []
    assert slot_values(inst) == (4, 2, QUESTION)


def test_match_with_missing_initial_line():
    lsi, skipped, timelines = cautious_lsi(store_for("candy-gifts"))
    david = owner(proper("David"))
    # David's changes, in 2 from John and out 3 to Ruth, are not recorded
    changes = {(si.kind, slot_values(si)[1]) for si in lsi}
    assert ("Transfer-In-Ownership", 2) not in changes
    assert ("Transfer-Out-Ownership", 3) not in changes
    [gated] = [sk for sk in skipped if sk.locus == david]
    # "David has ? candies" exists; no initial amount anywhere
    assert gated.missing == ("initial",)
    timeline = next(t for t in timelines if t.locus == david)
    forfeit = next(e for e in timeline.events if e.kind.direction is Direction.OUT)
    assert forfeit.delta == 3   # the change amount is always bound


def test_match_ruth_side_fully_bound():
    lsi, _, _ = cautious_lsi(store_for("candy-gifts"))
    [inst] = [si for si in lsi if si.kind == "Transfer-In-Ownership"]   # Ruth's
    assert slot_values(inst) == (7, 3, "X")


def test_delta_always_bound_across_corpus():
    for problem in CORPUS:
        result = run_problem(problem.text, LEX)
        for si in result.lsi:
            for role, q in si.slots:
                assert q is not None


# -- the LSI and the strategy gate ----------------------------------------------------


def test_cautious_lsi_for_candy_gifts():
    result = understood("candy-gifts")
    assert [si.render() for si in result.lsi] == [
        "More (?, than X, by 4)",
        "Transfer-In-Ownership (initially 7, in 3, finally X)",
    ]


def test_total_strategy_adds_unknowns():
    cautious = understood("candy-gifts")
    total = understood("candy-gifts", Strategy.TOTAL)
    assert len(total.lsi) == 5
    assert len(cautious.lsi) == 2
    changes = [si for si in total.lsi if si.kind.startswith("Transfer")]
    cautious_changes = [si for si in cautious.lsi if si.kind.startswith("Transfer")]
    assert len(changes) - len(cautious_changes) >= 3


def test_basket_timeline_gated_in_eggs_problem():
    result = understood("eggs-places")
    basket = place(cls("basket"))
    # the basket's changes, out 5 and out 6, are not recorded
    assert not any(si.kind == "Transfer-Out-Place"
                   and slot_values(si)[1] in (5, 6) for si in result.lsi)
    [skipped] = result.skipped
    assert any(skipped is timeline for timeline in result.timelines)
    assert skipped.locus == basket
    assert skipped.missing == ("initial",)
    # the two transfers judged extraneous keep their events and sentences
    assert [e.sentence for e in skipped.events] == [1, 2]


def test_cautious_subset_of_total_across_corpus():
    for problem in CORPUS:
        cautious = run_problem(problem.text, LEX, Strategy.CAUTIOUS)
        total = run_problem(problem.text, LEX, Strategy.TOTAL)
        assert equations_subset(cautious.lsi, total.lsi), problem.id


def test_one_event_fidelity():
    result = understood("basket-apples")
    assert [si.render() for si in result.lsi] == [
        "Transfer-In-Place (initially 4, in 2, finally ?)"]


def test_equations_normalize_to_sum_form():
    for problem in CORPUS:
        result = run_problem(problem.text, LEX)
        for si in result.lsi:
            assert all(q.__class__ in (int, str) or q is QUESTION
                       for q in (si.a, si.b, si.c))
        assert len(result.solve.equations) == len(result.lsi)
        for text in result.solve.equations:
            assert " = " in text and " + " in text
