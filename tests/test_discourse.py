import pytest

from test_golden import PROBLEMS
from test_parser import chain_text

from schemarith.corpus import CORPUS, by_id
from schemarith.discourse import (
    DataConflict,
    ElementaryEvent,
    MissingParticipant,
    build_store,
    build_timelines,
    render_elementary,
)
from schemarith.lexicon import (
    ChangeKind,
    Direction,
    LocusKind,
    Role,
    load_default_lexicon,
)
from schemarith.parser import (
    Entity,
    EntityKind,
    EventProp,
    Locus,
    ParseError,
    StateKey,
    StateProp,
    parse_problem,
    render_event,
    render_proposition,
)
from schemarith.pipeline import run_problem
from schemarith.quantity import QUESTION, TimePoint
from schemarith.schema_engine import Strategy, initial_lsi

LEX = load_default_lexicon()

IN_OWN = ChangeKind.IN_OWNERSHIP
OUT_OWN = ChangeKind.OUT_OWNERSHIP
IN_PLACE = ChangeKind.IN_PLACE
OUT_PLACE = ChangeKind.OUT_PLACE


def proper(name):
    return Entity(name, EntityKind.PROPER)


def cls(name, cardinality=None):
    return Entity(name, EntityKind.CLASS, cardinality=cardinality)


def owner(entity):
    return Locus(LocusKind.OWNERSHIP, entity)


def place(entity):
    return Locus(LocusKind.PLACE, entity)


def states(store):
    """{StateKey: amount} of the store's states, read from its text-order log."""
    return {head: tail for head, tail in store.entries if head.__class__ is StateKey}


def store_for(problem_id):
    problem = by_id(problem_id)
    return build_store(parse_problem(problem.text, LEX), LEX)


# -- splitting ------------------------------------------------------------


def test_every_role_names_an_event_field():
    # a compound component finds its participant by the Role's value
    assert {role.value for role in Role} <= set(EventProp.__slots__)


def test_split_give():
    event = EventProp("give", "candy", 3,
                      agent=proper("David"), recipient=proper("Ruth"))
    out = build_store([event], LEX).events
    assert [(e.kind, e.locus) for e in out] == [
        (OUT_OWN, owner(proper("David"))),
        (IN_OWN, owner(proper("Ruth"))),
    ]
    assert [render_elementary(e, LEX) for e in out] == [
        "David forfeited 3 candies",
        "Ruth got 3 candies",
    ]


def test_split_transfer():
    event = EventProp("transfer", "egg", 5, agent=proper("Sara"),
                      source=cls("basket"), destination=cls("refrigerator"))
    out = build_store([event], LEX).events
    assert [(e.kind, e.locus) for e in out] == [
        (OUT_PLACE, place(cls("basket"))),
        (IN_PLACE, place(cls("refrigerator"))),
    ]


def test_split_buy_drops_unnamed_seller():
    event = EventProp("buy", "ticket", 6, agent=cls("girl", 5))
    out = build_store([event], LEX).events
    assert len(out) == 1
    assert out[0].kind == IN_OWN
    assert out[0].locus == owner(cls("girl"))  # cardinality not in the locus


def test_split_elementary_is_single():
    event = EventProp("put", "apple", 2, agent=proper("Ruth"),
                      destination=cls("basket"))
    out = build_store([event], LEX).events
    assert len(out) == 1
    assert out[0].kind == IN_PLACE


def test_split_conservation():
    # every emitted event shares the surface event's amount and object
    for problem_id in ("candy-gifts", "eggs-places", "tickets-bought"):
        store = store_for(problem_id)
        for surface in store.raw_events:
            parts = build_store([surface], LEX).events
            assert parts
            for part in parts:
                assert part.delta == surface.amount
                assert part.obj == surface.obj


@pytest.mark.parametrize("sentence, verb", [
    ("Tom put 2 apples from the box.", "put"),
    ("Tom took out 2 apples into the basket.", "take out"),
])
def test_a_transfer_of_place_happens_only_at_its_own_end(sentence, verb):
    """GRAMMAR.md, "Creation and termination verbs": an `in` verb changes
    its destination and an `out` verb its source, never the other place a
    creation or termination verb would take."""
    with pytest.raises(MissingParticipant) as info:
        run_problem(f"{sentence} How many apples does Tom have now?", LEX)
    assert str(info.value) == f"event verb {verb!r} has no place to locate the change at"


def test_give_always_emits_out_and_in():
    event = EventProp("give", "nut", 2,
                      agent=proper("Dan"), recipient=proper("David"))
    directions = [e.kind.direction for e in build_store([event], LEX).events]
    assert directions == [Direction.OUT, Direction.IN]


# -- rendering an elementary event ---------------------------------------------


# An ownership change reads "<owner> <owner_verb> <n> <objects>", a change of
# place "<n> <objects> were <passive> <place_prep> the <place>".
RENDERED = [
    (ElementaryEvent(IN_OWN, owner(proper("Ruth")), "candy", 3),
     "Ruth got 3 candies"),
    (ElementaryEvent(OUT_OWN, owner(proper("David")), "candy", 3),
     "David forfeited 3 candies"),
    (ElementaryEvent(ChangeKind.CREATE_OWNERSHIP, owner(proper("Tom")), "toy",
                     2),
     "Tom created 2 toys"),
    (ElementaryEvent(ChangeKind.TERMINATE_OWNERSHIP, owner(proper("Tom")), "egg",
                     1),
     "Tom terminated 1 egg"),
    (ElementaryEvent(IN_PLACE, place(cls("basket")), "apple", 2),
     "2 apples were transferred into the basket"),
    (ElementaryEvent(OUT_PLACE, place(cls("box")), "egg", 3),
     "3 eggs were transferred out of the box"),
    (ElementaryEvent(ChangeKind.CREATE_PLACE, place(cls("village")), "house",
                     4),
     "4 houses were created in the village"),
    (ElementaryEvent(ChangeKind.TERMINATE_PLACE, place(cls("box")), "egg", 0),
     "0 eggs were terminated in the box"),
]


@pytest.mark.parametrize("event,expected", RENDERED)
def test_render_elementary(event, expected):
    assert render_elementary(event, LEX) == expected


def test_render_elementary_rows_cover_every_change_kind():
    assert {event.kind for event, _ in RENDERED} == set(ChangeKind)


# -- store ------------------------------------------------------------------------


def test_lookup_or_introduce_creates_then_reuses():
    store = store_for("candy-gifts")
    key = StateKey(owner(proper("Ruth")), "candy", TimePoint.FINAL)
    assert key not in states(store)
    got = store.lookup_or_introduce(key)
    assert got == "X"
    assert states(store)[key] == "X"
    again = store.lookup_or_introduce(key)
    assert again == "X"
    assert states(store)[key] == "X"  # no second unknown


def test_fresh_vars_name_each_unknown_by_a_plain_str():
    store = store_for("candy-gifts")
    names = store.fresh_vars(1) + store.fresh_vars(0) + store.fresh_vars(3)
    assert names == ["X", "X1", "X2", "X3"]
    assert all(name.__class__ is str for name in names)


def test_lookup_finds_existing_known():
    store = store_for("basket-apples")
    key = StateKey(place(cls("basket")), "apple", TimePoint.INITIAL)
    assert store.lookup_or_introduce(key) == 4
    assert states(store)[key] == 4


def test_lookup_never_unifies_across_times():
    store = store_for("basket-apples")
    basket = place(cls("basket"))
    initial = store.lookup_or_introduce(StateKey(basket, "apple", TimePoint.INITIAL))
    final = store.lookup_or_introduce(StateKey(basket, "apple", TimePoint.FINAL))
    assert initial == 4
    assert final == QUESTION
    assert states(store)[StateKey(basket, "apple", TimePoint.FINAL)] == QUESTION


def test_conflicting_restatement_raises():
    props = [
        StateProp(StateKey(owner(proper("Ruth")), "apple",
                           TimePoint.INITIAL), 3),
        StateProp(StateKey(owner(proper("Ruth")), "apple",
                           TimePoint.INITIAL), 5),
    ]
    with pytest.raises(DataConflict):
        build_store(props, LEX)


def test_identical_restatement_is_deduplicated():
    prop = StateProp(StateKey(owner(proper("Ruth")), "apple",
                              TimePoint.INITIAL), 3, 0)
    store = build_store([prop, StateProp(prop.key, 3, 1)], LEX)
    assert store.entries == [(prop.key, 3)]


def test_a_question_at_a_stated_amount_raises():
    ruth = StateKey(owner(proper("Ruth")), "apple", TimePoint.INITIAL)
    stated, asked = StateProp(ruth, 3, 0), StateProp(ruth, QUESTION, 1)
    for props in ([stated, asked], [asked, stated]):
        with pytest.raises(ParseError, match="asks for an amount the text states"):
            build_store(props, LEX)
    # a question at the other time joins the same group
    later = StateKey(ruth.locus, "apple", TimePoint.FINAL)
    store = build_store([stated, StateProp(later, QUESTION, 1)], LEX)
    [(_, ends)] = store.groups.values()
    assert ends == {TimePoint.INITIAL: 3, TimePoint.FINAL: QUESTION}


@pytest.mark.parametrize("strategy", list(Strategy), ids=str)
@pytest.mark.parametrize("pid", list(PROBLEMS))
def test_each_state_entry_is_its_group_amount_at_its_time(pid, strategy):
    """The log the reports render and the groups hold one set of states."""
    store = run_problem(PROBLEMS[pid], LEX, strategy).store
    entries = [(head, tail) for head, tail in store.entries if head.__class__ is StateKey]
    assert len({key for key, _ in entries}) == len(entries)
    for key, amount in entries:
        assert store._group(key.locus, key.obj)[1][key.time] is amount
    assert sum(len(ends) for _, ends in store.groups.values()) == len(entries)


@pytest.mark.parametrize("pid", list(PROBLEMS))
def test_each_event_sits_in_the_group_of_its_locus_key(pid):
    """`add_event` keys a change's group from its kind and participant
    before it builds the Locus; that key is the one `Locus._key` gives, so
    the group the store finds for the event's locus holds the event."""
    store = build_store(parse_problem(PROBLEMS[pid], LEX), LEX)
    for event in store.events:
        assert any(e is event for e in store._group(event.locus, event.obj)[0])


def test_an_owner_and_a_place_of_one_entity_group_apart():
    """The store's groups are keyed by the locus's kind and fields: equal
    loci built apart share a group, an owner and a place never do."""
    initial, final = TimePoint.INITIAL, TimePoint.FINAL
    store = build_store([
        StateProp(StateKey(owner(cls("box")), "apple", initial), 3),
        StateProp(StateKey(place(cls("box")), "apple", initial), 4),
        StateProp(StateKey(owner(cls("box", 2)), "apple", final), 5),
    ], LEX)
    assert [ends for _, ends in store.groups.values()] == [
        {initial: 3, final: 5}, {initial: 4}]


def test_store_key_uniqueness():
    for problem_id in ("candy-gifts", "nuts-chain", "eggs-places"):
        store = store_for(problem_id)
        keys = [head for head, _ in store.entries if isinstance(head, StateKey)]
        assert keys
        assert len(keys) == len(set(keys))


# -- timelines -----------------------------------------------------------------------


def test_problem_one_timeline():
    store = store_for("basket-apples")
    [timeline] = build_timelines(store)
    assert timeline.locus == place(cls("basket"))
    assert timeline.obj == "apple"
    assert timeline.initial == 4
    assert timeline.final == QUESTION
    assert len(timeline.events) == 1
    assert timeline.intermediates == []


def test_chain_timeline_has_intermediate():
    store = store_for("nuts-chain")
    initial_lsi(store)  # the comparison introduces Dan's initial state
    timelines = build_timelines(store)
    dan = next(t for t in timelines
               if t.locus == owner(proper("Dan")))
    assert len(dan.events) == 2
    assert len(dan.intermediates) == 1
    assert dan.initial.__class__ is str
    assert dan.final == 4
    # additions come before removals in the canonical event order
    assert [e.kind.direction for e in dan.events] == [Direction.IN, Direction.OUT]


def test_unstated_endpoints_stay_empty():
    store = store_for("candy-gifts")
    timelines = build_timelines(store)
    john = next(t for t in timelines
                if t.locus == owner(proper("John")))
    assert john.initial is None and john.final is None


def test_timelines_follow_first_events_and_take_every_endpoint():
    # states come Ruth then Tom, events Tom then Ruth; Tom's final amount is
    # stated after his event, and the comparison introduces the two other
    # final amounts before the timelines are built
    text = ("Ruth had 3 apples. Tom had 2 nuts. Tom got 1 nut. Ruth got 2 apples. "
            "Dan got 1 apple. Now Tom has 3 nuts. Now Ruth has 2 apples more than "
            "Dan has. How many apples did Dan have in the beginning?")
    store = build_store(parse_problem(text, LEX), LEX)
    assert [key.locus.entity.name for key in states(store)][:2] == ["Ruth", "Tom"]
    initial_lsi(store)
    tom, ruth, dan = build_timelines(store)
    assert [(t.locus, t.obj) for t in (tom, ruth, dan)] == [
        (owner(proper("Tom")), "nut"), (owner(proper("Ruth")), "apple"),
        (owner(proper("Dan")), "apple")]
    assert (tom.initial, tom.final) == (2, 3)
    final = TimePoint.FINAL
    assert ruth.initial == 3
    assert ruth.final == states(store)[StateKey(ruth.locus, "apple", final)] == "X"
    assert dan.initial == QUESTION
    assert dan.final == states(store)[StateKey(dan.locus, "apple", final)] == "X1"
    assert run_problem(text, LEX).answer == 2


def test_timeline_partition():
    # every elementary event lies on exactly one timeline, and events with
    # equal sort keys keep their text order
    repeated = ("Tom had 3 apples. Tom got 2 apples. Tom lost 1 apple. "
                "Tom got 2 apples. How many apples does Tom have now?")
    stores = [store_for(problem_id)
              for problem_id in ("candy-gifts", "nuts-chain", "eggs-places")]
    stores.append(build_store(parse_problem(repeated, LEX), LEX))
    for store in stores:
        timelines = build_timelines(store)
        seen = set()
        for timeline in timelines:
            for event in timeline.events:
                assert id(event) not in seen
                seen.add(id(event))
                assert (event.locus, event.obj) == (timeline.locus, timeline.obj)
            for a, b in zip(timeline.events, timeline.events[1:]):
                if (a.kind, a.delta, a.verb) == (b.kind, b.delta, b.verb):
                    assert a.sentence < b.sentence
        assert seen == {id(event) for event in store.events}
    [tom] = timelines
    assert [e.sentence for e in tom.events] == [1, 3, 2]


def test_intermediate_count():
    for problem_id in ("candy-gifts", "nuts-chain", "eggs-places"):
        store = store_for(problem_id)
        for timeline in build_timelines(store):
            assert len(timeline.intermediates) == max(0, len(timeline.events) - 1)


def test_fresh_variable_hygiene():
    # no two distinct state keys ever share an unknown
    for problem in CORPUS:
        result = run_problem(problem.text, LEX)
        store = result.store
        var_names = [q for q in states(store).values() if q.__class__ is str]
        assert len(var_names) == len(set(var_names)), problem.id


def test_the_stated_list_renders_each_event_by_the_one_event_renderer():
    """The stated list prints each event as ``render_event`` renders it, and
    ``render_proposition``, which no report calls, adds only the stop."""
    events = 0
    for text in [*PROBLEMS.values(), chain_text(200)]:
        store = run_problem(text, LEX).store
        stated, _ = store.render_propositions()
        for (head, _), line in zip(store.entries, stated, strict=True):
            if head.__class__ is EventProp:
                events += 1
                assert line == render_event(head, LEX)
                assert render_proposition(head, LEX) == line + "."
    assert events == 247   # 47 in the corpus and the golden extras, 200 in the chain
