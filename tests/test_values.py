"""Value semantics of the package's record types.

Every frozen value type compares and hashes by its compared fields, is
unequal to instances of other classes, and prints as
``Name(field=value, ...)``.  Every enum member hashes by identity and
copies to itself, and every enum lists, looks up and prints its members
as the standard library's ``enum.Enum`` does.  Each frozen type lists its fields in constructor
order, every slot holds its constructor argument itself, and no field
can be added.  A frozen value is immutable by contract: its type keeps
``object``'s own attribute assignment and deletion, so that CPython can
specialise the one plain store per field in ``__init__``, and the static
gate of test_imports.py checks that the package assigns and deletes no
field outside that ``__init__``.  A caller outside the package must not
assign a field either: the hash of a key would change under it.  The
mutable records keep their constructor signatures and assignable
attributes.
"""
import copy
import importlib
import pickle
import pkgutil

import pytest

import schemarith
from schemarith.corpus import CorpusProblem
from schemarith.discourse import ElementaryEvent, Timeline
from schemarith.lexicon import (
    ChangeKind,
    Compound,
    Direction,
    LocusKind,
    NonChange,
    Role,
    StaticState,
    Tense,
)
from schemarith.parser import (
    THEY,
    CombineProp,
    CompareProp,
    Entity,
    EntityKind,
    EventProp,
    Locus,
    Sentence,
    StateKey,
    StateProp,
)
from schemarith.pipeline import ProblemResult
from schemarith.quantity import (
    QUESTION, Question, TimePoint, _Enum, _Frozen, render_quantity,
)
from schemarith.schema_engine import SchemaInstantiation, Strategy
from schemarith.solver import (
    Contradiction,
    Insufficient,
    Invalid,
    Solved,
    SolveResult,
)

NO = object()   # the field has no default

RUTH = Entity("Ruth", EntityKind.PROPER)
TOM = Entity("Tom", EntityKind.PROPER)
BOX = Entity("box", EntityKind.CLASS)
BASKET = Entity("basket", EntityKind.CLASS)
OWNERSHIP, PLACE = LocusKind.OWNERSHIP, LocusKind.PLACE
IN_OWN = ChangeKind.IN_OWNERSHIP
OUT_OWN = ChangeKind.OUT_OWNERSHIP
KEY = StateKey(Locus(OWNERSHIP, RUTH), "apple", TimePoint.INITIAL)
KEY2 = StateKey(Locus(OWNERSHIP, TOM), "apple", TimePoint.INITIAL)


def f(name, value, other, default=NO, compared=True):
    """A field: its name, a value, a different value, default, compared."""
    return name, value, other, default, compared


def ignored(name, value, other, default):
    return f(name, value, other, default, compared=False)


# Each frozen value type with its fields in constructor order.
FROZEN = {
    Question: [],
    Compound: [f("components", ((IN_OWN, Role.AGENT), (OUT_OWN, Role.SOURCE)),
                 ((OUT_OWN, Role.AGENT), (IN_OWN, Role.RECIPIENT)))],
    StaticState: [f("hint", TimePoint.FINAL, None)],
    NonChange: [],
    Entity: [f("name", "Ruth", "Tom"),
             f("kind", EntityKind.PROPER, EntityKind.CLASS),
             f("cardinality", 5, 6, None)],
    Locus: [f("kind", OWNERSHIP, PLACE), f("entity", RUTH, TOM)],
    StateKey: [f("locus", Locus(OWNERSHIP, RUTH), Locus(PLACE, BOX)),
               f("obj", "apple", "nut"), f("time", TimePoint.INITIAL, TimePoint.FINAL)],
    StateProp: [f("key", KEY, KEY2), f("quantity", 3, QUESTION),
                ignored("sentence", 0, 1, -1)],
    EventProp: [f("verb", "give", "get"), f("obj", "apple", "nut"),
                f("amount", 3, 4), f("agent", RUTH, TOM, None),
                f("recipient", TOM, RUTH, None), f("source", BOX, BASKET, None),
                f("destination", BASKET, BOX, None), ignored("sentence", 1, 3, -1)],
    CompareProp: [f("left", KEY, KEY2), f("right", KEY2, KEY),
                  f("diff", 2, 3), f("direction", "more", "less"),
                  ignored("sentence", 0, 1, -1)],
    CombineProp: [f("obj", "apple", "nut"), f("total", 8, QUESTION),
                  f("time", TimePoint.INITIAL, TimePoint.FINAL),
                  f("parts", (KEY, KEY2), (KEY2, KEY), ()),
                  f("group", THEY, BOX, None), f("verb", "buy", "get", None),
                  ignored("sentence", 2, 3, -1)],
    ElementaryEvent: [f("kind", IN_OWN, OUT_OWN),
                      f("locus", Locus(OWNERSHIP, RUTH), Locus(OWNERSHIP, TOM)),
                      f("obj", "apple", "nut"), f("delta", 3, 4),
                      ignored("verb", "give", "get", ""),
                      ignored("sentence", 0, 1, -1)],
    SchemaInstantiation: [
        f("kind", "More", "Less"),
        f("a", 1, "X"), f("b", 2, 5), f("c", 3, QUESTION)],
    Solved: [f("answer", 6, 7)],
    Insufficient: [f("unresolved", (), ("X",))],
    Contradiction: [f("equation", "3 = 1 + 1", "4 = 1 + 1"), f("detail", "a", "b")],
    Invalid: [f("equation", "0 = 1 + ?", "1 = 2 + ?"), f("value", -1, -2)],
    CorpusProblem: [f("id", "p", "q"), f("text", "t", "u"),
                    f("expected_verdict", "solved", "contradiction"),
                    f("expected_answer", 6, None), f("pronoun_free", True, False)],
}

FROZEN_IDS = [cls.__name__ for cls in FROZEN]


def values(fields, **changed):
    return {name: changed.get(name, value) for name, value, *_ in fields}


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_constructor_order_keywords_and_defaults(cls):
    fields = FROZEN[cls]
    kw = values(fields)
    by_position = cls(*kw.values())
    by_keyword = cls(**kw)
    for name, value, *_ in fields:   # each slot holds its argument itself
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    required = {name: value for name, value, _, default, _ in fields if default is NO}
    minimal = cls(**required)
    for name, _, _, default, _ in fields:
        if default is not NO:
            assert getattr(minimal, name) == default


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_equal_fields_equal_hashes(cls):
    a, b = cls(**values(FROZEN[cls])), cls(**values(FROZEN[cls]))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_compared_fields_count_and_ignored_fields_do_not(cls):
    fields = FROZEN[cls]
    base = cls(**values(fields))
    for name, _, other, _, compared in fields:
        changed = cls(**values(fields, **{name: other}))
        if compared:
            assert changed != base, name
        else:
            assert changed == base, name
            assert hash(changed) == hash(base), name


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_fields_are_the_slots_in_constructor_order(cls):
    assert [name for name, *_ in FROZEN[cls]] == list(cls.__slots__)


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_stores_are_plain_and_no_attribute_is_added(cls):
    # a Python-level override would turn off the specialised stores
    obj = cls(**values(FROZEN[cls]))
    assert type(obj).__setattr__ is object.__setattr__
    assert type(obj).__delattr__ is object.__delattr__
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_repr_in_field_order(cls):
    kw = values(FROZEN[cls])
    inner = ", ".join(f"{name}={value!r}" for name, value in kw.items())
    assert repr(cls(**kw)) == f"{cls.__name__}({inner})"


@pytest.mark.parametrize("cls", FROZEN, ids=FROZEN_IDS)
def test_copy_and_pickle_keep_the_value(cls):
    obj = cls(**values(FROZEN[cls]))
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert twin == obj and repr(twin) == repr(obj)


def test_repr_literals():
    assert repr(Insufficient(())) == "Insufficient(unresolved=())"
    assert repr(QUESTION) == "Question()"
    assert repr(Locus(OWNERSHIP, RUTH)) == (
        "Locus(kind=<LocusKind.OWNERSHIP: 'ownership'>, entity=Entity(name='Ruth', "
        "kind=<EntityKind.PROPER: 'proper'>, cardinality=None))")


def test_other_classes_are_unequal():
    assert Locus(OWNERSHIP, RUTH) != RUTH
    assert 1 != "1"   # a stated 1 and the unknown named "1"
    assert Question() == QUESTION
    assert NonChange() == NonChange() and NonChange() != Question()
    assert Solved(3) != Invalid("3 = 1 + 2", 3)


@pytest.mark.parametrize("value", [QUESTION], ids=repr)
def test_an_interned_value_is_one_object(value):
    # so it hashes and compares by identity, in C
    assert type(value)(*(getattr(value, name) for name in value.__slots__)) is value
    assert hash(value) == object.__hash__(value)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin is value


def test_constructor_checks():
    with pytest.raises(ValueError):
        Compound(((IN_OWN, Role.AGENT),))


#: Each package enum with its member names in definition order.
ENUMS = {
    Direction: ["IN", "OUT", "CREATE", "TERMINATE"],
    LocusKind: ["OWNERSHIP", "PLACE"],
    ChangeKind: ["IN_OWNERSHIP", "IN_PLACE", "OUT_OWNERSHIP", "OUT_PLACE",
                 "CREATE_OWNERSHIP", "CREATE_PLACE", "TERMINATE_OWNERSHIP",
                 "TERMINATE_PLACE"],
    Role: ["AGENT", "RECIPIENT", "SOURCE", "DESTINATION"],
    Tense: ["PAST", "PRESENT"],
    EntityKind: ["PROPER", "CLASS", "GROUP"],
    TimePoint: ["INITIAL", "FINAL"],
    Strategy: ["CAUTIOUS", "TOTAL"],
}
ENUM_MEMBERS = [member for enum in ENUMS for member in enum]


@pytest.mark.parametrize("member", ENUM_MEMBERS, ids=str)
def test_enum_member_hashes_by_identity_and_copies_to_itself(member):
    assert hash(member) == object.__hash__(member)
    for twin in (copy.copy(member), copy.deepcopy(member),
                 pickle.loads(pickle.dumps(member))):
        assert twin is member


@pytest.mark.parametrize("enum", ENUMS, ids=lambda enum: enum.__name__)
def test_enum_lists_reads_and_prints_its_members(enum):
    names = ENUMS[enum]
    assert [member.name for member in enum] == names
    assert list(enum) == [getattr(enum, name) for name in names]
    assert len(enum) == len(names)
    assert len({member.value for member in enum}) == len(names)
    for member in enum:
        assert type(member) is enum
        assert enum(member.value) is member and enum(member) is member
        assert member == member and member != member.value
        assert repr(member) == f"<{enum.__name__}.{member.name}: {member.value!r}>"
        assert str(member) == f"{enum.__name__}.{member.name}"
    for bogus in ("bogus", ["bogus"]):   # a value that hashes, and one that does not
        with pytest.raises(ValueError) as refused:
            enum(bogus)
        assert str(refused.value) == f"{bogus!r} is not a valid {enum.__name__}"


def test_only_the_public_plain_names_of_an_enum_body_are_members():
    # the quantity docstring: each public name that is not a descriptor
    class Shade(_Enum):
        A = "a"
        B_ = "b"
        _hidden = "h"

        def describe(self):
            return self.name

    assert [member.name for member in Shade] == ["A", "B_"]
    assert Shade._hidden == "h" and Shade.A.describe() == "A"


def test_enum_values_and_attributes_read_as_defined():
    assert repr(Direction.IN) == "<Direction.IN: 'in'>"
    assert str(Direction.IN) == "Direction.IN"
    assert Direction.OUT.value == "out"
    assert (Direction.OUT.slot, Direction.OUT.passive, Direction.OUT.place_prep,
            Direction.OUT.owner_verb, Direction.OUT.adds) == (
                "out", "transferred", "out of", "forfeited", False)
    kind = ChangeKind.TERMINATE_PLACE
    assert kind.value == (Direction.TERMINATE, LocusKind.PLACE)
    assert (kind.direction, kind.locus_kind, kind.schema) == (
        Direction.TERMINATE, LocusKind.PLACE, "Termination (place)")
    assert ChangeKind.IN_OWNERSHIP.schema == "Transfer-In-Ownership"


def package_subclasses(base):
    """The subclasses of `base`, at any depth, that the package defines."""
    for module in pkgutil.iter_modules(schemarith.__path__):
        importlib.import_module(f"schemarith.{module.name}")
    found, todo = set(), [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("schemarith."):
                found.add(sub)
    return found


def test_every_value_type_of_the_package_has_its_row():
    # a frozen type compares all of its fields unless its _key says
    # otherwise, so a type missing here would go unchecked
    assert package_subclasses(_Frozen) == set(FROZEN)
    assert package_subclasses(_Enum) == {type(member) for member in ENUM_MEMBERS}


def test_a_dict_keyed_by_enum_members_finds_each():
    table = {member: n for n, member in enumerate(ENUM_MEMBERS)}
    assert [table[member] for member in ENUM_MEMBERS] == list(range(len(ENUM_MEMBERS)))


def test_render_quantity():
    assert [render_quantity(q) for q in (3, "X1", QUESTION)] == \
        ["3", "X1", "?"]
    # an amount is an int: a bool or a float is none
    for q in (True, 2.0):
        with pytest.raises(TypeError, match=f"not a quantity: {q}"):
            render_quantity(q)


# Each mutable record with its fields in constructor order: (name, default).
MUTABLE = {
    Sentence: [("clauses", NO)],
    Timeline: [("locus", NO), ("obj", NO), ("events", NO), ("initial", NO),
               ("final", NO), ("intermediates", NO)],
    SolveResult: [("verdict", NO), ("binding", NO), ("trace", NO), ("equations", NO),
                  ("visits", NO)],
    ProblemResult: [("strategy", NO), ("store", NO), ("timelines", NO), ("lsi", NO),
                    ("skipped", NO), ("solve", NO), ("timing_ms", 0.0)],
}


@pytest.mark.parametrize("cls", MUTABLE, ids=[c.__name__ for c in MUTABLE])
def test_mutable_record_signature(cls):
    fields = MUTABLE[cls]
    given = [object() for _ in fields]
    by_position = cls(*given)
    by_keyword = cls(**{name: v for (name, _), v in zip(fields, given)})
    minimal = cls(**{name: v for (name, default), v in zip(fields, given)
                     if default is NO})
    for (name, default), v in zip(fields, given):
        assert getattr(by_position, name) is v
        assert getattr(by_keyword, name) is v
        if default is not NO:
            assert getattr(minimal, name) == default
        setattr(by_position, name, None)
        assert getattr(by_position, name) is None
