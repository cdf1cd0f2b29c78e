"""Schema instantiation: comparisons, combines, and change schemas.

A schema relates three amounts by a + b = c.  Comparisons and combine
statements instantiate directly from their propositions.  Each of the
eight change kinds owns one change schema: the event supplies the change
amount, and the initial and final amounts are searched for among the
problem's states along the event's timeline.  Under the cautious
strategy a timeline's changes are recorded only when both of its
endpoint amounts were found; the total strategy records every candidate,
inventing unknowns for missing amounts.
"""
from operator import attrgetter

from .lexicon import ChangeKind
from .parser import THEY, CompareProp, EntityKind, ProblemTextError, StateKey
from .quantity import QUESTION, TimePoint, _Enum, _Frozen, render_quantity


class UnresolvableCombine(ProblemTextError):
    def __init__(self, reason):
        super().__init__(f"cannot resolve combine statement: {reason}")


class Strategy(_Enum):
    CAUTIOUS = "cautious"
    TOTAL = "total"


# ---------------------------------------------------------------------------
# schema instantiations


#: Per entry kind: its three role names, and a getter of its a, b and c in role order.
ROLES = {
    "More": (("left", "right", "by"), attrgetter("c", "a", "b")),
    "Less": (("left", "right", "by"), attrgetter("a", "c", "b")),
    "Combine": (("part", "part", "altogether"), attrgetter("a", "b", "c")),
    **{kind.schema: (("initially", kind.direction.slot, "finally"),
                     attrgetter(*("abc" if kind.direction.adds else "cba")))
       for kind in ChangeKind},
}


class SchemaInstantiation(_Frozen):
    """One LSI entry: its kind and the equation c = a + b over its amounts,
    which the solver reads.  A removal is stored in added form: initial =
    final + delta.  ROLES maps the kind to the role of each amount."""

    __slots__ = ("kind", "a", "b", "c")

    def __init__(self, kind, a, b, c):
        # change schema name, "More", "Less" or "Combine"
        self.kind = kind
        self.a = a
        self.b = b
        self.c = c

    @property
    def slots(self):   # ((role, amount), ...), the amounts in role order
        roles, amounts = ROLES[self.kind]
        return tuple(zip(roles, amounts(self)))

    def render(self) -> str:
        if self.kind in ("More", "Less"):
            (_, left), (_, right), (_, diff) = self.slots
            return (f"{self.kind} ({render_quantity(left)}, "
                    f"than {render_quantity(right)}, by {render_quantity(diff)})")
        if self.kind == "Combine":
            (_, p1), (_, p2), (_, total) = self.slots
            return (f"Combine ({render_quantity(p1)}, plus {render_quantity(p2)}, "
                    f"altogether {render_quantity(total)})")
        parts = ", ".join([f"{role} {render_quantity(q)}" for role, q in self.slots])
        return f"{self.kind} ({parts})"


def report_slots(lsi) -> list:
    """Each LSI entry's slots as the JSON report lists them: a [role, amount]
    pair per slot in role order, read from ROLES, and "?" for the question."""
    rows = []
    for si in lsi:
        (r1, r2, r3), amounts = ROLES[si.kind]
        q1, q2, q3 = amounts(si)   # a value, a name or QUESTION
        rows.append([[r1, "?" if q1 is QUESTION else q1], [r2, "?" if q2 is QUESTION else q2],
                     [r3, "?" if q3 is QUESTION else q3]])
    return rows


def change_instantiation(event, before, after) -> SchemaInstantiation:
    """Schema instantiation of one elementary event between two amounts."""
    kind = event.kind
    if kind.direction.adds:
        return SchemaInstantiation(kind.schema, before, event.delta, after)
    # final = initial - delta, stored as initial = final + delta
    return SchemaInstantiation(kind.schema, after, event.delta, before)


def instantiate_compare(comp, store) -> SchemaInstantiation:
    """A More/Less instantiation; unseen sides get fresh unknown states."""
    left = store.lookup_or_introduce(comp.left)
    right = store.lookup_or_introduce(comp.right)
    if comp.direction == "more":
        return SchemaInstantiation("More", right, comp.diff, left)
    return SchemaInstantiation("Less", left, comp.diff, right)


def instantiate_combine(comb, store) -> list:
    """Combine instantiations for a statement or question.

    State combines resolve their parts as states at the stated time.
    Event combines, the ones with a verb, take the amounts of
    gaining-ownership events whose agent class belongs to the asked
    superset.  More than two parts chain through partial-sum unknowns,
    one instantiation per added part.
    """
    if comb.verb is not None:
        members = store.lexicon.supersets.get(comb.group.name)
        if not members:
            raise UnresolvableCombine(
                f"{comb.group.name!r} has no configured member classes")
        gaining = ChangeKind.IN_OWNERSHIP
        parts = [
            ev.delta for ev in store.events
            if ev.kind is gaining and ev.locus.entity.kind is EntityKind.CLASS
            and ev.locus.entity.name in members and ev.obj == comb.obj
        ]
    elif comb.group is THEY:
        parts = [store.lookup_or_introduce(StateKey(locus, comb.obj, comb.time))
                 for locus in store.proper_owner_loci(comb.obj)]
    else:
        parts = [store.lookup_or_introduce(key) for key in comb.parts]
    if len(parts) < 2:
        raise UnresolvableCombine(f"found {len(parts)} part(s), need at least 2")
    out = []
    running = parts[0]
    totals = store.fresh_vars(len(parts) - 2) + [comb.total]
    for part, total in zip(parts[1:], totals):
        out.append(SchemaInstantiation("Combine", running, part, total))
        running = total
    return out


# ---------------------------------------------------------------------------
# the list of schema instantiations (LSI)


def initial_lsi(store) -> list:
    """Compare and combine instantiations, in text order.

    These are recorded unconditionally; only change schemas pass through
    the strategy gate.
    """
    out = []
    for rel in store.relations:
        if isinstance(rel, CompareProp):
            out.append(instantiate_compare(rel, store))
        else:
            out.extend(instantiate_combine(rel, store))
    return out


def build_lsi(store, timelines, strategy, first):
    """Extend the initial LSI with change instantiations per the strategy.

    `first` is the initial LSI, built before the timelines so that they
    see the compare and combine unknowns as endpoints.  Cautious: a
    timeline contributes its chain only when both endpoint amounts are
    present among the propositions.  Total: every timeline contributes,
    with fresh unknowns standing in for missing endpoints.  A chain of k
    events contributes k instantiations linked through its intermediate
    unknowns.  Returns the LSI and the timelines the gate skipped.
    """
    lsi = list(first)
    skipped = []
    for timeline in timelines:
        if strategy is Strategy.CAUTIOUS and timeline.missing:
            skipped.append(timeline)
            continue
        # Missing endpoints are introduced as fresh unknown states, the
        # initial one first; the cautious gate lets no such timeline here.
        amounts = [timeline.initial, *timeline.intermediates, timeline.final]
        for i, time in ((0, TimePoint.INITIAL), (-1, TimePoint.FINAL)):
            if amounts[i] is None:
                amounts[i] = store.lookup_or_introduce(
                    StateKey(timeline.locus, timeline.obj, time))
        for event, before, after in zip(timeline.events, amounts, amounts[1:]):
            lsi.append(change_instantiation(event, before, after))
    return lsi, skipped
