"""Proposition store, compound-verb splitting, and per-locus timelines.

The store holds every state, event, comparison and combine statement of a
problem.  Events with compound verbs split into their elementary changes;
all elementary events touching one (locus, object) pair form a timeline
ordered between the stated initial and final amounts, with fresh unknowns
for the amounts between consecutive events.  The groups form as the
propositions arrive: each elementary event joins its pair's group when
its event is split, and each state is its pair's amount at its time: the
groups are the one index of the states, and no state key is hashed.
"""
from operator import attrgetter

from .lexicon import (
    ChangeKind,
    Compound,
    Direction,
    LocusKind,
    Role,
)
from .parser import (
    CombineProp,
    CompareProp,
    EntityKind,
    EventProp,
    Locus,
    ParseError,
    ProblemTextError,
    StateKey,
    StateProp,
    render_amount,
    render_event,
    render_locus,
    render_state,
)
from .quantity import Question, TimePoint, _Frozen, render_quantity


class DataConflict(Exception):
    """Two stated amounts disagree for the same locus, object and time."""

    def __init__(self, key, existing, new):
        super().__init__(
            f"conflicting amounts for {render_locus(key.locus)} / {key.obj} "
            f"({key.time.value}): {render_quantity(existing)} vs {render_quantity(new)}"
        )


class UnknownVerb(ProblemTextError):
    def __init__(self, lemma):
        super().__init__(f"verb {lemma!r} is not in the lexicon")


class MissingParticipant(ProblemTextError):
    """An event names no participant that could carry its locus."""

    def __init__(self, verb, what):
        super().__init__(f"event verb {verb!r} has no {what} to locate the change at")


class ElementaryEvent(_Frozen):
    """One elementary change; it compares by kind, locus, object and delta."""

    __slots__ = ("kind", "locus", "obj", "delta", "verb", "sentence")
    _key = attrgetter(*__slots__[:4])

    def __init__(self, kind, locus, obj, delta, verb="", sentence=-1):
        self.kind = kind      # ChangeKind
        self.locus = locus    # Locus
        self.obj = obj
        self.delta = delta    # an int: the parser states it
        self.verb = verb
        self.sentence = sentence


# Read on every event, as module names; see parser._PROPER.
_OWNERSHIP, _PROPER, _IN = LocusKind.OWNERSHIP, EntityKind.PROPER, Direction.IN
_CREATE_OR_TERMINATE = (Direction.CREATE, Direction.TERMINATE)

#: The event field that names each role's participant.
_PARTICIPANT = {role: attrgetter(role.value) for role in Role}


def _elementary_change(kind, event):
    """(kind, participant) of the change of an elementary verb."""
    if kind.locus_kind is _OWNERSHIP:
        # ownership verbs locate the change at the subject
        if event.agent is None:
            raise MissingParticipant(event.verb, "owner")
        return kind, event.agent
    creation_or_termination = kind.direction in _CREATE_OR_TERMINATE
    named = event.destination if kind.direction is _IN else event.source
    if named is None and creation_or_termination:
        named = event.destination or event.source
    if named is not None:
        return kind, named
    # creation/termination without a named place affects the agent's holdings
    if creation_or_termination and event.agent is not None:
        return ChangeKind((kind.direction, _OWNERSHIP)), event.agent
    raise MissingParticipant(event.verb, "place")


def render_elementary(event, lexicon) -> str:
    """An ownership change in the active form, with the owner as subject;
    a change of place in the passive form, with the counted objects as
    subject, which reads the same whichever verb produced it."""
    direction = event.kind.direction
    if event.kind.locus_kind is _OWNERSHIP:
        n = event.delta
        return (f"{event.locus.entity.name} {direction.owner_verb} {n} "
                f"{event.obj if n == 1 else lexicon.plural[event.obj]}")
    return (f"{render_amount(event.obj, event.delta, lexicon)} were "
            f"{direction.passive} {direction.place_prep} {render_locus(event.locus)}")


class PropositionStore:
    """All propositions of one problem, plus the fresh-variable supply.

    The store is built once per problem and is read-only afterwards; at
    most one state exists per (locus, object, time) key, and exactly one
    quantity in the whole store is the Question.  The timelines' groups are
    its one index of the states: each elementary event joins its (locus,
    object) group as its event is split, and each state is its group's
    amount at its time.  ``groups`` keys a group by one flat tuple, the
    locus's ``_key`` fields and the object, hashed in C; ``entries``
    keeps the states in text order among the events, for the reports.
    A group's events share one Locus, made with its first event.
    """

    def __init__(self, lexicon):
        self.lexicon = lexicon
        # text order: (StateKey, its amount) | (EventProp, its ElementaryEvents)
        self.entries = []
        self.raw_events = []      # surface EventProps
        self.events = []          # ElementaryEvents, text order
        self.relations = []       # CompareProp | CombineProp, text order
        # (*locus key, obj) -> (its ElementaryEvents in text order, {TimePoint: amount})
        self.groups = {}
        self.chains = []          # (locus, obj, events, ends) of each group with events
        self._var_count = 0

    # -- construction -----------------------------------------------------

    def add_state(self, prop):
        key, amount = prop.key, prop.quantity
        ends = self._group(key.locus, key.obj)[1]
        existing = ends.get(key.time)
        if existing is None:
            ends[key.time] = amount
            self.entries.append((key, amount))
        elif existing != amount:
            if isinstance(existing, Question) or isinstance(amount, Question):
                raise ParseError(prop.sentence,
                                 "the question asks for an amount the text states")
            raise DataConflict(key, existing, amount)

    def add_event(self, prop):
        """Append each elementary change of a surface event to its group: a
        compound verb's changes whose participants the sentence names, or an
        elementary verb's one.  A group is keyed before anything is built,
        by the fields ``Locus._key`` reads; its first event makes it."""
        verb_class = self.lexicon.verbs.get(prop.verb)
        if verb_class.__class__ is Compound:
            changes = []
            for kind, role in verb_class.components:
                entity = _PARTICIPANT[role](prop)
                if entity is not None:
                    changes.append((kind, entity))
        elif verb_class.__class__ is ChangeKind:
            changes = (_elementary_change(verb_class, prop),)
        else:
            raise UnknownVerb(prop.verb)
        obj, parts = prop.obj, []
        for kind, entity in changes:
            key = (kind.locus_kind, entity.name, entity.kind, obj)
            group = self.groups.get(key)
            if group is None:
                group = self.groups[key] = ([], {})
            events, ends = group
            if events:
                locus = events[0].locus
            else:
                locus = Locus(kind.locus_kind, entity)
                self.chains.append((locus, obj, events, ends))
            event = ElementaryEvent(kind, locus, obj, prop.amount, prop.verb, prop.sentence)
            events.append(event)
            parts.append(event)
        self.entries.append((prop, parts))
        self.raw_events.append(prop)
        self.events.extend(parts)

    def _group(self, locus, obj):
        key = (*locus._key(locus), obj)   # see the class docstring
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = ([], {})
        return group

    def fresh_vars(self, n) -> list:
        """`n` new unknowns, each the ``str`` of its name: "X", "X1", "X2", ..."""
        count = self._var_count
        self._var_count = count + n
        return [f"X{i}" if i else "X" for i in range(count, count + n)]

    def lookup_or_introduce(self, key):
        """Amount of the state at the key, or of a new one holding a fresh unknown.

        Lookup never unifies across different times, loci or object
        classes; repeated calls with one key return the same amount.
        """
        ends = self._group(key.locus, key.obj)[1]
        amount = ends.get(key.time)
        if amount is None:
            amount = ends[key.time] = self.fresh_vars(1)[0]
            self.entries.append((key, amount))
        return amount

    # -- queries -----------------------------------------------------------

    def proper_owner_loci(self, obj):
        """Ownership loci of the proper-name owners holding any state of the
        object class, in order."""
        seen, loci = set(), []
        for key, _ in self.entries:
            if key.__class__ is StateKey and key.obj == obj \
                    and key.locus.kind is _OWNERSHIP \
                    and key.locus.entity.kind is _PROPER \
                    and key.locus.entity.name not in seen:
                seen.add(key.locus.entity.name)
                loci.append(key.locus)
        return loci

    # -- rendering -----------------------------------------------------------

    def render_propositions(self):
        """The text-order proposition lists of the trace table: (as stated,
        with each compound event replaced by its elementary events)."""
        lexicon = self.lexicon
        stated, split = [], []
        for head, tail in self.entries:
            if head.__class__ is StateKey:
                line = render_state(head, tail, lexicon)
                stated.append(line)
                split.append(line)
            else:
                stated.append(render_event(head, lexicon))
                for event in tail:
                    split.append(render_elementary(event, lexicon))
        return stated, split


def build_store(props, lexicon) -> PropositionStore:
    store = PropositionStore(lexicon)
    for prop in props:
        if prop.__class__ is EventProp:
            store.add_event(prop)
        elif prop.__class__ is StateProp:
            store.add_state(prop)
        elif isinstance(prop, (CompareProp, CombineProp)):
            store.relations.append(prop)
        else:
            raise TypeError(f"not a proposition: {prop!r}")
    return store


class Timeline:
    """Ordered chain of changes on one (locus, object), between endpoints.

    Events are kept in a canonical order (additions before removals, then
    by amount, verb and text order) so that representations do not depend
    on sentence order; with +/- deltas the final amount is the same either
    way.  `initial` and `final` are the store's endpoint amounts when the
    timeline was built, or None when the store lacked them.
    """

    def __init__(self, locus, obj, events, initial, final, intermediates):
        self.locus = locus
        self.obj = obj
        self.events = events
        self.initial = initial
        self.final = final
        self.intermediates = intermediates

    @property
    def missing(self) -> tuple:
        """Names of the absent endpoints; the cautious strategy records a
        timeline only when there are none."""
        return ((("initial",) if self.initial is None else ())
                + (("final",) if self.final is None else ()))


# The canonical order's keys, read in C: additions before removals, then
# amount, then verb.
_AMOUNT_AND_VERB = attrgetter("delta", "verb")
_ADDS = attrgetter("kind.direction.adds")


def build_timelines(store) -> list:
    """One timeline per (locus, object) pair that has at least one event.

    Timelines come in the order of each pair's first elementary event.
    Endpoints are the amounts the store holds for the pair so far
    (Question and unknown states count as present); intermediate unknowns
    are allocated between consecutive events of a chain.  The store keeps
    each group in text order, which the stable sorts keep among equal
    keys; the second sort, by direction, keeps the first one's order of
    amount and verb within each direction.
    """
    timelines = []
    for locus, obj, events, ends in store.chains:
        events = sorted(events, key=_AMOUNT_AND_VERB)
        events.sort(key=_ADDS, reverse=True)
        timelines.append(Timeline(
            locus, obj, events, ends.get(TimePoint.INITIAL), ends.get(TimePoint.FINAL),
            store.fresh_vars(len(events) - 1),
        ))
    return timelines
