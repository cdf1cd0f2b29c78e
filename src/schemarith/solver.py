"""Worklist propagation over the a + b = c constraint network.

Every recorded relation normalizes to one equation c = a + b over three
amount slots.  Propagation resolves any equation with exactly one unbound
slot, and an index from each unknown slot to the equations that mention
it decides which equations can have changed (AC-3 style, Mackworth 1977).
It terminates with the question's value, a report of which unknowns
stayed free, a contradiction between stated amounts, or a derived
negative amount.  A slot is bound at most once and each binding revisits
only the equations that mention it, so an equation is visited at most
four times: a chain of k changes costs O(k) visits whichever end of it
the question asks about.
"""
from __future__ import annotations

from heapq import heappop, heappush
from operator import attrgetter

from .quantity import QUESTION, Known, Question, Var, _Frozen, _set, render_quantity


class MalformedLSI(ValueError):
    pass


class Equation(_Frozen):
    """c = a + b. Removal relations are stored in added form."""

    __slots__ = ("a", "b", "c")
    _key = attrgetter(*__slots__)

    def __init__(self, a, b, c):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def render(self) -> str:
        return (f"{render_quantity(self.c)} = "
                f"{render_quantity(self.a)} + {render_quantity(self.b)}")

    def quantities(self):
        return (self.a, self.b, self.c)


class Solved(_Frozen):
    __slots__ = ("answer",)
    _key = attrgetter("answer")

    def __init__(self, answer):
        _set(self, "answer", answer)


class Insufficient(_Frozen):
    __slots__ = ("unresolved",)
    _key = attrgetter("unresolved")

    def __init__(self, unresolved):
        _set(self, "unresolved", unresolved)


class Contradiction(_Frozen):
    __slots__ = ("equation", "detail")
    _key = attrgetter(*__slots__)

    def __init__(self, equation, detail):
        _set(self, "equation", equation)
        _set(self, "detail", detail)


class Invalid(_Frozen):
    __slots__ = ("equation", "value")
    _key = attrgetter(*__slots__)

    def __init__(self, equation, value):
        _set(self, "equation", equation)
        _set(self, "value", value)


class SolveResult:
    def __init__(self, verdict, binding, question_value, trace, visits):
        self.verdict = verdict
        self.binding = binding
        self.question_value = question_value
        self.trace = trace
        self.visits = visits   # equation evaluations; a work count, not in reports

    @property
    def verdict_name(self) -> str:
        return type(self.verdict).__name__.lower()


def _slot(q):
    """Binding key of an amount slot: None if stated, a Var's name, or the
    QUESTION object (so an unknown named "?" stays its own slot)."""
    if isinstance(q, Known):
        return None
    if isinstance(q, Var):
        return q.name
    if isinstance(q, Question):
        return QUESTION
    raise MalformedLSI(f"not a quantity: {q!r}")


def propagate(lsi, store) -> SolveResult:
    """Run the equations of a schema-instantiation list to fixpoint.

    A worklist visits the equations in (pass, index) order.  Every
    equation is due in pass 0.  When equation i binds a slot, each other
    equation j that mentions the slot is due again: later in this pass if
    j > i, in the next pass if j < i.  Equation i is not, since its own
    binding satisfies it, and an equation whose slots did not change since
    its last visit would do nothing.  These are exactly the visits of a
    full sweep, which evaluates every equation on every pass, that can
    have an effect, in the sweep's order; so trace, flags and verdict are
    the sweep's.  A sweep makes one pass per unknown on a chain solved
    backward; here an equation is visited at most once, plus once per slot
    it mentions (`SolveResult.visits` counts the visits).  Each slot is
    resolved by `_slot` once; the question is bound like any unknown.

    Verdict precedence at fixpoint: a violated fully-known equation wins
    (contradiction), then a derived negative amount, then a bound question
    (solved), otherwise insufficiency.  Negative derivations are recorded
    but never bound, and no slot is ever rebound, so the verdict does not
    depend on equation order.
    """
    if not store.has_question():
        raise MalformedLSI("the problem has no question quantity")
    equations = [si.equation for si in lsi]
    slots = [tuple(map(_slot, eq.quantities())) for eq in equations]
    users = {}    # slot key -> indices of the equations that mention it
    for idx, keys in enumerate(slots):
        for key in keys:
            if key is not None:
                seen = users.setdefault(key, [])
                if not seen or seen[-1] != idx:
                    seen.append(idx)
    values = {}   # slot key -> bound amount
    trace = []
    contradictions = []
    invalids = []
    flagged = set()
    visits = 0
    due = list(range(len(equations)))   # heap of this pass's indices
    queued = set(due)
    next_pass = set()
    while due or next_pass:
        if not due:
            due = sorted(next_pass)
            queued, next_pass = next_pass, set()
        idx = heappop(due)
        visits += 1
        eq, keys = equations[idx], slots[idx]
        vals = [q.value if key is None else values.get(key)
                for q, key in zip(eq.quantities(), keys)]
        unknowns = [i for i, v in enumerate(vals) if v is None]
        if not unknowns:
            if vals[0] + vals[1] != vals[2] and idx not in flagged:
                flagged.add(idx)
                contradictions.append(Contradiction(
                    eq.render(),
                    f"{vals[0]} + {vals[1]} = {vals[0] + vals[1]}, "
                    f"but {vals[2]} is required",
                ))
            continue
        if len(unknowns) > 1:
            continue
        slot = unknowns[0]
        a, b, c = vals
        if slot == 0:
            value = c - b
        elif slot == 1:
            value = c - a
        else:
            value = a + b
        if value < 0:
            if idx not in flagged:
                flagged.add(idx)
                invalids.append(Invalid(eq.render(), value))
            continue
        target = keys[slot]
        values[target] = value
        known = ", ".join(f"{key} = {vals[i]}" for i, key in enumerate(keys)
                          if i != slot and key is not None and key is not QUESTION)
        suffix = f" with {known}" if known else ""
        trace.append(f"{eq.render()}{suffix} ⇒ "
                     f"{render_quantity(eq.quantities()[slot])} = {value}")
        for j in users[target]:
            if j < idx:
                next_pass.add(j)
            elif j > idx and j not in queued:
                queued.add(j)
                heappush(due, j)
    question_value = values.pop(QUESTION, None)
    if contradictions:
        verdict = contradictions[0]
    elif invalids:
        verdict = invalids[0]
    elif question_value is not None:
        verdict = Solved(question_value)
    else:
        free = (key for keys in slots for key in keys
                if key is not None and key is not QUESTION and key not in values)
        verdict = Insufficient(tuple(dict.fromkeys(free)))
    return SolveResult(verdict, values, question_value, trace, visits)


def verify(lsi, binding, question_value=None) -> bool:
    """True iff every equation holds exactly under a total binding.

    `binding` maps unknown names to values; the question's value may ride
    along in the map under "?" or be passed separately.  Any unbound slot
    makes the check fail; a slot that is not an amount raises
    MalformedLSI, as in `propagate`.
    """
    values = dict(binding)
    values[QUESTION] = binding.get("?") if question_value is None else question_value
    for si in lsi:
        quantities = si.equation.quantities()
        vals = [q.value if key is None else values.get(key)
                for q, key in zip(quantities, map(_slot, quantities))]
        if None in vals or vals[0] + vals[1] != vals[2]:
            return False
    return True
