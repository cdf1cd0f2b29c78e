"""Worklist propagation over the a + b = c constraint network.

Each entry of the schema-instantiation list carries its relation as one
equation c = a + b in its fields a, b and c.  The slots are numbered
densely, once per distinct unknown and once per stated amount, so
propagation reads and binds them in lists.  It resolves any equation
with exactly one unbound slot, and an index from each unknown slot to
the equations that mention it decides which equations can have changed
(AC-3 style, Mackworth 1977).  It reads those three fields of each entry
alone and terminates with the question's value, a report of which
unknowns stayed free, a contradiction between stated amounts, or a
derived negative amount.  A slot is bound at most once and each binding
revisits only the equations that mention it, so an equation is visited
at most four times: a chain of k changes costs O(k) visits whichever end
of it the question asks about.  The first pass scans every equation in
order, only a later pass of several keeps a heap, and each equation is
printed once, from its own amounts.
"""
from .quantity import QUESTION, _Frozen

#: heapq's functions, imported by the first later pass of the process: pass
#: 0 neither pushes nor pops, so a problem solved in one pass never loads heapq.
heappop = heappush = None


class MalformedLSI(ValueError):
    pass


class Solved(_Frozen):
    __slots__ = ("answer",)

    def __init__(self, answer):
        self.answer = answer


class Insufficient(_Frozen):
    __slots__ = ("unresolved",)

    def __init__(self, unresolved):
        self.unresolved = unresolved


class Contradiction(_Frozen):
    __slots__ = ("equation", "detail")

    def __init__(self, equation, detail):
        self.equation = equation
        self.detail = detail


class Invalid(_Frozen):
    __slots__ = ("equation", "value")

    def __init__(self, equation, value):
        self.equation = equation
        self.value = value


class SolveResult:
    def __init__(self, verdict, binding, trace, equations, visits):
        self.verdict = verdict
        self.binding = binding
        self.trace = trace
        self.equations = equations   # each equation's text, "c = a + b", in LSI order
        self.visits = visits   # equation evaluations; a work count, not in reports


def propagate(lsi) -> SolveResult:
    """Run the equations c = a + b of a schema-instantiation list, read
    from each entry's ``a``, ``b`` and ``c``, to fixpoint.

    A worklist visits the equations in (pass, index) order.  Every
    equation is due in pass 0, so a counter scans them in order; a later
    pass takes its one equation as it is, or several from a heap.  When
    equation i binds a slot, each other equation j that mentions the slot
    is due again: later in this pass if j > i, in the next pass if j < i.
    Equation i is not, since its own binding satisfies it, and an equation
    whose slots did not change since its last visit would do nothing.
    These are exactly the visits of a full sweep, which evaluates every
    equation on every pass, that can have an effect, in the sweep's order;
    so trace, flags and verdict are the sweep's.  A sweep makes one pass
    per unknown on a chain solved backward; here an equation is visited at
    most once, plus once per slot it mentions (`SolveResult.visits` counts
    the visits).  Each slot is read once, into a dense slot number: one per
    distinct unknown, the question among them, and one per stated amount,
    bound from the start.  A stated amount is an ``int`` and an unknown
    the ``str`` of its name; a negative amount, or a slot that is no
    ``int``, ``str`` or QUESTION, raises MalformedLSI.  An unknown is keyed
    by its name and the question by QUESTION, so an unknown named "?"
    stays its own slot.  Each equation is printed once from its amounts,
    QUESTION as "?", and the trace and the verdict reuse its text; the
    trace names a bound slot by its unknown's name, or "?".

    Verdict precedence at fixpoint: a violated fully-known equation wins
    (contradiction), then a derived negative amount, then a bound question
    (solved), otherwise insufficiency, also when no equation mentions the
    question.  Negative derivations are recorded but never bound, and no
    slot is ever rebound, so the verdict does not depend on equation order.
    """
    global heappop, heappush
    index = {}    # unknown's key -> slot number
    names = []    # per slot: the unknown's name; None if stated or the question
    values = []   # per slot: its amount once bound; a stated slot starts bound
    users = []    # per slot: indices of the equations that mention it; None if stated
    slots = []    # per equation: the numbers of its a, b and c slots
    rendered = []   # per equation: its text
    for idx, si in enumerate(lsi):
        numbers = []
        for q in (si.a, si.b, si.c):
            cls = q.__class__
            if cls is int:
                if q < 0:
                    raise MalformedLSI(f"a stated amount is negative: {q}")
                number = len(values)
                names.append(None)
                values.append(q)
                users.append(None)
            else:
                if cls is str:
                    key = name = q
                elif q is QUESTION:
                    key, name = QUESTION, None
                else:
                    raise MalformedLSI(f"not a quantity: {q!r}")
                number = index.get(key)
                if number is None:
                    number = index[key] = len(values)
                    names.append(name)
                    values.append(None)
                    users.append([idx])
                else:   # a repeat within one equation joins a pass only once
                    users[number].append(idx)
            numbers.append(number)
        slots.append(numbers)
        rendered.append(f"{si.c} = {si.a} + {si.b}")
    binding = {}
    trace = []
    contradictions = []
    invalids = []
    flagged = set()
    visits = 0
    count, scanned = len(slots), 0   # pass 0 visits equations 0 .. count - 1 in turn
    due = []   # heap of a later pass's indices
    queued, next_pass = range(count), set()   # the indices due in this pass, in the next
    while True:
        if scanned < count:
            idx, scanned = scanned, scanned + 1
        elif due:
            idx = heappop(due)
        elif heappop is None and next_pass:   # the process's first later pass
            from heapq import heappop, heappush
            continue
        elif len(next_pass) == 1:   # a pass of one equation needs no heap
            (idx,) = queued = next_pass
            next_pass = set()
        elif next_pass:
            due, queued, next_pass = sorted(next_pass), next_pass, set()
            idx = heappop(due)
        else:
            break
        visits += 1
        sa, sb, sc = slots[idx]
        a, b, c = values[sa], values[sb], values[sc]
        if a is None:
            if b is None or c is None:
                continue
            target, value = sa, c - b
        elif b is None:
            if c is None:
                continue
            target, value = sb, c - a
        elif c is None:
            target, value = sc, a + b
        else:
            if a + b != c and idx not in flagged:
                flagged.add(idx)
                contradictions.append(Contradiction(
                    rendered[idx], f"{a} + {b} = {a + b}, but {c} is required"))
            continue
        if value < 0:
            # the first visit with one unknown: only that unknown's binding
            # brings the equation back, and then all three are known
            flagged.add(idx)
            invalids.append(Invalid(rendered[idx], value))
            continue
        values[target] = value
        name = names[target]
        if name is not None:
            binding[name] = value
        step, joint = rendered[idx], " with "
        for s in (sa, sb, sc):
            if s != target and names[s] is not None:
                step = f"{step}{joint}{names[s]} = {values[s]}"
                joint = ", "
        trace.append(f"{step} ⇒ {'?' if name is None else name} = {value}")
        for j in users[target]:
            if j < idx:
                next_pass.add(j)
            elif j not in queued:   # idx itself is queued
                queued.add(j)
                heappush(due, j)
    question = index.get(QUESTION)
    question_value = None if question is None else values[question]
    if contradictions:
        verdict = contradictions[0]
    elif invalids:
        verdict = invalids[0]
    elif question_value is not None:
        verdict = Solved(question_value)
    else:
        verdict = Insufficient(tuple(
            name for name, value in zip(names, values)
            if name is not None and value is None))
    return SolveResult(verdict, binding, trace, rendered, visits)
