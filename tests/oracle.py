"""Test oracles: exhaustive enumeration, and the reference propagation sweep.

Each oracle reads a list of LSI entries, each holding its equation
c = a + b in its fields ``a``, ``b`` and ``c``; an unknown is the ``str``
of its name.  The enumerator assigns every unknown (named unknowns plus
the question) all values in 0..bound and keeps the assignments satisfying
every equation.  It shares no code with the propagation solver;
backtracking only prunes branches that a full product scan would also
reject, so the solution set equals naive enumeration (cross-checked below
for small systems).

`propagate_sweep` is the solver's earlier sweep-to-fixpoint loop, which
evaluates every equation on every pass.  The worklist solver must match
its verdict, binding, trace and equation texts exactly.  It shares only
the result types with the solver, and renders each equation itself.
"""
from __future__ import annotations

import itertools

from schemarith.quantity import Question, render_quantity
from schemarith.solver import (
    Contradiction,
    Insufficient,
    Invalid,
    MalformedLSI,
    Solved,
    SolveResult,
)

QUESTION_NAME = "?"


def unknown_names(equations):
    names = []
    for eq in equations:
        for q in (eq.a, eq.b, eq.c):
            if q.__class__ is str and q not in names:
                names.append(q)
            elif isinstance(q, Question) and QUESTION_NAME not in names:
                names.append(QUESTION_NAME)
    return names


def _value(q, assignment):
    if isinstance(q, int):
        return q
    if q.__class__ is str:
        return assignment.get(q)
    if isinstance(q, Question):
        return assignment.get(QUESTION_NAME)
    raise TypeError(q)


def _holds(eq, assignment):
    a = _value(eq.a, assignment)
    b = _value(eq.b, assignment)
    c = _value(eq.c, assignment)
    if a is None or b is None or c is None:
        return None  # not yet decidable
    return a + b == c


def enumerate_solutions(equations, bound=50):
    """All assignments in 0..bound satisfying every equation."""
    names = unknown_names(equations)
    solutions = []

    def extend(i, assignment):
        decided = [_holds(eq, assignment) for eq in equations]
        if any(h is False for h in decided):
            return
        if i == len(names):
            solutions.append(dict(assignment))
            return
        for value in range(bound + 1):
            assignment[names[i]] = value
            extend(i + 1, assignment)
        del assignment[names[i]]

    extend(0, {})
    return solutions


def enumerate_solutions_naive(equations, bound=50):
    """Plain product scan; only practical for a few unknowns."""
    names = unknown_names(equations)
    solutions = []
    for values in itertools.product(range(bound + 1), repeat=len(names)):
        assignment = dict(zip(names, values))
        if all(_holds(eq, assignment) for eq in equations):
            solutions.append(assignment)
    return solutions


# ---------------------------------------------------------------------------
# equation-set comparison up to renaming of unknowns


def _signature(eq, mapping):
    """Canonical form of c = a + b; the a/b pair is unordered (a + b = b + a)."""

    def slot(q):
        if isinstance(q, int):
            return ("k", q)
        if isinstance(q, Question):
            return ("q",)
        return ("v", mapping[q])

    return tuple(sorted((slot(eq.a), slot(eq.b)))) + (slot(eq.c),)


def _var_names(equations):
    names = []
    for eq in equations:
        for q in (eq.a, eq.b, eq.c):
            if q.__class__ is str and q not in names:
                names.append(q)
    return names


def equation_sets_equal(eqs_a, eqs_b) -> bool:
    """True iff the two sets match under some bijection of unknown names."""
    vars_a, vars_b = _var_names(eqs_a), _var_names(eqs_b)
    if len(vars_a) != len(vars_b) or len(eqs_a) != len(eqs_b):
        return False
    identity = {name: name for name in vars_b}
    target = sorted(_signature(eq, identity) for eq in eqs_b)
    for perm in itertools.permutations(vars_b):
        mapping = dict(zip(vars_a, perm))
        if sorted(_signature(eq, mapping) for eq in eqs_a) == target:
            return True
    return False


def equations_subset(small, big) -> bool:
    """True iff `small` maps into `big` under some injection of its unknowns."""
    vars_small, vars_big = _var_names(small), _var_names(big)
    if len(vars_small) > len(vars_big):
        return False
    identity = {name: name for name in vars_big}
    big_sigs = [_signature(eq, identity) for eq in big]
    for chosen in itertools.permutations(vars_big, len(vars_small)):
        mapping = dict(zip(vars_small, chosen))
        pool = list(big_sigs)
        ok = True
        for eq in small:
            sig = _signature(eq, mapping)
            if sig not in pool:
                ok = False
                break
            pool.remove(sig)
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# reference propagation: one full sweep over the equations per pass


class _SweepState:
    def __init__(self):
        self.binding = {}
        self.question_value = None

    def value_of(self, q):
        if isinstance(q, int):
            return q
        if q.__class__ is str:
            return self.binding.get(q)
        if isinstance(q, Question):
            return self.question_value
        raise MalformedLSI(f"not a quantity: {q!r}")

    def bind(self, q, value):
        if q.__class__ is str:
            self.binding[q] = value
        else:
            self.question_value = value


def render_equation(eq):
    """c = a + b, as the reports print it."""
    return (f"{render_quantity(eq.c)} = "
            f"{render_quantity(eq.a)} + {render_quantity(eq.b)}")


def _sweep_free_vars(equations, state):
    names = []
    for eq in equations:
        for q in (eq.a, eq.b, eq.c):
            if q.__class__ is str and q not in state.binding \
                    and q not in names:
                names.append(q)
    return names


def propagate_sweep(lsi) -> SolveResult:
    """Run the equations of a schema-instantiation list to fixpoint.

    The solver's original algorithm, kept as the reference its worklist
    must reproduce: every pass evaluates every equation, until a pass
    binds nothing.  `visits` counts the evaluations.

    Verdict precedence at fixpoint: a violated fully-known equation wins
    (contradiction), then a derived negative amount, then a bound question
    (solved), otherwise insufficiency.  Negative derivations are recorded
    but never bound, and no slot is ever rebound, so the verdict does not
    depend on equation order.
    """
    state = _SweepState()
    trace = []
    contradictions = []
    invalids = []
    flagged = set()
    visits = 0
    changed = True
    while changed:
        changed = False
        for idx, eq in enumerate(lsi):
            visits += 1
            vals = [state.value_of(q) for q in (eq.a, eq.b, eq.c)]
            unknowns = [i for i, v in enumerate(vals) if v is None]
            if not unknowns:
                if vals[0] + vals[1] != vals[2] and idx not in flagged:
                    flagged.add(idx)
                    contradictions.append(Contradiction(
                        render_equation(eq),
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
            target = (eq.a, eq.b, eq.c)[slot]
            if value < 0:
                if idx not in flagged:
                    flagged.add(idx)
                    invalids.append(Invalid(render_equation(eq), value))
                continue
            state.bind(target, value)
            known = ", ".join(
                f"{q} = {state.value_of(q)}"
                for q in (eq.a, eq.b, eq.c)
                if q.__class__ is str and q is not target
            )
            suffix = f" with {known}" if known else ""
            trace.append(
                f"{render_equation(eq)}{suffix} ⇒ {render_quantity(target)} = {value}"
            )
            changed = True
    if contradictions:
        verdict = contradictions[0]
    elif invalids:
        verdict = invalids[0]
    elif state.question_value is not None:
        verdict = Solved(state.question_value)
    else:
        verdict = Insufficient(tuple(_sweep_free_vars(lsi, state)))
    return SolveResult(verdict, dict(state.binding), trace,
                       [render_equation(eq) for eq in lsi], visits)
