"""Three-valued amount slots shared by every stage of the pipeline.

An amount in a problem is either a stated nonnegative integer, a named
unknown introduced while building the representation, or the single
question mark the problem asks about.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class TimePoint(Enum):
    INITIAL = "initial"
    FINAL = "final"


@dataclass(frozen=True)
class Known:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("amounts are nonnegative")


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Question:
    pass


#: The unique question slot of a problem. Compare with ``is`` or ``==``;
#: all Question instances are equal.
QUESTION = Question()


def render_quantity(q) -> str:
    if isinstance(q, Known):
        return str(q.value)
    if isinstance(q, Var):
        return q.name
    if isinstance(q, Question):
        return "?"
    raise TypeError(f"not a quantity: {q!r}")
