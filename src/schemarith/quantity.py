"""Three-valued amount slots shared by every stage of the pipeline.

An amount in a problem is either a stated nonnegative ``int``, an unknown
introduced while building the representation, which is the ``str`` of its
name, or the single question mark the problem asks about; no two of these
are equal.

It also holds ``_collector_paused``, the one pause of the cyclic collector
that the lexicon load, a run, its reports and the CLI share.
"""
from __future__ import annotations

import gc
from enum import Enum
from operator import attrgetter


def _collector_paused(run):
    """`run` with the cyclic collector paused and then restored."""
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    paused.__name__ = paused.__qualname__ = run.__name__
    paused.__doc__, paused.__wrapped__ = run.__doc__, run
    return paused


class _Enum(Enum):
    """Base of the package's enums: members are singletons compared by
    identity, so they hash by identity in C, not by name in Python."""

    __hash__ = object.__hash__


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, in constructor order, and
    its ``__init__`` sets each with one plain ``self.<field> = <arg>``;
    equality and hashing compare the fields that ``_key`` gets.  A class
    with fields that names no ``_key`` gets all of its own fields, in
    order; one that leaves a field out of equality names a ``_key`` that
    skips it.  Instances of different classes are never equal.

    A value never changes once built.  That is a contract, not a runtime
    refusal: a class that overrode attribute assignment would keep CPython
    from specialising the stores in ``__init__``.  A static gate in the tests
    checks that the package assigns and deletes no field anywhere else,
    and a caller must not either, since a key's hash would then change.
    With no ``__dict__``, an attribute that is not a field is still
    refused.
    """

    __slots__ = ()
    _key = staticmethod(lambda self: ())   # a type without fields has one value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__", ())
        if fields and "_key" not in cls.__dict__:
            cls._key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class TimePoint(_Enum):
    INITIAL = "initial"
    FINAL = "final"


class Question(_Frozen):
    """The amount a problem asks for.  Its one instance is QUESTION, which
    ``Question()`` returns, so it hashes and compares by identity, in C."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__

    def __new__(cls):
        return QUESTION

    def __str__(self):
        return "?"


#: The unique question slot of a problem.
QUESTION = object.__new__(Question)


def render_quantity(q) -> str:
    cls = q.__class__
    if cls is str or cls is int or q is QUESTION:
        return str(q)
    raise TypeError(f"not a quantity: {q!r}")
