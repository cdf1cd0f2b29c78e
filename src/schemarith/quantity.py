"""Three-valued amount slots shared by every stage of the pipeline.

An amount in a problem is either a stated nonnegative ``int``, an unknown
introduced while building the representation, which is the ``str`` of its
name, or the single question mark the problem asks about; no two of these
are equal.

It also holds ``_collector_paused``, the one pause of the cyclic collector
that the lexicon load, a run, its reports and the CLI share, and ``_Enum``,
the base of the package's enums.  ``_Enum`` keeps the part of the standard
``enum.Enum`` contract that the package reads, without importing ``enum``:

- each public name of a class body that is not a descriptor, such as a
  method, is a member, made once with the class, in definition order, and
  read as a plain class attribute.  ``Cls(value)`` and ``Cls(member)``
  return it; ``Cls`` of anything else raises ``ValueError``, worded as
  Enum words it (``'future' is not a valid Tense``);
- members hash and compare by identity, in C, and a copy, a deep copy or
  an unpickled member is the member itself;
- the class iterates over its members and ``len`` counts them; a member
  has its ``name`` and ``value`` and prints as Enum prints it;
- a tuple value is unpacked into the class's own ``__new__``, which sets
  the member's ``_value_``, or else into its ``__init__``.
"""
import gc
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


class _EnumType(type):
    """Makes the members of an _Enum class, and looks them up by value."""

    def __new__(meta, name, bases, namespace):
        cls = super().__new__(meta, name, bases, namespace)
        cls._members, cls._by_value = [], {}
        for key, value in namespace.items():
            if key[0] == "_" or hasattr(value, "__get__"):
                continue
            args = value if isinstance(value, tuple) else (value,)
            member = (object.__new__(cls) if cls.__new__ is object.__new__
                      else cls.__new__(cls, *args))
            member._name_ = key
            if not hasattr(member, "_value_"):
                member._value_ = value
            member.__init__(*args)
            setattr(cls, key, member)
            cls._members.append(member)
            cls._by_value[member._value_] = cls._by_value[member] = member
        return cls

    def __call__(cls, value):
        try:
            return cls._by_value[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid {cls.__qualname__}") from None

    def __iter__(cls):
        return iter(cls._members)

    def __len__(cls):
        return len(cls._members)


class _Enum(metaclass=_EnumType):
    """Base of the package's enums; the module docstring gives its contract."""

    name = property(attrgetter("_name_"))
    value = property(attrgetter("_value_"))

    def __init__(self, *args):
        pass

    def __reduce__(self):
        return self.__class__, (self._value_,)

    def __repr__(self):
        return f"<{self.__class__.__name__}.{self._name_}: {self._value_!r}>"

    def __str__(self):
        return f"{self.__class__.__name__}.{self._name_}"


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
