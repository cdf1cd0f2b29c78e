"""Every field a package value type keeps is read while the package runs.

The static gate of test_imports.py matches fields by name, so a read of
``key.locus`` hides a ``locus`` field that another class keeps and
nothing reads.  This gate watches the fields themselves: for the length
of the test each slot of each frozen value type and of the lexicon's
``Word`` is a property that records its reads, and a fixed mix of runs
must read every slot but the exempt ones.
"""
from test_golden import EXTRA
from test_values import package_subclasses

from schemarith import cli
from schemarith.corpus import CORPUS
from schemarith.lexicon import Word, load_default_lexicon
from schemarith.quantity import _Frozen
from schemarith.schema_engine import Strategy


def recording(descriptor, field, reads):
    """A property that records a read of `field` in `reads` and gets and
    sets through the slot's own `descriptor`."""
    def get(obj):
        reads.add(field)
        return descriptor.__get__(obj, type(obj))
    return property(get, descriptor.__set__)


def watch_fields(monkeypatch, classes):
    """Make each slot of `classes` record its reads; returns the set of
    "Class.field" names and the set the reads fill."""
    fields, reads = set(), set()
    for cls in classes:
        for name in cls.__dict__.get("__slots__", ()):
            field = f"{cls.__name__}.{name}"
            fields.add(field)
            monkeypatch.setattr(cls, name, recording(cls.__dict__[name], field, reads))
    return fields, reads


#: Texts that end in each other outcome: an invalid answer, too little
#: data, a question that asks for a stated amount, and an unknown word.
OUTCOMES = (
    "Tom had 3 apples. Tom ate 5 apples. How many apples does Tom have now?",
    "Tom got 2 apples. How many apples does Tom have now?",
    "Tom had 3 apples. How many apples did Tom have in the beginning?",
    "Tom zorbed 3 apples. How many apples does Tom have now?",
)

#: Fields that no run reads: the flag that picks the corpus problems the
#: tests and the benchmark transpose, and the sentence an elementary event,
#: comparison or combine came from, kept so that recorded equations and
#: trace steps can link back to their source clause.
UNREAD_IN_A_RUN = {"CorpusProblem.pronoun_free", "ElementaryEvent.sentence",
                   "CompareProp.sentence", "CombineProp.sentence"}


def run_the_mix(capsys):
    lexicon = load_default_lexicon()
    texts = [p.text for p in CORPUS] + list(EXTRA.values())
    for strategy in Strategy:
        for text in texts:
            cli._run_text(text, lexicon, strategy, format="json")
            cli._run_text(text, lexicon, strategy, format="text", trace=True)
    codes = [cli._run_text(text, lexicon, format="json")[0] for text in OUTCOMES]
    assert codes == [4, 3, 2, 2]
    for strategy in Strategy:
        for format in ("text", "json"):
            assert cli.main(["corpus", "--format", format,
                             "--strategy", strategy.value]) == 0
    capsys.readouterr()


def test_every_field_is_read_in_a_run(monkeypatch, capsys):
    fields, reads = watch_fields(monkeypatch, [*package_subclasses(_Frozen), Word])
    run_the_mix(capsys)
    assert fields - reads == UNREAD_IN_A_RUN


def test_field_watch_sees_unread_slots_and_keeps_values(monkeypatch):
    class V(_Frozen):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self.a = a
            self.b = b

    class W:
        __slots__ = ("c", "d")

        def __init__(self, c, d):
            self.c, self.d = c, d

    fields, reads = watch_fields(monkeypatch, [V, W])
    v, w = V(1, 2), W(3, 4)
    assert (v.a, w.c) == (1, 3)
    assert sorted(fields - reads) == ["V.b", "W.d"]
    w.d = 5
    assert w.d == 5 and "W.d" in reads
    assert v == V(1, 2) and v != V(1, 3)   # equality reads through the watch too
    assert reads == {"V.a", "V.b", "W.c", "W.d"}
