"""Word tables: change-verb categories, static verbs, nouns, numbers, names.

The tables load from a line-oriented text format (see ``DEFAULT_LEXICON``
and the grammar notes in GRAMMAR.md) so new words can be added without
code changes.  A loaded lexicon is safe to share across concurrent solver
runs: its tables are not written after load, and its table of Words only
memoises the Word of each tabled surface the first time a text reads it.
"""
from .quantity import TimePoint, _Enum, _Frozen, _collector_paused


class Direction(_Enum):
    """The four directions of a change, each with its words and sign.

    A member's value is its name in the lexicon's records.  ``slot`` is
    the change-amount slot of a schema instantiation and ``passive`` the
    verb of the passive form "N objects were <passive> ..."; ``place_prep``
    precedes a place; ``owner_verb`` is the active verb with the owner as
    subject; ``adds`` says whether the change adds to its locus's amount.
    """

    IN = "in", "in", "transferred", "into", "got", True
    OUT = "out", "out", "transferred", "out of", "forfeited", False
    CREATE = "create", "created", "created", "in", "created", True
    TERMINATE = "terminate", "terminated", "terminated", "in", "terminated", False

    def __new__(cls, value, *words):
        member = object.__new__(cls)
        member._value_ = value
        (member.slot, member.passive, member.place_prep, member.owner_verb,
         member.adds) = words
        return member


class LocusKind(_Enum):
    OWNERSHIP = "ownership"
    PLACE = "place"


class ChangeKind(_Enum):
    """The eight admissible change situations: four directions, each over
    an ownership locus or a place locus.  A member's value is its
    (Direction, LocusKind); it carries them as ``direction`` and
    ``locus_kind``, and ``schema`` is the name of its change schema, as
    instantiations print it.  An elementary verb's classification is its
    member.
    """

    IN_OWNERSHIP = Direction.IN, LocusKind.OWNERSHIP
    IN_PLACE = Direction.IN, LocusKind.PLACE
    OUT_OWNERSHIP = Direction.OUT, LocusKind.OWNERSHIP
    OUT_PLACE = Direction.OUT, LocusKind.PLACE
    CREATE_OWNERSHIP = Direction.CREATE, LocusKind.OWNERSHIP
    CREATE_PLACE = Direction.CREATE, LocusKind.PLACE
    TERMINATE_OWNERSHIP = Direction.TERMINATE, LocusKind.OWNERSHIP
    TERMINATE_PLACE = Direction.TERMINATE, LocusKind.PLACE

    def __init__(self, direction, locus_kind):
        self.direction = direction
        self.locus_kind = locus_kind
        if direction is Direction.CREATE:
            self.schema = f"Creation ({locus_kind.value})"
        elif direction is Direction.TERMINATE:
            self.schema = f"Termination ({locus_kind.value})"
        else:
            self.schema = f"Transfer-{direction.name.title()}-{locus_kind.name.title()}"


class Role(_Enum):
    AGENT = "agent"
    RECIPIENT = "recipient"
    SOURCE = "source"
    DESTINATION = "destination"


class Tense(_Enum):
    PAST = "past"
    PRESENT = "present"


class Compound(_Frozen):
    """A verb denoting two (or more) elementary changes at once.

    Each component names the change it performs and the sentence
    participant whose locus it affects.
    """

    __slots__ = ("components",)

    def __init__(self, components):  # of (ChangeKind, Role)
        if len(components) < 2:
            raise ValueError("compound verbs have at least two components")
        self.components = components


class StaticState(_Frozen):
    """A verb describing an amount at rest rather than a change.

    ``hint`` is the TimePoint the verb states the amount at ("remain":
    final), or None when the verb's tense sets it ("have", "be").
    """

    __slots__ = ("hint",)

    def __init__(self, hint):
        self.hint = hint


class NonChange(_Frozen):
    """A verb with no amount semantics (auxiliaries)."""

    __slots__ = ()


class LexiconFormatError(ValueError):
    pass


#: Digits in the longest numeral read.  Sums of such amounts stay far
#: below the interpreter's limit on printing an int (4,300 digits).
MAX_DIGITS = 1000


class NumeralTooLong(ValueError):
    def __init__(self, digits):
        super().__init__(f"numeral of {digits} digits is too long (at most {MAX_DIGITS})")


#: The grammar's own words; with the verbs, nouns, numerals and pronouns
#: they are reserved, so a capitalised one never reads as a proper name.
KEYWORDS = frozenset((
    "there", "how", "many", "more", "less", "than", "altogether", "and",
    "if", "now", "in", "the", "beginning", "to", "from", "into", "onto",
    "out", "of", "a", "an", "by",
))


class Word:
    """What the parser asks about one token, keyed by its surface as written.

    ``text`` is the surface lower-cased, ``number`` its value as a numeral,
    ``verb`` its (lemma, tense), ``noun`` its object class (a capitalised
    token names one only when the table lists its noun form), ``pronoun``
    its gender tag and ``proper`` whether it reads as a proper name.  A
    word may carry several classes: "put" is a lemma and a past form.
    """

    __slots__ = ("surface", "text", "number", "verb", "noun", "pronoun", "proper")

    def __init__(self, surface, text, number, verb, noun, pronoun, proper):
        self.surface = surface
        self.text = text
        self.number = number
        self.verb = verb
        self.noun = noun
        self.pronoun = pronoun
        self.proper = proper


def _parse_kind(direction: str, locus: str) -> ChangeKind:
    try:
        return ChangeKind((Direction(direction), LocusKind(locus)))
    except ValueError as exc:
        raise LexiconFormatError(f"bad change kind {direction}:{locus}") from exc


def _parse_verb_payload(payload: str):
    head, _, rest = payload.partition(":")
    if head == "elementary":
        direction, _, locus = rest.partition(":")
        return _parse_kind(direction, locus)
    if head == "compound":
        components = []
        for part in rest.split("+"):
            fields = part.split(":")
            if len(fields) != 3:
                raise LexiconFormatError(f"bad compound component {part!r}")
            direction, locus, role = fields
            components.append((_parse_kind(direction, locus), Role(role)))
        return Compound(tuple(components))
    if head == "static":
        return StaticState(None if rest == "tense" else TimePoint(rest))
    if head == "nonchange":
        return NonChange()
    raise LexiconFormatError(f"bad verb payload {payload!r}")


class Lexicon:
    """Word tables, which :func:`load_lexicon_text` builds and nothing
    writes after, with the ``past`` of each verb lemma, the ``plural`` of
    each noun class and the ``tabled`` lower-case texts; and ``words``,
    the Word of each tabled text and of its capitalised form once a text
    has read it.  One derivation, ``_words``, reads a surface's verb,
    number, noun and pronoun from the tables once and builds its
    lower-case Word and another casing's from those fields; ``word`` runs
    it for a token outside ``words``."""

    def __init__(self):
        self.verbs = {}          # lemma -> ChangeKind | Compound | StaticState | NonChange
        self.verb_forms = {}     # inflected surface -> (lemma, Tense)
        self.number_words = {}   # word -> int
        self.noun_forms = {}     # surface -> canonical singular
        self.plural_forms = {}   # canonical singular -> plural surface
        self.supersets = {}      # canonical class -> frozenset of member classes
        self.pronouns = {}       # pronoun -> gender tag ("f"/"m"/"group")
        self.names = {}          # proper name -> gender tag

    def pluralize(self, canonical, n=None) -> str:
        """`n` objects of a class: the class if n == 1, else its ``plural``."""
        return canonical if n == 1 else self.plural[canonical]

    def word(self, surface):
        """The Word of a token outside ``words``, by the one derivation of
        ``_words``.  A tabled text's Word, and its capitalised form's when
        `surface` is that form, is stored in ``words`` and returned from
        there; any other token (a numeral of three or more digits, another
        casing of a tabled word, or a word of the regular inflections) is
        derived again on every miss, so ``words`` holds at most the tabled
        texts and their capitalised forms.

        Writing the table after load is safe: each entry is a pure function
        of the load's tables, so any derivation of a surface gives a Word
        equal to any other's, and ``dict.setdefault`` is atomic, so threads
        that derive one surface at once all return the one Word stored."""
        text = surface.lower()
        word, cased = self._words(text, surface)
        if text in self.tabled:
            word = self.words.setdefault(text, word)
            if surface == text:
                return word
            if surface == text.capitalize():
                return self.words.setdefault(surface, cased)
        return cased

    def _words(self, text, cased):
        """The Words of the lower-case `text` and of `cased`, `text` itself
        or another casing of it, from one reading of the tables.

        A digit string is a numeral, and a word the verb tables lack is
        tried against the regular verb endings.  A keyword, numeral or
        pronoun is reserved.  In lower case a reserved word names no class,
        a tabled noun its tabled class, and another word that reads as no
        verb the class of the regular noun rules (``_regular_class``).
        Capitalised, only a tabled noun names a class, and the token is a
        proper name if the names list it as written or its word is no
        reserved word, noun form or verb.
        """
        number = _numeral(text) if text.isdigit() else self.number_words.get(text)
        pronoun = self.pronouns.get(text)
        verb = self.verb_forms.get(text)
        if verb is None:
            verb = ((text, Tense.PRESENT) if text in self.verbs
                    else _regular_verb(text, self.verbs))
        tabled = self.noun_forms.get(text)
        reserved = text in KEYWORDS or number is not None or pronoun is not None
        if reserved:
            noun = None
        elif tabled is not None or verb is not None or text[:1].isupper():
            noun = tabled   # isupper: a letter with no lower case, as U+03D2
        else:
            noun = self._regular_class(text)
        word = Word(text, text, number, verb, noun, pronoun, False)
        if cased[:1].isupper():
            proper = cased in self.names or not (
                reserved or tabled is not None or verb is not None)
            return word, Word(cased, text, number, verb, tabled, pronoun, proper)
        if cased == text:
            return word, word
        return word, Word(cased, text, number, verb, noun, pronoun, False)

    def _reserved(self, w):
        return (w in KEYWORDS or w in self.number_words or w in self.pronouns
                or w.isdigit())

    def _regular_class(self, w):
        """The regular singular of the lower-case `w`; None when `w` begins
        with no letter ("7s", "-3"), or when its singular or `w` less a
        final "s" is reserved ("thes", "ins")."""
        if not w[:1].isalpha():
            return None
        singular = _regular_noun(w)
        if self._reserved(singular) or (w[-1] == "s" and self._reserved(w[:-1])):
            return None
        return singular

    def _freeze(self):
        """Table the plurals, the past forms, the phrasal heads and the
        tabled texts, and start the table of Words empty; only ``word``
        writes to the lexicon after this, and only to ``words``."""
        # noun class -> plural surface: the tabled plural, else the regular one
        self.plural = plural = _Plurals.fromkeys(self.noun_forms.values())
        plural.update(self.plural_forms)
        for cls, surface in plural.items():
            if surface is None:
                plural[cls] = _regular_plural(cls)
        # lemma -> its past surface: the lemma's tabled past form, else its
        # head word's, by the table or the regular rules, particles kept
        forms = {lemma: form for form, (lemma, tense) in self.verb_forms.items()
                 if tense is Tense.PAST}
        self.past = {}
        for lemma in self.verbs:
            past = forms.get(lemma)
            if past is None:
                head, _, particles = lemma.partition(" ")
                past = forms.get(head)
                if past is None:
                    if head[-1:] == "e":
                        past = head + "d"
                    elif head[-1:] == "y" and head[-2:-1] not in "aeiou":
                        past = head[:-1] + "ied"
                    else:
                        past = head + "ed"
                if particles:
                    past += " " + particles
            self.past[lemma] = past
        # phrasal lemma minus its last one or two words -> those particles,
        # the longer first; "fall" -> ("out", "of"), ("into",), ("from",)
        self.phrasal = {}
        phrasal = [lemma.split(" ") for lemma in self.verbs if " " in lemma]
        for span in (2, 1):
            for parts in phrasal:
                if len(parts) > span:
                    self.phrasal.setdefault(" ".join(parts[:-span]), []).append(
                        tuple(parts[-span:]))
        # the lower-case texts whose Words ``word`` keeps: the numerals of at
        # most two digits ("0"-"99" and "00"-"09") and every surface in the
        # tables lower-cased.  The loader keeps every table but the names
        # lower-case.  A Word is read-only, so one is shared by every text
        # and thread.
        self.tabled = {*_NUMERALS, *KEYWORDS, *self.verbs, *self.verb_forms,
                       *self.number_words, *self.noun_forms, *self.pronouns,
                       *map(str.lower, self.names)}
        self.words = {}


_NUMERALS = [str(n) for n in range(100)] + [f"{n:02}" for n in range(10)]


def _numeral(digits):
    if len(digits) > MAX_DIGITS:
        raise NumeralTooLong(len(digits))
    return int(digits)


def _regular_plural(canonical):
    """Plural of a noun class by the regular rules."""
    if canonical.endswith("y") and len(canonical) > 1 and canonical[-2] not in "aeiou":
        return canonical[:-1] + "ies"
    if canonical.endswith(("s", "x", "ch", "sh")):
        return canonical + "es"
    return canonical + "s"


class _Plurals(dict):
    """Noun class -> plural surface.  An untabled class reads as its
    regular plural, which is not stored: a loaded lexicon's tables never
    change."""

    __slots__ = ()
    __missing__ = staticmethod(_regular_plural)


def _regular_noun(w):
    """Canonical singular of a lower-cased noun by the regular rules."""
    if w.endswith("ies") and len(w) > 4:
        return w[:-3] + "y"
    if w.endswith(("xes", "ches", "shes", "sses")):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss") and len(w) > 3:
        return w[:-1]
    return w


def _regular_verb(w, verbs):
    """(lemma, tense) of the lower-case `w` by the regular endings, past
    -ed/-d/doubled-consonant -ed/-ied and present -ies/-es/-s, the lemma
    one of `verbs`; None if no ending gives one."""
    if w[-2:] == "ed" and len(w) > 3:
        stems = [w[:-1], w[:-2]]
        if len(w) > 4 and w[-3] == w[-4]:
            stems.append(w[:-3])
        if w[-3:] == "ied":
            stems.append(w[:-3] + "y")
        for stem in stems:
            if stem in verbs:
                return (stem, Tense.PAST)
    elif w[-1:] == "s":
        if w[-3:] == "ies" and w[:-3] + "y" in verbs:
            return (w[:-3] + "y", Tense.PRESENT)
        if w[-2:] == "es" and w[:-2] in verbs:
            return (w[:-2], Tense.PRESENT)
        if w[:-1] in verbs:
            return (w[:-1], Tense.PRESENT)
    return None


@_collector_paused
def load_lexicon_text(text) -> Lexicon:
    """A lexicon from its records, one ``kind<TAB>lemma<TAB>payload`` a line.

    A record the tables cannot use is refused with a LexiconFormatError
    that names its line: a malformed payload, a number that is not a
    decimal of at most MAX_DIGITS digits, a form of a verb that no record
    tables (as a lemma or the head of a phrasal lemma), a verb, form,
    number, noun or pronoun whose word holds an upper-case letter (words
    are looked up lower-cased), a verb, form, number, pronoun or name whose
    word is a digit string (it reads as a numeral), a pronoun or name whose
    gender is not f, m or group, a noun that holds a space, and a noun that
    is a reserved word or whose class the noun rule forbids (see
    ``_regular_class``).  Forms and the noun rule are checked once every
    record is read.  Each distinct verb payload is parsed once; its value
    is immutable, so the lemmas that share it share one value.  No Word is
    built: ``Lexicon.word`` builds each when a text first reads it.
    """
    lex = Lexicon()
    forms, nouns = [], []   # (line, lemma, payload), checked against the whole lexicon
    payloads = {}           # verb payload -> its value
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconFormatError(f"line {lineno}: expected 3 tab-separated fields")
        kind, lemma, payload = fields
        try:
            if kind in ("verb", "form", "number", "noun", "pronoun") and lemma != lemma.lower():
                raise LexiconFormatError(f"{kind} {lemma!r} holds an upper-case letter")
            if kind in ("verb", "form", "number", "pronoun", "name") and lemma.isdigit():
                raise LexiconFormatError(f"{kind} {lemma!r} is a numeral")
            if kind in ("pronoun", "name") and payload not in ("f", "m", "group"):
                raise LexiconFormatError(
                    f"{kind} {lemma!r} has gender {payload!r}, not f, m or group")
            if kind == "verb":
                verb = payloads.get(payload)
                if verb is None:
                    verb = payloads[payload] = _parse_verb_payload(payload)
                lex.verbs[lemma] = verb
            elif kind == "form":
                base, _, tense = payload.partition(":")
                lex.verb_forms[lemma] = (base, Tense(tense))
                forms.append((lineno, lemma, base))
            elif kind == "number":
                if not (payload.isascii() and payload.isdigit()):
                    raise LexiconFormatError(f"number {payload!r} is not a nonnegative decimal")
                lex.number_words[lemma] = _numeral(payload)
            elif kind == "noun":
                if " " in lemma or " " in payload:
                    raise LexiconFormatError(f"noun {lemma!r} of class {payload!r} holds a space")
                lex.noun_forms[lemma] = payload
                if lemma != payload:
                    lex.plural_forms.setdefault(payload, lemma)
                nouns.append((lineno, lemma, payload))
            elif kind == "superset":
                lex.supersets[lemma] = frozenset(payload.split(","))
            elif kind == "pronoun":
                lex.pronouns[lemma] = payload
            elif kind == "name":
                lex.names[lemma] = payload
            else:
                raise LexiconFormatError(f"unknown record kind {kind!r}")
        except ValueError as exc:
            raise LexiconFormatError(f"line {lineno}: {exc}") from None
    lex._freeze()
    for lineno, form, base in forms:
        if base not in lex.verbs and base not in lex.phrasal:
            raise LexiconFormatError(
                f"line {lineno}: form {form!r} is of {base!r}, which no verb record tables")
    # a reserved surface names no class; the classes that passed,
    # each checked once; a tabled class is a noun even where it also reads
    # as a verb
    named = set()
    for lineno, surface, cls in nouns:
        if lex._reserved(surface) or (
                cls not in named and lex._regular_class(cls.lower()) is None):
            raise LexiconFormatError(
                f"line {lineno}: noun {surface!r} of class {cls!r} breaks the noun rule")
        named.add(cls)
    return lex


def load_lexicon_file(path) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return load_lexicon_text(fh.read())


# Record format: kind<TAB>lemma<TAB>payload. See GRAMMAR.md for the payload
# grammar. "send" also occurs as a change of place in ordinary usage; it is
# tabled once, as a change of ownership.
DEFAULT_LEXICON = """\
# --- change verbs: transfer of ownership -----------------------------
verb\treceive\telementary:in:ownership
verb\tget\telementary:in:ownership
verb\tobtain\telementary:in:ownership
verb\tlose\telementary:out:ownership
verb\tforfeit\telementary:out:ownership
verb\tsend\telementary:out:ownership
# --- change verbs: transfer of place ---------------------------------
verb\tfetch\telementary:in:place
verb\tbring\telementary:in:place
verb\tput in\telementary:in:place
verb\tput\telementary:in:place
verb\tlay\telementary:in:place
verb\tenter\telementary:in:place
verb\tfall into\telementary:in:place
verb\tadd\telementary:in:place
verb\ttake out\telementary:out:place
verb\ttake away\telementary:out:place
verb\texit\telementary:out:place
verb\tgo away\telementary:out:place
verb\tdrag out\telementary:out:place
verb\tfall from\telementary:out:place
verb\tfall out of\telementary:out:place
verb\tleave\telementary:out:place
# --- creation / termination (locus resolved per sentence) ------------
verb\tbuild\telementary:create:place
verb\tbe born\telementary:create:place
verb\tcreate\telementary:create:place
verb\tmake\telementary:create:place
verb\teat\telementary:terminate:place
verb\tdestroy\telementary:terminate:place
verb\tdie\telementary:terminate:place
verb\tkill\telementary:terminate:place
# --- compound change verbs (two elementary changes each) -------------
verb\tgive\tcompound:out:ownership:agent+in:ownership:recipient
verb\tbuy\tcompound:in:ownership:agent+out:ownership:source
verb\tpay\tcompound:out:ownership:agent+in:ownership:recipient
verb\tsell\tcompound:out:ownership:agent+in:ownership:recipient
verb\tdonate\tcompound:out:ownership:agent+in:ownership:recipient
verb\tsteal\tcompound:in:ownership:agent+out:ownership:source
verb\ttransfer\tcompound:out:place:source+in:place:destination
verb\tmove\tcompound:out:place:source+in:place:destination
# --- static and auxiliary verbs ---------------------------------------
verb\thave\tstatic:tense
verb\tbe\tstatic:tense
verb\tremain\tstatic:final
verb\tstay\tstatic:final
verb\tdo\tnonchange
# --- irregular verb forms ---------------------------------------------
form\thad\thave:past
form\thas\thave:present
form\twas\tbe:past
form\twere\tbe:past
form\tis\tbe:present
form\tare\tbe:present
form\tdid\tdo:past
form\tdoes\tdo:present
form\tgave\tgive:past
form\tgot\tget:past
form\tput\tput:past
form\tlaid\tlay:past
form\tfell\tfall:past
form\ttook\ttake:past
form\twent\tgo:past
form\tbuilt\tbuild:past
form\tmade\tmake:past
form\tate\teat:past
form\tbought\tbuy:past
form\tpaid\tpay:past
form\tsold\tsell:past
form\tstole\tsteal:past
form\tsent\tsend:past
form\tlost\tlose:past
form\tleft\tleave:past
form\tbrought\tbring:past
form\tborn\tbe born:past
form\ttransferred\ttransfer:past
form\tdragged\tdrag out:past
# --- number words ------------------------------------------------------
number\tzero\t0
number\tone\t1
number\ttwo\t2
number\tthree\t3
number\tfour\t4
number\tfive\t5
number\tsix\t6
number\tseven\t7
number\teight\t8
number\tnine\t9
number\tten\t10
number\televen\t11
number\ttwelve\t12
number\tthirteen\t13
number\tfourteen\t14
number\tfifteen\t15
number\tsixteen\t16
number\tseventeen\t17
number\teighteen\t18
number\tnineteen\t19
number\ttwenty\t20
# --- nouns (surface -> canonical singular) -----------------------------
noun\tapple\tapple
noun\tapples\tapple
noun\tcandy\tcandy
noun\tcandies\tcandy
noun\tplum\tplum
noun\tplums\tplum
noun\tdoll\tdoll
noun\tdolls\tdoll
noun\tflower\tflower
noun\tflowers\tflower
noun\tnut\tnut
noun\tnuts\tnut
noun\tegg\tegg
noun\teggs\tegg
noun\tticket\tticket
noun\ttickets\tticket
noun\tboy\tboy
noun\tboys\tboy
noun\tgirl\tgirl
noun\tgirls\tgirl
noun\tchild\tchild
noun\tchildren\tchild
noun\tbasket\tbasket
noun\tbaskets\tbasket
noun\troom\troom
noun\trooms\troom
noun\trefrigerator\trefrigerator
noun\trefrigerators\trefrigerator
noun\tbox\tbox
noun\tboxes\tbox
noun\thouse\thouse
noun\thouses\thouse
noun\tvillage\tvillage
noun\tvillages\tvillage
noun\tmarble\tmarble
noun\tmarbles\tmarble
noun\tstone\tstone
noun\tstones\tstone
noun\tpencil\tpencil
noun\tpencils\tpencil
noun\tgarden\tgarden
noun\tgardens\tgarden
noun\ttoy\ttoy
noun\ttoys\ttoy
noun\tbook\tbook
noun\tbooks\tbook
# --- class supersets ----------------------------------------------------
superset\tchild\tgirl,boy
# --- pronouns ------------------------------------------------------------
pronoun\tshe\tf
pronoun\ther\tf
pronoun\the\tm
pronoun\thim\tm
pronoun\tthey\tgroup
# --- proper names and grammatical gender ---------------------------------
name\tRuth\tf
name\tMary\tf
name\tSara\tf
name\tSusan\tf
name\tAnn\tf
name\tClara\tf
name\tAlice\tf
name\tEve\tf
name\tDavid\tm
name\tJohn\tm
name\tTom\tm
name\tDan\tm
name\tFred\tm
name\tBob\tm
name\tAdam\tm
"""

_DEFAULT = None


def load_default_lexicon() -> Lexicon:
    """The embedded lexicon, loaded once per process and shared: its
    tables never change, and its ``words`` only fill as texts read them."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_lexicon_text(DEFAULT_LEXICON)
    return _DEFAULT
