"""Word tables: change-verb categories, static verbs, nouns, numbers, names.

The tables load from a line-oriented text format (see ``DEFAULT_LEXICON``
and the grammar notes in GRAMMAR.md) so new words can be added without
code changes.  A loaded lexicon is immutable and safe to share across
concurrent solver runs.
"""
from __future__ import annotations

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
    """Read-only word tables, with the ``past`` of each verb lemma and the
    ``plural`` of each noun class tabled at load by :func:`load_lexicon_text`."""

    def __init__(self):
        self.verbs = {}          # lemma -> ChangeKind | Compound | StaticState | NonChange
        self.verb_forms = {}     # inflected surface -> (lemma, Tense)
        self.number_words = {}   # word -> int
        self.noun_forms = {}     # surface -> canonical singular
        self.plural_forms = {}   # canonical singular -> plural surface
        self.supersets = {}      # canonical class -> frozenset of member classes
        self.pronouns = {}       # pronoun -> gender tag ("f"/"m"/"group")
        self.names = {}          # proper name -> gender tag

    # -- verbs ---------------------------------------------------------

    def lemmatize_verb(self, surface):
        """Map an inflected verb form to (lemma, tense); None if not a verb.

        Irregular forms come from the table; regular -ed/-ied/-s/-ies
        endings are undone and checked against the lemma list.
        """
        w = surface.lower()
        if w in self.verb_forms:
            return self.verb_forms[w]
        if w in self.verbs:
            return (w, Tense.PRESENT)
        if w.endswith("ed") and len(w) > 3:
            candidates = [w[:-1], w[:-2]]
            if len(w) > 4 and w[-3] == w[-4]:
                candidates.append(w[:-3])
            if w.endswith("ied"):
                candidates.append(w[:-3] + "y")
            for cand in candidates:
                if cand in self.verbs:
                    return (cand, Tense.PAST)
        if w.endswith("ies") and w[:-3] + "y" in self.verbs:
            return (w[:-3] + "y", Tense.PRESENT)
        if w.endswith("es") and w[:-2] in self.verbs:
            return (w[:-2], Tense.PRESENT)
        if w.endswith("s") and w[:-1] in self.verbs:
            return (w[:-1], Tense.PRESENT)
        return None

    # -- nouns ---------------------------------------------------------

    def normalize_noun(self, surface, verb):
        """Canonical singular class for a noun surface; None for proper names.

        `verb` is what ``lemmatize_verb`` reads in `surface`.  Words outside
        the table are inflected by regular rules, so fresh lower-case nouns
        are usable without lexicon edits.  A keyword, numeral or pronoun
        names no class, nor does its plural ("sevens", "ins"), a word that
        begins with no letter ("7s") or a verb form outside the noun table.
        """
        w = surface.lower()
        if self._reserved(w):
            return None
        if w in self.noun_forms:
            return self.noun_forms[w]
        if surface[:1].isupper():
            return None
        return self._regular_class(w, verb)

    def _reserved(self, w):
        return (w in KEYWORDS or w in self.number_words or w in self.pronouns
                or w.isdigit())

    def _regular_class(self, w, verb):
        """The regular singular of the lower-case `w`, whose (lemma, tense)
        is `verb`; None when `w` reads as a verb ("give", "had"), begins
        with no letter ("7s", "-3"), or when its singular or `w` less a
        final "s" is reserved ("thes", "ins")."""
        if verb is not None or not w[:1].isalpha():
            return None
        singular = _regular_noun(w)
        if self._reserved(singular) or (w[-1] == "s" and self._reserved(w[:-1])):
            return None
        return singular

    def pluralize(self, canonical, n=None) -> str:
        """`n` objects of a class: the class if n == 1, else its ``plural``."""
        return canonical if n == 1 else self.plural[canonical]

    # -- numbers ---------------------------------------------------------

    def parse_number(self, word):
        """Integer value of a digit string or number word; None otherwise.

        A digit string of more than MAX_DIGITS digits raises NumeralTooLong.
        """
        w = word.lower()
        if w.isdigit():
            return _numeral(w)
        return self.number_words.get(w)

    # -- loading ---------------------------------------------------------

    def word(self, surface):
        """The Word of a token outside ``words``: a numeral of three or
        more digits, another casing of a tabled word, or else a word of the
        regular inflections.
        """
        if surface.isdigit():
            return Word(surface, surface, _numeral(surface), None, None, None, False)
        text = surface.lower()
        word = self.words.get(text)
        if word is None:
            verb = self.lemmatize_verb(text)
            word = Word(text, text, None, verb, self._regular_class(text, verb),
                        None, False)
        return self._cased(surface, word)

    def _cased(self, surface, word):
        """The Word of `surface`, another casing of the lower-case `word`.

        Capitalised, only a tabled noun names a class, and the token is a
        proper name if the names list it as written or its word is no
        keyword, noun form, verb, numeral or pronoun."""
        text, noun, proper = word.text, word.noun, False
        if surface[:1].isupper():
            noun = self.noun_forms.get(text)
            proper = surface in self.names or not (
                text in KEYWORDS or text in self.noun_forms or word.verb is not None
                or word.number is not None or word.pronoun is not None)
        return Word(surface, text, word.number, word.verb, noun, word.pronoun, proper)

    def _freeze(self):
        # noun class -> plural surface: the tabled plural, else the regular one
        plural = {cls: _regular_plural(cls) for cls in self.noun_forms.values()}
        self.plural = _Plurals(plural, **self.plural_forms)
        # lemma -> its past surface: the lemma's tabled past form, else its
        # head word's, by the table or the regular rules, particles kept
        forms = {lemma: form for form, (lemma, tense) in self.verb_forms.items()
                 if tense is Tense.PAST}
        self.past = {}
        for lemma in self.verbs:
            head, _, particles = lemma.partition(" ")
            past = forms.get(head)
            if past is None:
                if head.endswith("e"):
                    past = head + "d"
                elif head.endswith("y") and len(head) > 1 and head[-2] not in "aeiou":
                    past = head[:-1] + "ied"
                else:
                    past = head + "ed"
            if particles:
                past += " " + particles
            self.past[lemma] = forms.get(lemma, past)
        # phrasal lemma minus its last one or two words -> those particles,
        # the longer first; "fall" -> ("out", "of"), ("into",), ("from",)
        self.phrasal = {}
        for span in (2, 1):
            for parts in (lemma.split(" ") for lemma in self.verbs):
                if len(parts) > span:
                    self.phrasal.setdefault(" ".join(parts[:-span]), []).append(
                        tuple(parts[-span:]))
        # surface -> Word: the numerals of at most two digits ("0"-"99" and
        # "00"-"09"), then every surface in the tables lower-cased and
        # capitalised.  A Word is read-only, so one is shared by every text
        # and thread.
        self.words = words = {
            digits: Word(digits, digits, n % 100, None, None, None, False)
            for n, digits in enumerate(_NUMERALS)}
        tables = (KEYWORDS, self.verbs, self.verb_forms, self.number_words,
                  self.noun_forms, self.pronouns, self.names)
        for text in {surface.lower() for table in tables for surface in table}:
            verb = self.lemmatize_verb(text)
            word = words[text] = Word(
                text, text, self.parse_number(text), verb,
                self.normalize_noun(text, verb), self.pronouns.get(text), False)
            capital = text.capitalize()
            if capital != text:
                words[capital] = self._cased(capital, word)


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
    regular plural, which is not stored: a loaded lexicon never changes."""

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


@_collector_paused
def load_lexicon_text(text) -> Lexicon:
    """A lexicon from its records, one ``kind<TAB>lemma<TAB>payload`` a line.

    A record the tables cannot use is refused with a LexiconFormatError
    that names its line: a malformed payload, a number that is not a
    decimal of at most MAX_DIGITS digits, a form of a verb that no record
    tables (as a lemma or the head of a phrasal lemma), a number, noun or
    pronoun whose word holds an upper-case letter (words are looked up
    lower-cased), a pronoun or name whose gender is not f, m or group, a
    noun that holds a space, and a noun that is a reserved word or whose
    class the noun rule forbids (see ``_regular_class``).  Forms and the
    noun rule are checked once every record is read.
    """
    lex = Lexicon()
    forms, nouns = [], []   # (line, lemma, payload), checked against the whole lexicon
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconFormatError(f"line {lineno}: expected 3 tab-separated fields")
        kind, lemma, payload = fields
        try:
            if kind in ("number", "noun", "pronoun") and lemma != lemma.lower():
                raise LexiconFormatError(f"{kind} {lemma!r} holds an upper-case letter")
            if kind in ("pronoun", "name") and payload not in ("f", "m", "group"):
                raise LexiconFormatError(
                    f"{kind} {lemma!r} has gender {payload!r}, not f, m or group")
            if kind == "verb":
                lex.verbs[lemma] = _parse_verb_payload(payload)
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
    # the classes that passed, each checked once; a tabled class is a noun
    # even where it also reads as a verb
    named = set()
    for lineno, surface, cls in nouns:
        if lex._reserved(surface.lower()) or (
                cls not in named and lex._regular_class(cls.lower(), None) is None):
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
    """The embedded lexicon (cached; lexicons are immutable)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = load_lexicon_text(DEFAULT_LEXICON)
    return _DEFAULT
