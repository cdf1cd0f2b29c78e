"""Tokenizer and recursive-descent parser for the controlled problem English.

The grammar (documented in GRAMMAR.md) covers possession and existential
states, transfer/creation/termination events, comparatives, combine
statements, and the question forms.  The tokenizer reads each sentence
into one list of Words and hands on each clause as a span of that list,
which the clause parser reads in place.  Each clause parses to one or more
raw propositions; amounts are plain ints except in interrogative clauses,
which carry the Question slot.
"""
from operator import attrgetter

from .lexicon import (
    ChangeKind,
    Compound,
    Direction,
    LocusKind,
    NumeralTooLong,
    StaticState,
    Tense,
    Word,
)
from .quantity import QUESTION, Question, TimePoint, _Enum, _Frozen


# ---------------------------------------------------------------------------
# errors


class ProblemTextError(Exception):
    """Base class for failures to understand the problem text."""


class EmptyInput(ProblemTextError):
    def __init__(self):
        super().__init__("empty problem text")


class ParseError(ProblemTextError):
    def __init__(self, sentence, reason):
        self.sentence = sentence
        super().__init__(f"sentence {sentence + 1}: {reason}")


class UnknownWord(ParseError):
    def __init__(self, sentence, token):
        super().__init__(sentence, f"unknown word {token!r}")


class NoQuestion(ProblemTextError):
    def __init__(self):
        super().__init__("problem text contains no question")


class MultipleQuestions(ProblemTextError):
    def __init__(self, count):
        super().__init__(f"problem text contains {count} questions, expected one")


# ---------------------------------------------------------------------------
# entities, loci, propositions


class EntityKind(_Enum):
    PROPER = "proper"
    CLASS = "class"
    GROUP = "group"


# The members read on every clause and event, as module names: one dict
# lookup each, where a read through the class is a global and an attribute.
_PROPER, _CLASS = EntityKind.PROPER, EntityKind.CLASS
_OWNERSHIP, _PLACE, _OUT = LocusKind.OWNERSHIP, LocusKind.PLACE, Direction.OUT


class Entity(_Frozen):
    __slots__ = ("name", "kind", "cardinality")

    def __init__(self, name, kind, cardinality=None):
        self.name = name
        self.kind = kind
        # the numeral of a subject like "5 girls"; metadata
        self.cardinality = cardinality


THEY = Entity("they", EntityKind.GROUP)


# A locus is where an amount is held: an owner's holdings or a place.  Its
# key is its kind and its entity's fields, read in C, so that keys of loci
# hash and compare without a call to Entity.__hash__ or Entity.__eq__.
class Locus(_Frozen):
    __slots__ = ("kind", "entity")
    _key = attrgetter("kind", "entity.name", "entity.kind")

    def __init__(self, kind, entity):
        if entity.cardinality is not None:
            # A subject's numeral never enters a locus: whatever their
            # number, "5 girls" own what the girls own.
            entity = Entity(entity.name, entity.kind)
        self.kind = kind        # LocusKind
        self.entity = entity


def render_locus(locus) -> str:
    if locus.kind is _PLACE:
        return f"the {locus.entity.name}"
    return locus.entity.name


class StateKey(_Frozen):
    __slots__ = ("locus", "obj", "time")

    def __init__(self, locus, obj, time):
        self.locus = locus  # Locus
        self.obj = obj      # canonical object class
        self.time = time


# A proposition's sentence index stays out of equality and hashing: where a
# clause stands does not change what it says.


class StateProp(_Frozen):
    __slots__ = ("key", "quantity", "sentence")
    _key = attrgetter("key", "quantity")

    def __init__(self, key, quantity, sentence=-1):
        self.key = key
        self.quantity = quantity
        self.sentence = sentence


class EventProp(_Frozen):
    __slots__ = ("verb", "obj", "amount", "agent", "recipient", "source",
                 "destination", "sentence")
    _key = attrgetter(*__slots__[:7])

    def __init__(self, verb, obj, amount, agent=None, recipient=None, source=None,
                 destination=None, sentence=-1):
        self.verb = verb
        self.obj = obj
        self.amount = amount
        self.agent = agent
        self.recipient = recipient
        self.source = source
        self.destination = destination
        self.sentence = sentence


class CompareProp(_Frozen):
    __slots__ = ("left", "right", "diff", "direction", "sentence")
    _key = attrgetter(*__slots__[:4])

    def __init__(self, left, right, diff, direction, sentence=-1):
        self.left = left
        self.right = right
        self.diff = diff
        self.direction = direction  # "more" | "less"
        self.sentence = sentence


class CombineProp(_Frozen):
    __slots__ = ("obj", "total", "time", "parts", "group", "verb", "sentence")
    _key = attrgetter(*__slots__[:6])

    def __init__(self, obj, total, time, parts=(), group=None, verb=None, sentence=-1):
        self.obj = obj
        self.total = total
        self.time = time
        self.parts = parts      # StateKeys, in statements
        self.group = group      # "they" or a class, in questions
        self.verb = verb        # the verb of an event combine, else None
        self.sentence = sentence


# ---------------------------------------------------------------------------
# tokenization


class Sentence:
    """One sentence's clauses, each a span of the sentence's one Word list:
    ``(words, start, end, interrogative, markers)`` is ``words[start:end]``
    and the sentinel _END at ``words[end]``.  ``markers`` holds the time
    markers taken out; a clause that held one has a list of its own."""

    def __init__(self, clauses):
        self.clauses = clauses


# Text is split in C: "?" and "!" end a sentence as "." does, the token
# characters [A-Za-z0-9'-] and the comma stay, and every other ASCII
# character separates tokens.  One character maps to one, which keeps
# translate on its ASCII fast path; tokenize then spaces each comma apart.
# The table maps each ASCII code, 0 to 127, to the one-character string at
# that place below: 32 control characters, then the rows that begin at " ",
# "@" and "`".  Int images, as str.maketrans makes from two strings,
# translate about a quarter slower.
_TOKENS = dict(enumerate(
    " " * 32
    + " .     '    ,-. 0123456789     ."
    + " ABCDEFGHIJKLMNOPQRSTUVWXYZ     "
    + " abcdefghijklmnopqrstuvwxyz     "))

# Leading phrases with no amount semantics, stripped before parsing.  None
# holds "and" or "if", so none runs past a clause's end.
_SEQUENCERS = (
    ("then",),
    ("next",),
    ("after", "this"),
    ("after", "that"),
    ("it", "is", "known", "that"),
)
_SEQUENCER_HEADS = {seq[0] for seq in _SEQUENCERS}
_TEXT = attrgetter("text")
_END = Word(None, None, None, None, None, None, False)   # the Word past a clause's end
_NO_MARKERS = frozenset()


def _split_and(words, texts, start, stop, spans):
    """Append to `spans` the (start, end) of each clause of words[start:stop].

    An "and" ends the current clause, and becomes _END, when a verb has
    appeared since the clause began and another follows before `stop`.
    The scan jumps from one "and" to the next with ``list.index``, up to
    the "and" that `texts` holds past the sentence's last word.
    """
    left = start      # no verb in the current clause before position left
    following = -1    # first verb after the latest "and" that needed one
    n = texts.index("and", start)
    while n < stop:
        while left < n and words[left].verb is None:
            left += 1
        if left < n:
            if following <= n:
                following = n + 1
                while following < stop and words[following].verb is None:
                    following += 1
            if following < stop:
                words[n] = _END
                spans.append((start, n))
                start = n + 1
                left = following
        n = texts.index("and", n + 1)
    spans.append((start, stop))


def tokenize(text, lexicon) -> list:
    """Split problem text into sentences and clauses of lexicon Words.

    Sentences end at '.', '?' or '!'.  A ", if" splits a sentence into a
    main clause plus subordinate clauses; "and" between two full clauses
    splits them into siblings.  Clauses beginning "how many" are flagged
    interrogative.  Each token is given its Word once, from the table
    in C, and ``Lexicon.word`` is asked only for a token the table lacks.
    A clause is a span of its sentence's Words (see Sentence): _END is
    written over each splitting "if" and "and" and appended, and leading
    sequencers move the span's start.  Each sentence's Word texts are
    listed once, and "if", "and" and the markers are found in that list
    with ``in`` and ``list.index``, not by a loop over the Words.
    """
    if not text.isascii():
        # Outside ASCII a letter or digit stays, so its word is refused
        # whole.  Only such a text loads re.
        import re
        text = re.sub(r"[^\w\x00-\x7f]", " ", text)
    get, word = lexicon.words.get, lexicon.word
    sentences = []
    for piece in text.translate(_TOKENS).replace(",", " , ").split("."):
        tokens = piece.split()
        if not tokens:
            continue
        if not piece.isascii():
            for tok in tokens:
                if not tok.isascii():
                    raise ParseError(len(sentences), f"non-ASCII word {tok!r}")
        # 1 if the sentence's first token, commas counted, is a word: an
        # "if" there subordinates nothing
        first = tokens[0] != ","
        if "," in tokens:
            tokens = list(filter(",".__ne__, tokens))
        words = list(map(get, tokens))
        if None in words:
            try:
                for i, tok in enumerate(tokens):
                    if words[i] is None:
                        words[i] = word(tok)
            except NumeralTooLong as exc:
                raise ParseError(len(sentences), str(exc)) from None
        texts = list(map(_TEXT, words))
        # where the scan for "and" stops; a clause ends at an "and" or "if"
        texts.append("and")
        words.append(_END)
        spans, start = [], 0
        if "if" in texts and "if" in texts[first:]:
            # ", if" subordination: the first "if" past that first token
            cut = texts.index("if", first)
            words[cut] = _END
            _split_and(words, texts, 0, cut, spans)
            start = cut + 1
        _split_and(words, texts, start, len(tokens), spans)
        timed = "now" in texts or "beginning" in texts
        clauses = []
        for start, end in spans:
            interrogative = texts[start] == "how" and texts[start + 1] == "many"
            while texts[start] in _SEQUENCER_HEADS:
                for seq in _SEQUENCERS:
                    if tuple(texts[start: start + len(seq)]) == seq:
                        start += len(seq)
                        break
                else:
                    break
            clause = (words, start, end, interrogative, _NO_MARKERS)
            clauses.append(_take_markers(clause, texts) if timed else clause)
        sentences.append(Sentence(clauses))
    if not sentences:
        raise EmptyInput()
    return sentences


def _take_markers(clause, texts):
    """The clause without its time markers "now" and "in the beginning",
    as a list of its own, or the clause itself when it holds none."""
    words, start, end, interrogative, _ = clause
    span = texts[start:end]
    if "now" not in span and "beginning" not in span:
        return clause
    markers, cuts = set(), []   # (first, end) of each marker, in text order
    for i in range(start, end):
        if texts[i] == "now":
            markers.add(TimePoint.FINAL)
            cuts.append((i, i + 1))
        # before a clause stand "and", "if", a sequencer's last word or, at
        # the sentence's start, the "and" past its end: never "in the"
        elif texts[i] == "beginning" and texts[i - 2] == "in" and texts[i - 1] == "the":
            markers.add(TimePoint.INITIAL)
            cuts.append((i - 2, i + 1))
    if not cuts:
        return clause
    words = words[start:end + 1]
    for i, j in reversed(cuts):
        del words[i - start:j - start]
    return words, 0, len(words) - 1, interrogative, frozenset(markers)


# ---------------------------------------------------------------------------
# clause parsing


_DETERMINERS = {"a", "an", "the"}


class _ClauseParser:
    """One clause's parser, with its text's two tables: each name's Entity
    is made once per text, and a pronoun resolves to the Entity of its
    antecedent.  It reads the clause's span of its sentence's Words in
    place, from its start up to the _END at its end."""

    def __init__(self, clause, sentence, lexicon, latest, made):
        self.lexicon = lexicon
        self.latest = latest   # gender -> the Entity last named with it
        self.made = made       # name -> its one Entity
        self.sentence = sentence
        self.words, self.pos, self.end, self.interrogative, markers = clause
        self.marker = None
        if markers:
            if len(markers) > 1:
                raise self.error("conflicting time markers in one clause")
            (self.marker,) = markers

    # -- token plumbing -------------------------------------------------

    def error(self, reason):
        return ParseError(self.sentence, reason)

    def peek(self):
        return self.words[self.pos]

    def take(self):
        i = self.pos
        word = self.words[i]
        if word is _END:
            raise self.error("unexpected end of clause")
        self.pos = i + 1
        return word

    def expect(self, *texts):
        text = self.words[self.pos].text
        if text not in texts:
            raise self.error(f"expected {' or '.join(texts)!r}, found {text!r}")
        self.pos += 1

    def done(self):
        return self.pos >= self.end

    def resolve_time(self, tense) -> TimePoint:
        """Combine verb tense with an explicit marker; disagreement is an error."""
        from_tense = TimePoint.INITIAL if tense is Tense.PAST else TimePoint.FINAL
        if self.marker is not None and self.marker != from_tense:
            raise self.error(
                f"time marker {self.marker.value!r} conflicts with verb tense"
            )
        return self.marker or from_tense

    # -- small recognizers --------------------------------------------------

    def take_noun(self):
        word = self.take()
        if word.noun is None:
            raise self.error(f"expected an object noun, found {word.surface!r}")
        return word.noun

    def take_be(self):
        """A form of "be"; returns its tense."""
        word = self.take()
        if word.verb is None or word.verb[0] != "be":
            raise self.error(f"expected a form of 'be', found {word.surface!r}")
        return word.verb[1]

    def take_proper(self):
        """The one Entity of the name at the cursor, which the caller has
        seen reads as proper."""
        name = self.words[self.pos].surface
        self.pos += 1
        entity = self.made.get(name)
        if entity is None:
            entity = self.made[name] = Entity(name, _PROPER)
        self.latest[self.lexicon.names.get(name)] = entity
        return entity

    def take_pronoun_entity(self):
        word = self.take()
        if word.pronoun == "group":
            raise self.error(f"pronoun {word.surface!r} is read only in "
                             f"'How many OBJ do they have altogether?'")
        entity = self.latest.get(word.pronoun)
        if entity is None:
            raise self.error(f"pronoun {word.surface!r} has no antecedent")
        return entity

    def parse_place_np(self) -> Entity:
        if self.peek().text in _DETERMINERS:
            self.pos += 1
        if self.peek().proper:
            raise self.error(
                f"expected a place noun, found the name {self.take().surface!r}")
        return Entity(self.take_noun(), EntityKind.CLASS)

    def parse_person_or_place(self) -> Entity:
        word = self.peek()
        if word.pronoun is not None:
            return self.take_pronoun_entity()
        if word.proper:
            return self.take_proper()
        return self.parse_place_np()

    def parse_object_np(self):
        """A counted object: NUMERAL NOUN."""
        word = self.take()
        if word.number is None:
            raise self.error(f"expected an amount, found {word.surface!r}")
        return word.number, self.take_noun()

    # -- subjects -----------------------------------------------------------

    def parse_subject_item(self) -> Entity:
        """A pronoun, else a name, else a counted class noun."""
        if self.done():
            raise self.error("missing subject")
        word = self.peek()
        if word.pronoun is not None and word.number is None:
            return self.take_pronoun_entity()
        if word.proper:
            return self.take_proper()
        if word.number is not None:
            self.take()
            return Entity(self.take_noun(), EntityKind.CLASS, cardinality=word.number)
        raise self.error(f"cannot read subject starting at {word.surface!r}")

    # -- verb group ------------------------------------------------------------

    def take_verb(self):
        """(lemma, tense) of the next token; UnknownWord if the lexicon lacks it."""
        word = self.take()
        if word.verb is None:
            if word.number is not None or word.text in self.lexicon.tabled:
                raise self.error(f"expected a verb, found {word.surface!r}")
            raise UnknownWord(self.sentence, word.surface)
        return word.verb

    def parse_verb_group(self):
        """Longest verb lemma at the cursor, with tense.

        Phrasal lemmas extend with their particles, two before one, so
        "took out", "went away" and "fell out of" resolve to their table
        entries. "was born"/"were born" resolves to its own lemma.
        """
        lemma, tense = self.take_verb()
        for particles in self.lexicon.phrasal.get(lemma, ()):
            if tuple(w.text for w in self.words[self.pos: self.pos + len(particles)]) \
                    == particles:
                self.pos += len(particles)
                lemma = " ".join((lemma,) + particles)
                break
        return lemma, tense, self.lexicon.verbs.get(lemma)

    # -- clause forms -------------------------------------------------------------

    def parse(self):
        if self.interrogative:
            return self.parse_question()
        if self.peek().text == "there":
            return self.parse_existential()
        return self.parse_subject_clause()

    # "How many ..." forms
    def parse_question(self):
        self.expect("how")
        self.expect("many")
        obj = self.take_noun()
        tok = self.peek().surface
        aux, tense = self.take_verb()
        time = self.resolve_time(tense)
        if aux == "be":
            self.expect("there")
            self.expect("in")
            place = self.parse_place_np()
            self._check_done()
            return [StateProp(StateKey(Locus(_PLACE, place), obj, time), QUESTION,
                              self.sentence)]
        if aux != "do":
            raise self.error(f"unsupported question auxiliary {tok!r}")
        if self.peek().pronoun == "group":
            self.take()
            lemma, _, _ = self.parse_verb_group()
            if lemma != "have":
                raise self.error("group questions are supported with 'have' only")
            self.expect("altogether")
            self._check_done()
            return [CombineProp(obj, QUESTION, time, group=THEY,
                                sentence=self.sentence)]
        if self.peek().text in _DETERMINERS:
            self.take()
            cls = self.take_noun()
            lemma, _, classification = self.parse_verb_group()
            if not isinstance(classification, (Compound, ChangeKind)):
                raise self.error(
                    f"class-noun questions need a change verb, found {lemma!r}"
                )
            self.expect("altogether")
            self._check_done()
            group = Entity(cls, EntityKind.CLASS)
            return [CombineProp(obj, QUESTION, time, group=group, verb=lemma,
                                sentence=self.sentence)]
        owner = self.parse_subject_item()
        lemma, _, _ = self.parse_verb_group()
        if lemma != "have":
            raise self.error(f"owner questions are supported with 'have' only")
        self._check_done()
        return [StateProp(StateKey(Locus(_OWNERSHIP, owner), obj, time), QUESTION,
                          self.sentence)]

    # "There were N OBJ [more] in the PLACE ..."
    def parse_existential(self):
        self.expect("there")
        time = self.resolve_time(self.take_be())
        n, obj = self.parse_object_np()
        if self.peek().text in ("more", "less"):
            direction = self.take().text
            self.expect("in")
            left = self.parse_place_np()
            self.expect("than")
            self.expect("there")
            self.take_be()  # the main clause's time governs
            self.expect("in")
            right = self.parse_place_np()
            self._check_done()
            return self.compare(StateKey(Locus(_PLACE, left), obj, time),
                                StateKey(Locus(_PLACE, right), obj, time), n, direction)
        self.expect("in")
        place = self.parse_place_np()
        self._check_done()
        return [StateProp(StateKey(Locus(_PLACE, place), obj, time), n, self.sentence)]

    def compare(self, left, right, n, direction):
        if left == right:
            raise self.error("a comparison names one amount twice")
        return [CompareProp(left, right, n, direction, self.sentence)]

    def parse_subject_clause(self):
        subjects = [self.parse_subject_item()]
        while self.peek().text == "and":
            self.take()
            subjects.append(self.parse_subject_item())
        lemma, tense, classification = self.parse_verb_group()
        if classification is None:
            # no particle was taken: the verb as written is the last word
            raise UnknownWord(self.sentence, self.words[self.pos - 1].surface)
        if isinstance(classification, StaticState):
            if classification.hint is None:
                return self.parse_have_clause(subjects, tense)
            return self.parse_static_clause(subjects, classification)
        if isinstance(classification, (Compound, ChangeKind)):
            if len(subjects) != 1:
                raise self.error("change events take a single subject")
            return self.parse_event(subjects[0], lemma, classification)
        raise self.error(f"verb {lemma!r} cannot head a clause")

    # "OWNER has/had N OBJ [more|less than ...] [altogether]"
    def parse_have_clause(self, subjects, tense):
        time = self.resolve_time(tense)
        n, obj = self.parse_object_np()
        nxt = self.peek().text
        if nxt in ("more", "less"):
            if len(subjects) != 1:
                raise self.error("comparisons take a single subject")
            direction = self.take().text
            self.expect("than")
            left = StateKey(Locus(_OWNERSHIP, subjects[0]), obj, time)
            if self.peek().text == "there":
                self.take()
                self.take_be()  # the main clause's time governs
                self.expect("in")
                right_locus = Locus(_PLACE, self.parse_place_np())
            else:
                ent = self.parse_person_or_place()
                right_locus = Locus(_PLACE if ent.kind is _CLASS else _OWNERSHIP, ent)
                if not self.done():
                    word = self.take()
                    if word.verb is None or word.verb[0] != "have":
                        raise self.error(
                            f"unexpected token {word.surface!r} after comparison")
            self._check_done()
            return self.compare(left, StateKey(right_locus, obj, time), n, direction)
        if nxt == "altogether":
            self.take()
            self._check_done()
            if len(subjects) < 2:
                raise self.error("'altogether' needs a conjunction of owners")
            parts = tuple(StateKey(Locus(_OWNERSHIP, s), obj, time) for s in subjects)
            if len(set(parts)) < len(parts):
                raise self.error("'altogether' names one owner twice")
            return [CombineProp(obj, n, time, parts=parts, sentence=self.sentence)]
        self._check_done()
        if len(subjects) != 1:
            raise self.error("a possession state takes a single owner")
        return [StateProp(StateKey(Locus(_OWNERSHIP, subjects[0]), obj, time), n,
                          self.sentence)]

    # "N CLASS remained in the PLACE"
    def parse_static_clause(self, subjects, classification):
        time = classification.hint
        if self.marker is not None and self.marker != time:
            raise self.error("time marker conflicts with the verb's meaning")
        self.expect("in")
        place = self.parse_place_np()
        self._check_done()
        props = []
        for subj in subjects:
            if subj.cardinality is None:   # only a counted class noun has one
                raise self.error("a counted class noun must head this clause")
            props.append(StateProp(
                StateKey(Locus(_PLACE, place), subj.name, time), subj.cardinality,
                self.sentence,
            ))
        return props

    def parse_event(self, subject, lemma, classification):
        agent = recipient = source = destination = None
        object_np = None
        locational = (isinstance(classification, ChangeKind)
                      and classification.locus_kind is _PLACE)
        words = self.words   # read directly: the cursor stays before the end
        while self.pos < self.end:
            word = words[self.pos]
            tok = word.text
            if tok == "to":
                self.pos += 1
                ent = self.parse_person_or_place()
                if ent.kind is _PROPER:
                    recipient = self._one(recipient, ent, "recipient")
                else:
                    destination = self._one(destination, ent, "destination")
            elif tok == "from":
                self.pos += 1
                source = self._one(source, self.parse_person_or_place(), "source")
            elif tok in ("into", "onto", "in"):
                self.pos += 1
                destination = self._one(destination, self.parse_place_np(), "destination")
            elif tok == "out":
                self.pos += 1
                self.expect("of")
                source = self._one(source, self.parse_place_np(), "source")
            elif object_np is None and words[self.pos + 1].number is not None \
                    and (word.proper or word.pronoun in ("f", "m")):
                # double-object dative: "gave Tom 3 apples", "gave him 3 apples"
                ent = self.take_proper() if word.proper else self.take_pronoun_entity()
                recipient = self._one(recipient, ent, "recipient")
            elif word.number is not None:
                if object_np is not None:
                    raise self.error("two counted objects in one event")
                self.pos += 1
                object_np = word.number, self.take_noun()
            elif (tok in _DETERMINERS or not word.proper) \
                    and locational:
                ent = self.parse_place_np()  # bare locus of leave/enter/exit
                if classification.direction is _OUT:
                    source = self._one(source, ent, "source")
                else:
                    destination = self._one(destination, ent, "destination")
            else:
                raise self.error(f"unexpected token {tok!r} in event clause")
        if object_np is None:
            # Subject numeral counts the subject class, but only for
            # locational verbs: "Two boys left a room."
            if locational and subject.kind is _CLASS \
                    and subject.cardinality is not None:
                amount, obj = subject.cardinality, subject.name
            else:
                raise self.error("event clause has no counted object")
        else:
            amount, obj = object_np
            agent = subject
        return [EventProp(lemma, obj, amount, agent, recipient, source, destination,
                          self.sentence)]

    def _one(self, named, ent, role):
        """`ent` as the event's `role`, which no earlier phrase has named."""
        if named is not None:
            raise self.error(f"two {role}s in one event")
        return ent

    def _check_done(self):
        if not self.done():
            raise self.error(f"unexpected trailing words from {self.peek().surface!r}")


def parse_clause(clause, lexicon, latest, sentence):
    return _ClauseParser(clause, sentence, lexicon, latest, {}).parse()


def parse_problem(text, lexicon) -> list:
    """All propositions of a problem, in text order.

    Exactly one Question quantity must result: a question clause parses
    to the one proposition that holds it, and no other clause makes one.
    """
    latest, made = {}, {}
    props = []
    count = 0
    for index, sentence in enumerate(tokenize(text, lexicon)):
        for clause in sentence.clauses:
            props.extend(_ClauseParser(clause, index, lexicon, latest, made).parse())
            count += clause[3]   # interrogative
    if count == 0:
        raise NoQuestion()
    if count > 1:
        raise MultipleQuestions(count)
    return props


# ---------------------------------------------------------------------------
# rendering back to surface sentences (round-trip form)


def _entity_surface(entity, lexicon):
    """An event's class agent, which always carries its numeral: "5 girls",
    "1 boy"."""
    return f"{entity.cardinality} {lexicon.pluralize(entity.name, entity.cardinality)}"


def render_amount(obj, quantity, lexicon) -> str:
    """An amount of an object class: "3 apples", "1 apple", "X apples"."""
    return f"{quantity} {obj if quantity == 1 else lexicon.plural[obj]}"


def render_state(key, quantity, lexicon) -> str:
    """A state holding an amount, without its full stop: "Ruth had 3
    apples", "There are X nuts in the box"."""
    amount = render_amount(key.obj, quantity, lexicon)
    if key.locus.kind is _PLACE:
        verb = "were" if key.time is TimePoint.INITIAL else "are"
        return f"There {verb} {amount} in the {key.locus.entity.name}"
    verb = "had" if key.time is TimePoint.INITIAL else "has"
    return f"{key.locus.entity.name} {verb} {amount}"


def render_proposition(prop, lexicon) -> str:
    """Canonical surface sentence for a parsed proposition.

    Re-parsing the rendered sentence yields an equal proposition; see the
    round-trip property tests.
    """
    if isinstance(prop, StateProp):
        return _render_state(prop, lexicon)
    if isinstance(prop, EventProp):
        return render_event(prop, lexicon) + "."
    if isinstance(prop, CompareProp):
        return _render_compare(prop, lexicon)
    if isinstance(prop, CombineProp):
        return _render_combine(prop, lexicon)
    raise TypeError(f"not a proposition: {prop!r}")


def _render_state(prop, lexicon):
    key = prop.key
    if not isinstance(prop.quantity, Question):
        return render_state(key, prop.quantity, lexicon) + "."
    initial = key.time is TimePoint.INITIAL
    objs = lexicon.pluralize(key.obj)
    if key.locus.kind is _PLACE:
        where = f"in the {key.locus.entity.name}"
        if initial:
            return f"How many {objs} were there {where} in the beginning?"
        return f"How many {objs} are there {where} now?"
    owner = key.locus.entity.name
    if initial:
        return f"How many {objs} did {owner} have in the beginning?"
    return f"How many {objs} does {owner} have now?"


_BARE_LOCUS_VERBS = {"leave", "enter", "exit"}


def _destination_prep(verb, lexicon):
    """A creation or termination happens "in" its place; anything else
    named as a destination goes "into" it."""
    verb_class = lexicon.verbs.get(verb)
    direction = Direction.IN
    if isinstance(verb_class, ChangeKind) \
            and verb_class.direction in (Direction.CREATE, Direction.TERMINATE):
        direction = verb_class.direction
    return direction.place_prep


def render_event(prop, lexicon) -> str:
    """An event's sentence as the stated list prints it, without the stop
    that ``render_proposition`` adds: "Tom gave 3 apples to Ruth"."""
    past = lexicon.past[prop.verb]
    n = prop.amount
    objs = f"{n} {prop.obj if n == 1 else lexicon.plural[prop.obj]}"
    agent = prop.agent
    if agent is None:
        # subject-numeral frame: "2 boys left the room", "3 eggs fell out
        # of the box"; the verb (or its particles) names the locus role
        passive = prop.verb.startswith("be ")   # "be born": "N birds were born"
        if passive:
            past = f"{'was' if n == 1 else 'were'} {past}"
        locus = prop.destination if prop.destination is not None else prop.source
        if locus is None:
            return f"{objs} {past}"
        if (" " in prop.verb and not passive) or prop.verb in _BARE_LOCUS_VERBS:
            return f"{objs} {past} the {locus.name}"
        preposition = (_destination_prep(prop.verb, lexicon)
                       if prop.destination is not None else "from")
        return f"{objs} {past} {preposition} the {locus.name}"
    subject = agent.name if agent.kind is _PROPER else _entity_surface(agent, lexicon)
    line = f"{subject} {past} {objs}"
    if prop.source is not None:
        line += (f" from {prop.source.name}" if prop.source.kind is _PROPER
                 else f" from the {prop.source.name}")
    if prop.destination is not None:
        line += f" {_destination_prep(prop.verb, lexicon)} the {prop.destination.name}"
    if prop.recipient is not None:
        line += f" to {prop.recipient.name}"
    return line


def _render_compare(prop, lexicon):
    initial = prop.left.time is TimePoint.INITIAL
    objs = render_amount(prop.left.obj, prop.diff, lexicon)
    if prop.left.locus.kind is _PLACE:
        verb = "were" if initial else "are"
        return (f"There {verb} {objs} {prop.direction} in the "
                f"{prop.left.locus.entity.name} than there {verb} in the "
                f"{prop.right.locus.entity.name}.")
    verb = "had" if initial else "has"
    return (f"{prop.left.locus.entity.name} {verb} {objs} {prop.direction} "
            f"than {prop.right.locus.entity.name} {verb}.")


def _render_combine(prop, lexicon):
    initial = prop.time is TimePoint.INITIAL
    if isinstance(prop.total, Question):
        objs = lexicon.pluralize(prop.obj)
        aux = "did" if initial else "do"
        if prop.group is THEY:
            return f"How many {objs} {aux} they have altogether?"
        group = lexicon.pluralize(prop.group.name)
        return f"How many {objs} did the {group} {prop.verb} altogether?"
    names = " and ".join(k.locus.entity.name for k in prop.parts)
    verb = "had" if initial else "have"
    return f"{names} {verb} {render_amount(prop.obj, prop.total, lexicon)} altogether."
