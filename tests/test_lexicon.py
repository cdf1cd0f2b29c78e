import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schemarith import lexicon
from schemarith.cli import _run_text, main

from schemarith.corpus import CORPUS
from schemarith.lexicon import (
    DEFAULT_LEXICON,
    KEYWORDS,
    MAX_DIGITS,
    Lexicon,
    LexiconFormatError,
    ChangeKind,
    Compound,
    Direction,
    LocusKind,
    NumeralTooLong,
    Role,
    StaticState,
    Tense,
    Word,
    _regular_noun,
    _regular_plural,
    load_default_lexicon,
    load_lexicon_text,
)
from schemarith.parser import _END, ParseError, _ClauseParser, tokenize
from schemarith.pipeline import run_problem
from schemarith.quantity import TimePoint
from schemarith.solver import Solved

LEX = load_default_lexicon()


# -- reference rules -------------------------------------------------------
#
# The verb, noun and numeral rules, one function each, as the lexicon's own
# methods once stated them: the reference that the Words of its one
# derivation are compared against.


def lemmatize_verb(lex, surface):
    """Map an inflected verb form to (lemma, tense); None if not a verb.

    Irregular forms come from the table; regular -ed/-ied/-s/-ies
    endings are undone and checked against the lemma list.
    """
    w = surface.lower()
    if w in lex.verb_forms:
        return lex.verb_forms[w]
    if w in lex.verbs:
        return (w, Tense.PRESENT)
    if w.endswith("ed") and len(w) > 3:
        candidates = [w[:-1], w[:-2]]
        if len(w) > 4 and w[-3] == w[-4]:
            candidates.append(w[:-3])
        if w.endswith("ied"):
            candidates.append(w[:-3] + "y")
        for cand in candidates:
            if cand in lex.verbs:
                return (cand, Tense.PAST)
    if w.endswith("ies") and w[:-3] + "y" in lex.verbs:
        return (w[:-3] + "y", Tense.PRESENT)
    if w.endswith("es") and w[:-2] in lex.verbs:
        return (w[:-2], Tense.PRESENT)
    if w.endswith("s") and w[:-1] in lex.verbs:
        return (w[:-1], Tense.PRESENT)
    return None


def reserved(lex, w):
    return w in KEYWORDS or w in lex.number_words or w in lex.pronouns or w.isdigit()


def normalize_noun(lex, surface, verb):
    """Canonical singular class for a noun surface; None for proper names.

    `verb` is what ``lemmatize_verb`` reads in `surface`.  A keyword,
    numeral or pronoun names no class, nor does its plural ("sevens",
    "ins"), a word that begins with no letter ("7s") or a verb form
    outside the noun table.
    """
    w = surface.lower()
    if reserved(lex, w):
        return None
    if w in lex.noun_forms:
        return lex.noun_forms[w]
    if surface[:1].isupper() or verb is not None or not w[:1].isalpha():
        return None
    singular = _regular_noun(w)
    if reserved(lex, singular) or (w[-1] == "s" and reserved(lex, w[:-1])):
        return None
    return singular


def parse_number(lex, word):
    """Integer value of a digit string or number word; None otherwise.

    A digit string of more than MAX_DIGITS digits raises NumeralTooLong.
    """
    w = word.lower()
    if w.isdigit():
        if len(w) > MAX_DIGITS:
            raise NumeralTooLong(len(w))
        return int(w)
    return lex.number_words.get(w)


def test_exactly_eight_change_kinds():
    assert len(ChangeKind) == 8
    assert {kind.value for kind in ChangeKind} == {
        (d, lk) for d in Direction for lk in LocusKind}
    for kind in ChangeKind:
        assert kind.value == (kind.direction, kind.locus_kind)
        assert ChangeKind(kind.value) is kind


@pytest.mark.parametrize("lemma,direction,locus", [
    ("receive", Direction.IN, LocusKind.OWNERSHIP),
    ("get", Direction.IN, LocusKind.OWNERSHIP),
    ("lose", Direction.OUT, LocusKind.OWNERSHIP),
    ("forfeit", Direction.OUT, LocusKind.OWNERSHIP),
    ("fetch", Direction.IN, LocusKind.PLACE),
    ("bring", Direction.IN, LocusKind.PLACE),
    ("put in", Direction.IN, LocusKind.PLACE),
    ("lay", Direction.IN, LocusKind.PLACE),
    ("enter", Direction.IN, LocusKind.PLACE),
    ("fall into", Direction.IN, LocusKind.PLACE),
    ("add", Direction.IN, LocusKind.PLACE),
    ("take out", Direction.OUT, LocusKind.PLACE),
    ("take away", Direction.OUT, LocusKind.PLACE),
    ("exit", Direction.OUT, LocusKind.PLACE),
    ("go away", Direction.OUT, LocusKind.PLACE),
    ("drag out", Direction.OUT, LocusKind.PLACE),
    ("fall from", Direction.OUT, LocusKind.PLACE),
])
def test_transfer_verb_categories(lemma, direction, locus):
    cls = LEX.verbs[lemma]
    assert isinstance(cls, ChangeKind)
    assert cls.direction is direction
    assert cls.locus_kind is locus


@pytest.mark.parametrize("lemma,direction", [
    ("build", Direction.CREATE),
    ("be born", Direction.CREATE),
    ("create", Direction.CREATE),
    ("make", Direction.CREATE),
    ("eat", Direction.TERMINATE),
    ("destroy", Direction.TERMINATE),
    ("die", Direction.TERMINATE),
    ("kill", Direction.TERMINATE),
])
def test_creation_termination_categories(lemma, direction):
    cls = LEX.verbs[lemma]
    assert isinstance(cls, ChangeKind)
    assert cls.direction is direction


def test_send_classified_as_ownership_loss():
    # "send" can also read as a change of place; the tables pick the
    # ownership reading.
    assert LEX.verbs["send"] is ChangeKind.OUT_OWNERSHIP


@pytest.mark.parametrize("lemma", ["buy", "give", "pay", "sell", "donate", "steal"])
def test_two_party_verbs_are_compound(lemma):
    cls = LEX.verbs[lemma]
    assert isinstance(cls, Compound)
    assert len(cls.components) >= 2
    directions = {kind.direction for kind, _ in cls.components}
    assert directions == {Direction.IN, Direction.OUT}


def test_give_components():
    assert LEX.verbs["give"].components == (
        (ChangeKind.OUT_OWNERSHIP, Role.AGENT),
        (ChangeKind.IN_OWNERSHIP, Role.RECIPIENT),
    )


def test_unknown_verb_is_none_not_default():
    assert LEX.verbs.get("dance") is None


def test_classify_is_deterministic():
    assert load_lexicon_text(DEFAULT_LEXICON).verbs == LEX.verbs


def test_static_verbs():
    assert LEX.verbs["have"] == LEX.verbs["be"] == StaticState(None)
    assert LEX.verbs["remain"] == StaticState(TimePoint.FINAL)


def test_every_corpus_verb_classifies():
    # A verb form counts as covered when its lemma classifies directly or
    # heads a phrasal entry (the parser extends "fell" to "fall out of").
    for problem in CORPUS:
        for token in problem.text.replace(",", " ").replace(".", " ") \
                .replace("?", " ").split():
            got = word_of(LEX, token).verb
            if got is not None:
                lemma, _ = got
                covered = lemma in LEX.verbs or any(
                    entry.startswith(lemma + " ") for entry in LEX.verbs
                )
                assert covered, (problem.id, token)


# -- nouns -------------------------------------------------------------


def word_of(lex, surface):
    return lex.words.get(surface) or lex.word(surface)


def noun_of(lex, surface):
    """The class of `surface` by the reference rules, checked against its Word."""
    noun = normalize_noun(lex, surface, lemmatize_verb(lex, surface))
    assert word_of(lex, surface).noun == noun, surface
    return noun


@pytest.mark.parametrize("surface,expected", [
    ("apples", "apple"),
    ("candies", "candy"),
    ("children", "child"),
    ("boxes", "box"),
    ("egg", "egg"),
])
def test_normalize_noun(surface, expected):
    assert noun_of(LEX, surface) == expected


def test_proper_names_are_not_object_classes():
    assert noun_of(LEX, "Ruth") is None


@pytest.mark.parametrize("surface", ["give", "gives", "had", "did", "lost", "left",
                                     "transfer", "carried"])
def test_a_verb_form_names_no_class(surface):
    lex = load_lexicon_text(DEFAULT_LEXICON + "verb\tcarry\telementary:in:place\n")
    assert word_of(lex, surface).verb is not None
    assert noun_of(lex, surface) is None


def test_the_noun_table_wins_over_a_verb_reading():
    lex = load_lexicon_text(DEFAULT_LEXICON + "verb\tplant\telementary:create:place\n"
                            "noun\tplant\tplant\nnoun\tplants\tplant\n")
    assert word_of(lex, "plants").verb == ("plant", Tense.PRESENT)
    assert noun_of(lex, "plants") == lex.word("plants").noun == "plant"


@pytest.mark.parametrize("text", [
    "Sara has 6 flowers. Clara has 3 flowers more than give. "
    "How many flowers does Clara have?",
    "Ruth had 5 nuts more than had. How many nuts did Ruth have?",
    "Tom had 5 plums. Tom gave 3 plums to lost. How many plums does Tom have now?",
    "Two boys left left a room. How many boys are there in the room now?",
])
def test_a_verb_where_a_noun_belongs_is_not_understood(text):
    code, report = _run_text(text, LEX)
    assert code == 2, report
    assert report.startswith("Not understood: sentence "), report


CARRY = load_lexicon_text(DEFAULT_LEXICON + "verb\tcarry\telementary:in:place\n")


@pytest.mark.parametrize("lex, lemma, past", [
    (LEX, "give", "gave"),                  # a tabled irregular form
    (LEX, "receive", "received"),           # the regular -d
    (LEX, "remain", "remained"),            # the regular -ed
    (CARRY, "carry", "carried"),            # the regular -ied, in a custom lexicon
    (LEX, "fall out of", "fell out of"),    # an irregular head, particles kept
    (LEX, "take away", "took away"),
    (LEX, "be born", "born"),               # a form tabled for the whole lemma
], ids=["give", "receive", "remain", "custom-carry", "fall-out-of", "take-away",
        "be-born"])
def test_the_lexicon_tables_each_verb_lemma_s_past(lex, lemma, past):
    assert lex.past[lemma] == past
    assert lex.past.keys() == lex.verbs.keys()


@pytest.mark.parametrize("lex", [LEX, CARRY], ids=["default", "custom-carry"])
def test_the_tabled_past_lemmatizes_as_past(lex):
    # The head word of each past form reads back as the past of its lemma,
    # or of the lemma's head when the parser joins the particles itself.
    for lemma in lex.verbs:
        head = lex.past[lemma].split()[0]
        assert word_of(lex, head).verb in {
            (lemma, Tense.PAST), (lemma.split()[0], Tense.PAST)}, (lemma, head)


# A custom lexicon with an irregular plural, and a class with no plural record.
GEESE = load_lexicon_text(DEFAULT_LEXICON + "noun\tgoose\tgoose\nnoun\tgeese\tgoose\n"
                          "noun\tpony\tpony\n")


@pytest.mark.parametrize("lex, cls, plural", [
    (LEX, "apple", "apples"),
    (LEX, "candy", "candies"),
    (LEX, "box", "boxes"),
    (LEX, "child", "children"),             # a tabled irregular plural
    (GEESE, "goose", "geese"),              # the record, not the rule's "gooses"
    (GEESE, "pony", "ponies"),              # no plural record: the regular rule
], ids=["apple", "candy", "box", "child", "custom-goose", "custom-pony"])
def test_the_lexicon_tables_each_noun_class_s_plural(lex, cls, plural):
    assert lex.plural[cls] == plural
    assert lex.pluralize(cls, 3) == lex.pluralize(cls) == plural
    assert lex.pluralize(cls, 1) == cls
    # every tabled class, each with its plural record or its regular plural
    assert lex.plural.keys() == set(lex.noun_forms.values())
    for name, surface in lex.plural.items():
        assert surface == lex.plural_forms.get(name, _regular_plural(name))


@pytest.mark.parametrize("lex", [LEX, GEESE], ids=["default", "custom-geese"])
def test_an_untabled_class_is_pluralized_and_not_stored(lex):
    size = len(lex.plural)
    assert lex.plural["kite"] == lex.pluralize("kite") == "kites"
    assert lex.plural["fox"] == "foxes"
    assert len(lex.plural) == size
    assert "kite" not in lex.plural and "fox" not in lex.plural


def test_fresh_regular_nouns_normalize():
    assert noun_of(LEX, "kites") == "kite"
    assert noun_of(LEX, "ponies") == "pony"


@given(st.sampled_from(sorted(set(LEX.noun_forms.values()))),
       st.integers(min_value=0, max_value=40))
def test_pluralize_normalize_round_trip(canonical, n):
    assert noun_of(LEX, LEX.pluralize(canonical, n)) == canonical


# -- numbers ------------------------------------------------------------


@pytest.mark.parametrize("word,expected", [
    ("Two", 2),
    ("12", 12),
    ("zero", 0),
    ("twenty", 20),
    ("apple", None),
    ("-3", None),
])
def test_parse_number(word, expected):
    assert parse_number(LEX, word) == word_of(LEX, word).number == expected


@given(st.integers(min_value=0, max_value=10**6))
def test_parse_number_digits_round_trip(n):
    assert parse_number(LEX, str(n)) == word_of(LEX, str(n)).number == n


def test_a_numeral_past_the_digit_bound_is_refused():
    at_bound = "9" * MAX_DIGITS
    assert parse_number(LEX, at_bound) == LEX.word(at_bound).number == int(at_bound)
    for read in (lambda word: parse_number(LEX, word), LEX.word):
        with pytest.raises(NumeralTooLong):
            read(at_bound + "9")


# -- supersets ------------------------------------------------------------


def test_superset_members():
    # the parser reads a class noun as its canonical class, the table's key
    assert LEX.supersets[LEX.word("children").noun] == {"girl", "boy"}
    assert LEX.supersets["child"] == {"girl", "boy"}
    assert "apple" not in LEX.supersets


def test_superset_members_are_distinct_classes():
    members = LEX.supersets["child"]
    assert len(members) == len(set(members))
    assert "child" not in members


# -- file format -----------------------------------------------------------


def test_lexicon_text_round_trip():
    lex = load_lexicon_text("verb\thurl\telementary:out:place\nnoun\tkites\tkite\n")
    assert lex.verbs["hurl"] is ChangeKind.OUT_PLACE
    assert lex.noun_forms["kites"] == "kite"


@pytest.mark.parametrize("record, message", [
    ("number\tminus\t-5", "number '-5' is not a nonnegative decimal"),
    ("number\tminus\tfive", "number 'five' is not a nonnegative decimal"),
    ("number\tminus\t" + "1" * (MAX_DIGITS + 1),
     f"numeral of {MAX_DIGITS + 1} digits is too long (at most {MAX_DIGITS})"),
    ("form\tgot\tget:future", "'future' is not a valid Tense"),
    ("form\tzapped\tzap:past", "form 'zapped' is of 'zap', which no verb record tables"),
    ("noun\tice cream\tice cream", "noun 'ice cream' of class 'ice cream' holds a space"),
    ("noun\tand\tand", "noun 'and' of class 'and' breaks the noun rule"),
    ("number\tDozen\t12", "number 'Dozen' holds an upper-case letter"),
    ("verb\tGrab\telementary:in:ownership", "verb 'Grab' holds an upper-case letter"),
    ("verb\tput In\telementary:in:place", "verb 'put In' holds an upper-case letter"),
    ("form\tGrabbed\tgrab:past", "form 'Grabbed' holds an upper-case letter"),
    ("noun\tKites\tkite", "noun 'Kites' holds an upper-case letter"),
    ("pronoun\tIt\tm", "pronoun 'It' holds an upper-case letter"),
    ("pronoun\tit\tx", "pronoun 'it' has gender 'x', not f, m or group"),
    ("name\tPat\tn", "name 'Pat' has gender 'n', not f, m or group"),
    ("name\t12\tm", "name '12' is a numeral"),
    ("name\t\u00b2\tm", "name '\u00b2' is a numeral"),
    ("name\t" + "1" * (MAX_DIGITS + 1) + "\tm",
     f"name '{'1' * (MAX_DIGITS + 1)}' is a numeral"),
    ("pronoun\t\u00b2\tf", "pronoun '\u00b2' is a numeral"),
    ("pronoun\t" + "1" * (MAX_DIGITS + 1) + "\tf",
     f"pronoun '{'1' * (MAX_DIGITS + 1)}' is a numeral"),
    ("verb\t\u00b2\telementary:in:ownership", "verb '\u00b2' is a numeral"),
    ("form\t12\tget:past", "form '12' is a numeral"),
    ("number\t7\t7", "number '7' is a numeral"),
    ("noun\t\u00b2\t\u00b2", "noun '\u00b2' of class '\u00b2' breaks the noun rule"),
    ("verb\tzap\telementary:sideways:place", "bad change kind sideways:place"),
    ("verb\tzap\telementary:In:place", "bad change kind In:place"),
    ("verb\tzap\telementary:in:Place", "bad change kind in:Place"),
    ("verb\tzap\tcompound:up:ownership:agent+in:ownership:recipient",
     "bad change kind up:ownership"),
    ("verb\tzap\tcompound:in:ownership+out:ownership:source",
     "bad compound component 'in:ownership'"),
    ("verb\tzap\tcompound:out:ownership:agent+in:ownership:bogus",
     "'bogus' is not a valid Role"),
    ("verb\tzap\tstatic:middle", "'middle' is not a valid TimePoint"),
    ("verb\tzap\tbogus:x", "bad verb payload 'bogus:x'"),
], ids=["negative-number", "number-not-decimal", "number-too-long", "form-tense",
        "form-of-no-verb", "noun-with-space", "noun-rule", "number-upper-case",
        "verb-upper-case", "phrasal-verb-upper-case", "form-upper-case",
        "noun-upper-case", "pronoun-upper-case", "pronoun-gender", "name-gender",
        "name-numeral", "name-unreadable-numeral", "name-numeral-too-long",
        "pronoun-unreadable-numeral", "pronoun-numeral-too-long", "verb-numeral",
        "form-numeral", "number-numeral", "noun-unreadable-numeral",
        "direction-unknown", "direction-upper-case", "locus-upper-case",
        "compound-direction-unknown", "compound-component-without-role",
        "compound-role-unknown", "static-time-unknown", "verb-payload-unknown"])
def test_a_record_the_tables_cannot_use_is_refused_with_its_line(record, message):
    line = DEFAULT_LEXICON.count("\n") + 1
    with pytest.raises(LexiconFormatError, match=f"^line {line}: {re.escape(message)}$"):
        load_lexicon_text(DEFAULT_LEXICON + record + "\n")


#: Extra records of every kind: lemmas the corpus uses or that read like
#: its words, with payloads good and bad.
EXTRA_RECORDS = {
    "verb": (["zap", "get", "have", "fall", "put in", "be"],
             ["elementary:in:ownership", "elementary:out:place",
              "elementary:create:ownership", "elementary:terminate:place",
              "compound:out:ownership:agent+in:ownership:recipient",
              "compound:in:place:destination+out:place:source",
              "compound:in:ownership:agent", "static:tense", "static:final",
              "static:later", "nonchange", "bad"]),
    "form": (["zapped", "got", "had", "fell", "two"],
             ["zap:past", "get:past", "have:present", "be:past", "fall:past",
              "zap:future", "give"]),
    "number": (["two", "minus", "and", "7", "apples"],
               ["-5", "0", "3", "x", "1" + "0" * MAX_DIGITS, "\u0663"]),
    "noun": (["apples", "ice cream", "and", "sevens", "Tom", "boxes"],
             ["apple", "and", "ice cream", "seven", "7", "box", "tom"]),
    "superset": (["child", "apple", "children", "girl"],
                 ["girl,boy", "apple", "child", "child,girl", "", "apple,plum", "and"]),
    "pronoun": (["she", "they", "him", "Tom", "two", "it"], ["f", "m", "group", "x"]),
    "name": (["Tom", "Ruth", "Two", "She", "There", "apples"], ["f", "m", "group", "x"]),
    "other": (["x"], ["x"]),
}
extra_record = st.sampled_from(sorted(EXTRA_RECORDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(EXTRA_RECORDS[kind][0]),
                           st.sampled_from(EXTRA_RECORDS[kind][1])))


@given(st.lists(extra_record, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_a_custom_lexicon_is_refused_or_ends_every_text_in_a_documented_code(records):
    """The loader refuses a lexicon, or every corpus text ends in a
    verdict or a refusal of its text: never in an internal error."""
    extra = "".join(f"{kind}\t{lemma}\t{payload}\n" for kind, lemma, payload in records)
    try:
        lex = load_lexicon_text(DEFAULT_LEXICON + extra)
    except LexiconFormatError:
        return
    for problem in CORPUS:
        for options in ({"format": "json"}, {"trace": True}):
            code, report = _run_text(problem.text, lex, **options)
            assert code in (0, 2, 3, 4), (problem.id, report)


# -- the table of Words ----------------------------------------------------


def is_proper_reference(lex, tok):
    """The proper-name rule as it read before tokens carried a Word."""
    if not tok[:1].isupper():
        return False
    if tok in lex.names:
        return True
    low = tok.lower()
    return not (low in KEYWORDS or low in lex.noun_forms
                or lemmatize_verb(lex, low) is not None
                or parse_number(lex, low) is not None or low in lex.pronouns)


def parser_reading(lex, tok):
    """(proper?, object class or None) as the clause parser reads `tok`."""
    word = lex.words.get(tok) or lex.word(tok)
    clause = ([word, _END], 0, 1, False, frozenset())
    proper = word.proper
    try:
        noun = _ClauseParser(clause, 0, lex, {}, {}).take_noun()
    except ParseError:
        noun = None
    return word, proper, noun


def assert_word_agrees(lex, surface):
    for tok in {surface.lower(), surface.title(), surface.upper()}:
        word, proper, noun = parser_reading(lex, tok)
        assert word.number == parse_number(lex, tok), tok
        assert word.verb == lemmatize_verb(lex, tok), tok
        assert word.pronoun == lex.pronouns.get(tok.lower()), tok
        assert noun == noun_of(lex, tok), tok
        assert proper == is_proper_reference(lex, tok), tok


def surfaces(lex):
    """Every surface of the tables, every regular inflection of every verb
    lemma, every keyword and a few digit strings."""
    words = {s for table in (lex.verbs, lex.verb_forms, lex.number_words,
                             lex.noun_forms, lex.pronouns, lex.names,
                             lex.supersets, KEYWORDS)
             for s in table}
    for lemma in lex.verbs:
        stem = lemma.split(" ")[0]
        words.update((stem + "s", stem + "es", stem[:-1] + "ies", stem + "d",
                      stem + "ed", stem + stem[-1] + "ed"))
    return sorted(words | {"0", "7", "12", "300"})


def test_word_table_agrees_with_the_rule_methods():
    for surface in surfaces(LEX):
        assert_word_agrees(LEX, surface)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzAEIOUST0123456789'-",
               min_size=1, max_size=9))
def test_drawn_words_agree_with_the_rule_methods(surface):
    assert_word_agrees(LEX, surface)
    assert_the_table_holds_only_tabled_surfaces(LEX)


def test_a_loaded_lexicon_gets_its_own_table():
    lex = load_lexicon_text(
        DEFAULT_LEXICON + "verb\tjuggle\telementary:in:ownership\nnoun\tkites\tkite\n")
    assert "juggle" in lex.tabled and "kites" in lex.tabled
    assert "juggle" not in LEX.tabled and "kites" not in LEX.tabled
    assert lex.word("juggle").verb == ("juggle", Tense.PRESENT)
    assert lex.word("Kites").noun == "kite"
    for surface in surfaces(lex):
        assert_word_agrees(lex, surface)
    # Within one load, lemmas with one payload share its one value.  A
    # second load with other records shares no payload value and no Word
    # with the first: a ChangeKind member is the one value of its kind.
    other = load_lexicon_text(DEFAULT_LEXICON + "verb\tzap\tstatic:final\n")
    read_every_tabled_surface(other)
    assert lex.verbs["give"] is lex.verbs["pay"] is lex.verbs["donate"]
    assert other.verbs["zap"] is other.verbs["remain"]
    assert other.verbs["zap"] is not lex.verbs["remain"]

    def made(lexicon):
        values = [v for v in lexicon.verbs.values() if not isinstance(v, ChangeKind)]
        return {id(value) for value in values + list(lexicon.words.values())}

    assert len(made(lex)) == len(lex.words) + 6   # 3 compound, 2 static, 1 nonchange
    assert not made(lex) & made(other) and not made(lex) & made(LEX)


#: (Python-level, C-level) calls of one load of the default lexicon,
#: measured under 3.11.  3.10 makes the same calls; from 3.12 on a
#: comprehension runs in its caller's frame, not as a call, and the load
#: runs two.
DEFAULT_LOAD_CALLS = {(3, 10): (243, 1408), (3, 11): (243, 1408),
                      (3, 12): (241, 1408), (3, 13): (241, 1408)}


def test_a_default_load_makes_a_fixed_number_of_calls():
    """A load derives no Word, and each distinct verb payload is parsed
    once."""
    counts = Counter()

    def profile(frame, event, arg):
        counts[event] += 1

    load_lexicon_text(DEFAULT_LEXICON)   # a load first, so only a load's own calls count
    sys.setprofile(profile)
    try:
        load_lexicon_text(DEFAULT_LEXICON)
    finally:
        sys.setprofile(None)
    calls = (counts["call"], counts["c_call"])
    expected = DEFAULT_LOAD_CALLS.get(sys.version_info[:2])
    if expected is None:   # a version not measured: no more than the most measured
        most = [max(figures) for figures in zip(*DEFAULT_LOAD_CALLS.values())]
        assert calls[0] <= most[0] and calls[1] <= most[1], calls
    else:
        assert calls == expected


def count_words(monkeypatch):
    """The Words built and the derivations run from now on, as two lists."""
    built, derived = [], []
    init, derive = Word.__init__, Lexicon._words

    def counted_init(self, *args):
        built.append(args[0])
        init(self, *args)

    def counted_derive(self, *args):
        derived.append(args)
        return derive(self, *args)

    monkeypatch.setattr(Word, "__init__", counted_init)
    monkeypatch.setattr(Lexicon, "_words", counted_derive)
    return built, derived


def read_every_tabled_surface(lex):
    for text in lex.tabled:
        lex.word(text)
        lex.word(text.capitalize())


def assert_the_table_holds_only_tabled_surfaces(lex):
    """Every key of ``words`` is a tabled text or its capitalised form,
    and keys the Word of that surface as written."""
    for surface, word in lex.words.items():
        assert word.surface == surface and word.text == surface.lower(), surface
        assert word.text in lex.tabled, surface
        assert surface in (word.text, word.text.capitalize()), surface


def test_a_default_load_builds_no_word(monkeypatch):
    built, derived = count_words(monkeypatch)
    lex = load_lexicon_text(DEFAULT_LEXICON)
    assert built == derived == [] and lex.words == {}
    assert len(lex.tabled) == 290   # 180 texts and 110 numerals


def test_a_one_problem_solve_builds_only_the_words_it_reads(tmp_path, monkeypatch, capsys):
    """The 11 distinct surfaces of the text are derived once each; "Tom"
    and "How" also store their lower-case Words, 13 in all."""
    problem = tmp_path / "problem.txt"
    problem.write_text("Tom had 3 apples. Tom got 2 apples. "
                       "How many apples does Tom have now?\n")
    monkeypatch.setattr(lexicon, "_DEFAULT", None)   # a fresh default lexicon
    built, derived = count_words(monkeypatch)
    assert main(["solve", str(problem)]) == 0
    assert capsys.readouterr().out == "Answer: 5\n"
    assert (len(built), len(derived)) == (13, 11)
    lex = load_default_lexicon()
    assert sorted(lex.words) == sorted(
        ["Tom", "tom", "had", "3", "apples", "got", "2", "How", "how", "many",
         "does", "have", "now"])


def test_the_table_is_keyed_by_surface_as_written():
    lex = load_lexicon_text(DEFAULT_LEXICON)
    assert "tom" in lex.tabled and "Tom" not in lex.tabled
    # the numerals of at most two digits are tabled, and no longer one
    assert "7" in lex.tabled and "07" in lex.tabled and "99" in lex.tabled
    assert "100" not in lex.tabled and "007" not in lex.tabled
    assert lex.word("07") is lex.words["07"] and lex.words["07"].number == 7
    read_every_tabled_surface(lex)
    assert_the_table_holds_only_tabled_surfaces(lex)
    # every tabled text lower-cased and capitalised, the numerals once
    assert len(lex.words) == 470
    assert "tom" in lex.words and "Tom" in lex.words


def test_untabled_tokens_leave_the_table_to_the_tabled_surfaces():
    lex = load_lexicon_text(DEFAULT_LEXICON)
    text = ("Zorro juggled 300 kites. TOM had 007 apples and Tom got 1000 quickly. "
            "Then this remained known. How many APPLES does tOM have 12345?")
    for _ in range(2):
        tokenize(text, lex)
    assert_the_table_holds_only_tabled_surfaces(lex)
    assert sorted(lex.words) == sorted(
        ["Tom", "tom", "had", "apples", "and", "got", "How", "how", "many",
         "does", "have"])


def test_a_name_with_an_inner_capital_reads_as_written():
    lex = load_lexicon_text(DEFAULT_LEXICON + "name\tMcDonald\tm\n")
    result = run_problem("McDonald had 3 apples. He got 2 apples. "
                         "How many apples does McDonald have now?", lex)
    assert result.verdict == Solved(5)
    # the table keeps a name's lower-case and capitalised forms, no other
    assert "mcdonald" in lex.words and "McDonald" not in lex.words
