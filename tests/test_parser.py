import random
import re
import string
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_lexicon import lemmatize_verb

from schemarith.corpus import CORPUS, by_id
from schemarith.lexicon import (
    DEFAULT_LEXICON,
    MAX_DIGITS,
    Lexicon,
    LocusKind,
    NumeralTooLong,
    load_default_lexicon,
    load_lexicon_text,
)
from schemarith.parser import (
    CombineProp,
    CompareProp,
    EmptyInput,
    Entity,
    EntityKind,
    EventProp,
    MultipleQuestions,
    NoQuestion,
    Locus,
    ParseError,
    StateKey,
    StateProp,
    UnknownWord,
    _END,
    _TOKENS,
    _split_and,
    _take_markers,
    parse_clause,
    parse_problem,
    render_proposition,
    tokenize,
)
from schemarith.quantity import QUESTION, TimePoint

LEX = load_default_lexicon()


def parse_text(text):
    """Parse clauses without the one-question validation (test helper)."""
    latest = {}
    props = []
    for index, sentence in enumerate(tokenize(text, LEX)):
        for clause in sentence.clauses:
            props.extend(parse_clause(clause, LEX, latest, index))
    return props


def clause_words(clause):
    """A clause's Words: its span of its sentence's list."""
    words, start, end, _, _ = clause
    return words[start:end]


def reading(clause):
    """(surfaces, interrogative, markers) of a clause."""
    return [w.surface for w in clause_words(clause)], clause[3], clause[4]


def owner(name):
    return Locus(LocusKind.OWNERSHIP, Entity(name, EntityKind.PROPER))


def place(noun):
    return Locus(LocusKind.PLACE, Entity(noun, EntityKind.CLASS))


# -- tokenizer -------------------------------------------------------------


def test_question_with_if_clause_is_one_sentence_two_clauses():
    text = ("How many apples are there in the basket now, if in the "
            "beginning there were 4 apples in the basket?")
    sentences = tokenize(text, LEX)
    assert len(sentences) == 1
    assert len(sentences[0].clauses) == 2
    assert sentences[0].clauses[0][3]       # interrogative
    assert not sentences[0].clauses[1][3]


def test_clause_conjunction_splits():
    sentences = tokenize(
        "Dan gave 2 candies to Susan and Fred gave 3 candies to Dan.", LEX)
    assert len(sentences) == 1
    assert len(sentences[0].clauses) == 2


def test_noun_conjunction_does_not_split():
    sentences = tokenize("Tom and Ruth had 8 apples altogether.", LEX)
    assert len(sentences[0].clauses) == 1
    sentences = tokenize("3 girls and 5 boys remained in the room.", LEX)
    assert len(sentences[0].clauses) == 1


def split_and_recursive(tokens):
    """The clause-level "and" rule in its recursive statement."""

    def has_verb(part):
        return any(lemmatize_verb(LEX, t) is not None for t in part)

    for i, tok in enumerate(tokens):
        if tok.lower() != "and":
            continue
        left = [t for t in tokens[:i] if t != ","]
        right = [t for t in tokens[i + 1:] if t != ","]
        if left and right and has_verb(left) and has_verb(right):
            return [left] + split_and_recursive(right)
    return [[t for t in tokens if t != ","]]


@given(st.lists(st.sampled_from(
    ["and", "and", "And", ",", "Dan", "got", "gave", "had", "3", "apples",
     "to", "remained", "in", "room"]), min_size=1, max_size=14))
@settings(max_examples=400)
def test_and_split_matches_recursive_rule(words):
    [sentence] = tokenize(" ".join(words) + ".", LEX)
    assert [[w.surface for w in clause_words(c)] for c in sentence.clauses] == \
        split_and_recursive(words)


class ReadCounted(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def split_and_reads(k):
    """The Words ``_split_and`` reads on one clause of k objects joined by
    "and" with no verb after the first: each "and" asks whether a verb
    follows, and the answer for one holds for every later one."""
    tokens = ["Tom", "had", "3", "apples"] + ["and", "3", "apples"] * (k - 1)
    words = [*map(LEX.word, tokens), _END]
    texts = [w.text for w in words[:-1]] + ["and"]
    words = ReadCounted(words)
    spans = []
    _split_and(words, texts, 0, len(tokens), spans)
    assert spans == [(0, len(tokens))]
    return words.reads


def test_the_and_split_reads_each_word_a_bounded_number_of_times():
    """ROADMAP item 11: no stage is superlinear in the problem size, so four
    times the objects cost at most 4.4 times the reads."""
    assert split_and_reads(400) / split_and_reads(100) <= 4.4


SEQUENCERS = (["then"], ["next"], ["after", "this"], ["after", "that"],
              ["it", "is", "known", "that"])


def clause_reference(tokens):
    """(surfaces, interrogative, markers) of one clause's tokens: "how
    many" first asks, leading sequencers go, and each "now" and "in the
    beginning" leaves the clause as a marker."""
    texts = [t.lower() for t in tokens]
    interrogative = texts[:2] == ["how", "many"]
    stripped = True
    while stripped:
        stripped = False
        for seq in SEQUENCERS:
            if texts[:len(seq)] == seq:
                tokens, texts = tokens[len(seq):], texts[len(seq):]
                stripped = True
                break
    kept, markers, i = [], set(), 0
    while i < len(tokens):
        if texts[i] == "now":
            markers.add(TimePoint.FINAL)
            i += 1
        elif texts[i: i + 3] == ["in", "the", "beginning"]:
            markers.add(TimePoint.INITIAL)
            i += 3
        else:
            kept.append(tokens[i])
            i += 1
    return kept, interrogative, markers


def sentence_reference(tokens):
    """The clauses of one sentence's tokens: the first "if" that is not
    the first token subordinates, then the clause-level "and" splits."""
    parts = [tokens]
    for i, tok in enumerate(tokens):
        if i > 0 and tok.lower() == "if":
            parts = [tokens[:i], tokens[i + 1:]]
            break
    return [clause_reference(clause)
            for part in parts for clause in split_and_recursive(part)]


@given(st.lists(st.sampled_from(
    ["then", "Then", "next", "after this", "After that", "it is known that",
     "now", "Now", "in the beginning", "In the beginning", "and", "And", "if",
     "If", ",", "how many", "How many", "Dan", "got", "gave", "had", "3",
     "apples", "to", "remained", "in", "the", "room", "beginning"]),
    min_size=1, max_size=14))
@settings(max_examples=400)
def test_sentence_scans_match_a_reference(phrases):
    [sentence] = tokenize(" ".join(phrases) + ".", LEX)
    assert [reading(c) for c in sentence.clauses] == \
        sentence_reference(" ".join(phrases).split())


#: The tokens of ASCII text as the regex tokenizer read them, before the
#: text was split with one ``str.translate``.
TOKEN_REFERENCE_RE = re.compile(r"[A-Za-z0-9'-]+|[,.?!]")
#: The tokens of any text as the regex tokenizer read them: a word also
#: takes in every letter and digit outside ASCII.
WIDE_TOKEN_REFERENCE_RE = re.compile(r"(?:[A-Za-z0-9'-]|[^\W_])+|[,.?!]")


def tokenize_reference(text, token_re=TOKEN_REFERENCE_RE):
    """Each sentence's clauses as `sentence_reference` gives them, or the
    (type, message) of the refusal, from the regex tokens of `text`."""
    sentences = []
    for piece in text.replace("?", ".").replace("!", ".").split("."):
        tokens = token_re.findall(piece)
        if not tokens:
            continue
        for tok in tokens:
            if not tok.isascii():
                reason = f"non-ASCII word {tok!r}"
                return ParseError, f"sentence {len(sentences) + 1}: {reason}"
        for tok in tokens:
            if tok.isdigit() and len(tok) > MAX_DIGITS:
                reason = NumeralTooLong(len(tok))
                return ParseError, f"sentence {len(sentences) + 1}: {reason}"
        sentences.append(sentence_reference(tokens))
    if not sentences:
        return EmptyInput, str(EmptyInput())
    return sentences


def tokenized(text):
    """`tokenize` in the form of `tokenize_reference`."""
    try:
        sentences = tokenize(text, LEX)
    except Exception as exc:
        return type(exc), str(exc)
    return [[reading(c) for c in sentence.clauses] for sentence in sentences]


#: Characters that end, split or stand between tokens, and the token
#: characters themselves.
SEPARATORS = ",.?!;:\"() \t\n"
ASCII_TEXT = string.ascii_letters + string.digits + "'-" + SEPARATORS
CORPUS_WORDS = sorted({w for p in CORPUS for w in TOKEN_REFERENCE_RE.findall(p.text)})


@given(st.lists(st.one_of(st.text(alphabet=ASCII_TEXT, max_size=6),
                          st.sampled_from(CORPUS_WORDS)), max_size=20))
@example(["Tom had " + "1" * (MAX_DIGITS + 1) + " apples"])
@example([" ,if Dan got 3 nuts and now Dan had 2 nuts"])
@example(["Dan got 3 nuts, and Dan got 2 nuts. How many nuts does Dan have now?"])
@example(["How many nuts does Dan have now, if Dan had 3 nuts?"])
@example(["Dan got 3 nuts,and Dan got 2 nuts,if Dan had 3 nuts."])
@example([", if Dan had 3 nuts, how many nuts does Dan have now?"])
@example(["Dan had 3 nuts. , . How many nuts does Dan have now?"])
@settings(max_examples=300)
def test_ascii_tokens_match_the_regex_reference(pieces):
    text = "".join(pieces)
    assert tokenized(text) == tokenize_reference(text)


@given(st.sampled_from(CORPUS),
       st.lists(st.tuples(st.integers(min_value=0),
                          st.text(alphabet=SEPARATORS + "'-", min_size=1, max_size=3)),
                max_size=6))
@settings(max_examples=300)
def test_corpus_texts_with_spliced_characters_match_the_regex_reference(problem, splices):
    text = problem.text
    for position, chars in splices:
        position %= len(text) + 1
        text = text[:position] + chars + text[position:]
    assert tokenized(text) == tokenize_reference(text)


#: Letters and digits outside ASCII, which a word takes in, and quotes,
#: dashes, spaces and a combining accent, which separate words.
WIDE_TEXT = ASCII_TEXT + "éß٣²“”‘’–—\u00a0\u200b\u0301"


@given(st.lists(st.one_of(st.text(alphabet=WIDE_TEXT, max_size=6),
                          st.sampled_from(CORPUS_WORDS)), max_size=20))
@example(["José had 3 apples. How many apples does José have now?"])
@example(["Tom had 3 apples\u00a0and Ann had 2\u200bapples. Tom’s “apples” – ok"])
@settings(max_examples=300)
def test_non_ascii_tokens_match_the_regex_reference(pieces):
    text = "".join(pieces)
    assert tokenized(text) == tokenize_reference(text, WIDE_TOKEN_REFERENCE_RE)


def test_the_token_table_is_the_comprehension_s_table():
    """The table written out as one string equals the one a comprehension
    over the 128 ASCII characters built, and each image is a str."""
    reference = str.maketrans({
        **{c: c if c.isalnum() or c in "'-.," else " " for c in map(chr, range(128))},
        "?": ".", "!": ".",
    })
    assert _TOKENS == reference
    assert all(type(image) is str for image in _TOKENS.values())


def test_a_clause_without_a_marker_is_returned_itself():
    """In a sentence that holds a time marker, a clause without one is
    returned as it is, not copied."""
    [sentence] = tokenize("Dan got 3 nuts and Dan has 5 nuts now.", LEX)
    (words, start, end, _, none), (_, _, _, _, final) = sentence.clauses
    assert not none and final == {TimePoint.FINAL}
    texts = [word.text for word in words]
    clause = (words, start, end, False, none)
    assert _take_markers(clause, texts) is clause


def test_a_tabled_token_is_the_table_s_own_word():
    """Once a text has read a tabled surface, the token's Word is the
    table's, and a later token of that surface is classified by one
    look-up."""
    lex = load_lexicon_text(DEFAULT_LEXICON)
    tabled = 0
    for problem in CORPUS:
        for sentence in tokenize(problem.text, lex):
            for clause in sentence.clauses:
                for word in clause_words(clause):
                    if word.text in lex.tabled and \
                            word.surface in (word.text, word.text.capitalize()):
                        assert word is lex.words[word.surface], word.surface
                        tabled += 1
                    else:
                        assert word.surface not in lex.words, word.surface
    assert tabled > 100


def test_a_clause_is_a_span_of_its_sentence_s_one_list():
    """A clause without a time marker is read in place: the clauses of a
    sentence are spans of its one Word list, in text order, each ending
    at an _END.  A clause that held a marker has a list of its own, whole,
    which ends in _END."""
    marked = unmarked = 0
    for text in [p.text for p in CORPUS] + [chain_text(200)]:
        for sentence in tokenize(text, LEX):
            own, shared, after = [], set(), 0
            for words, start, end, _, markers in sentence.clauses:
                assert words[end] is _END
                assert _END not in words[start:end]
                if markers:
                    assert (start, end) == (0, len(words) - 1)
                    own.append(words)
                    continue
                shared.add(id(words))
                assert words[-1] is _END
                assert after <= start <= end
                after = end + 1
            assert len(shared) <= 1
            assert len({id(words) for words in own} | shared) == len(own) + len(shared)
            marked += len(own)
            unmarked += len(sentence.clauses) - len(own)
    assert (marked, unmarked) == (20, 233)


def test_empty_input():
    with pytest.raises(EmptyInput):
        tokenize("", LEX)
    with pytest.raises(EmptyInput):
        tokenize("   \n ", LEX)


def test_spaced_terminator():
    sentences = tokenize("How many dolls do they have altogether ?", LEX)
    assert len(sentences) == 1


# -- clause forms ------------------------------------------------------------


def test_possession_state():
    [prop] = parse_text("Ruth had 3 apples.")
    assert prop == StateProp(
        StateKey(owner("Ruth"), "apple", TimePoint.INITIAL), 3)


def test_existential_state():
    [prop] = parse_text("There were 4 apples in the basket.")
    assert prop == StateProp(
        StateKey(place("basket"), "apple", TimePoint.INITIAL), 4)


def test_ownership_compare():
    [prop] = parse_text("David has 4 candies more than Ruth has.")
    assert prop == CompareProp(
        StateKey(owner("David"), "candy", TimePoint.FINAL),
        StateKey(owner("Ruth"), "candy", TimePoint.FINAL),
        4, "more")


def test_compare_without_trailing_verb():
    [prop] = parse_text("Clara has 3 flowers more than Sara.")
    assert prop.right == StateKey(owner("Sara"), "flower", TimePoint.FINAL)


def test_owner_question():
    [prop] = parse_text("How many candies does David have now?")
    assert prop == StateProp(
        StateKey(owner("David"), "candy", TimePoint.FINAL), QUESTION)


def test_subject_numeral_never_enters_a_locus():
    girls = Entity("girl", EntityKind.CLASS, cardinality=5)
    assert girls != Entity("girl", EntityKind.CLASS)
    [state] = parse_text("5 girls had 3 tickets.")
    [question] = parse_text("How many tickets do 5 girls have now?")
    bare = Locus(LocusKind.OWNERSHIP, Entity("girl", EntityKind.CLASS))
    assert state.key.locus == question.key.locus \
        == Locus(LocusKind.OWNERSHIP, girls) == bare
    assert state.key.locus.entity.cardinality is None


def test_subject_numeral_event():
    [prop] = parse_text("Two boys left a room.")
    assert prop == EventProp("leave", "boy", 2,
                             source=Entity("room", EntityKind.CLASS))


def test_agent_cardinality_event():
    [prop] = parse_text("5 girls bought 6 tickets.")
    assert prop == EventProp("buy", "ticket", 6,
                             agent=Entity("girl", EntityKind.CLASS, cardinality=5))
    assert prop.agent.cardinality == 5


def test_double_object_dative():
    [prop] = parse_text("Ruth gave Tom 3 apples.")
    assert prop.recipient == Entity("Tom", EntityKind.PROPER)
    assert prop.amount == 3


def test_pronoun_subject_resolution():
    props = parse_text("Ruth had 3 apples. She put 2 apples into a basket.")
    event = props[1]
    assert event.agent == Entity("Ruth", EntityKind.PROPER)
    assert event.destination == Entity("basket", EntityKind.CLASS)


def test_object_pronoun_resolution():
    props = parse_text("John had 5 apples. Mary gave him 3 apples.")
    assert props[1].recipient == Entity("John", EntityKind.PROPER)


def test_a_pronoun_takes_the_latest_name_of_its_gender_in_its_own_text():
    props = parse_text("John had 5 apples. Tom had 2 apples. Mary gave him 3 apples.")
    assert props[2].recipient == Entity("Tom", EntityKind.PROPER)
    parse_problem("Ruth had 3 apples. How many apples does she have now?", LEX)
    with pytest.raises(ParseError, match="pronoun 'she' has no antecedent"):
        parse_problem("Tom had 3 apples. How many apples does she have now?", LEX)


def test_a_pronoun_resolves_to_the_named_entity_itself():
    """A text makes one Entity per name, and a pronoun resolves to it."""
    state, event, question = parse_problem(
        "Ruth had 3 apples. She gave 2 apples to Tom. "
        "How many apples does she have now?", LEX)
    ruth = state.key.locus.entity
    assert event.agent is ruth
    assert question.key.locus.entity is ruth


def test_place_compare():
    [prop] = parse_text("Now there are 2 eggs more in the box than there "
                        "are in the basket.")
    assert prop.left == StateKey(place("box"), "egg", TimePoint.FINAL)
    assert prop.right == StateKey(place("basket"), "egg", TimePoint.FINAL)


def test_a_place_after_than_compares_with_the_place():
    [had] = parse_text("Tom had 2 apples more than the box had.")
    [there] = parse_text("Tom had 2 apples more than there were in the box.")
    assert had == there
    assert had.right == StateKey(place("box"), "apple", TimePoint.INITIAL)


def test_phrasal_verb_event():
    [prop] = parse_text("3 eggs fell out of the box.")
    assert prop.verb == "fall out of"
    assert prop.source == Entity("box", EntityKind.CLASS)


def test_longest_phrasal_lemma_wins():
    lex = load_lexicon_text(DEFAULT_LEXICON + "verb\tfall out\telementary:out:place\n")
    [s] = tokenize("3 eggs fell out of the box.", lex)
    [prop] = parse_clause(s.clauses[0], lex, {}, 0)
    assert prop.verb == "fall out of"


def test_transfer_event():
    [prop] = parse_text(
        "Sara transferred 5 eggs from a basket into the refrigerator.")
    assert prop.source == Entity("basket", EntityKind.CLASS)
    assert prop.destination == Entity("refrigerator", EntityKind.CLASS)


def test_statement_combine():
    [prop] = parse_text("Tom and Ruth had 8 apples altogether.")
    assert isinstance(prop, CombineProp)
    assert prop.total == 8
    assert prop.time is TimePoint.INITIAL
    assert [k.locus.entity.name for k in prop.parts] == ["Tom", "Ruth"]
    assert prop.verb is None   # a state combine


def test_group_question_combine():
    [prop] = parse_text("How many dolls do they have altogether?")
    assert isinstance(prop, CombineProp)
    assert prop.group.kind is EntityKind.GROUP
    assert prop.total == QUESTION
    assert prop.verb is None   # a state combine


def test_event_combine_question():
    [prop] = parse_text("How many tickets did the children buy altogether?")
    assert prop.group == Entity("child", EntityKind.CLASS)
    assert prop.verb == "buy"


def test_distributed_numeral_subjects():
    props = parse_text("3 girls and 5 boys remained in the room.")
    assert props == [
        StateProp(StateKey(place("room"), "girl", TimePoint.FINAL), 3),
        StateProp(StateKey(place("room"), "boy", TimePoint.FINAL), 5),
    ]


def test_known_that_prefix_is_stripped():
    props = parse_text("it is known that Susan had 7 candies in the beginning")
    assert props == [StateProp(
        StateKey(owner("Susan"), "candy", TimePoint.INITIAL), 7)]


# -- errors ---------------------------------------------------------------------


def test_tense_marker_conflict():
    with pytest.raises(ParseError):
        parse_text("Ruth had 3 apples now.")


def test_conflicting_markers():
    with pytest.raises(ParseError):
        parse_text("Ruth had 3 apples now in the beginning.")


@pytest.mark.parametrize("compare", [
    "There were 5 apples more in the box than there zz in the basket.",
    "Tom had 2 apples more than there zz in the box.",
])
def test_comparison_checks_its_second_be_form(compare):
    with pytest.raises(ParseError) as info:
        parse_text(compare)
    assert str(info.value) == "sentence 1: expected a form of 'be', found 'zz'"
    [prop] = parse_text(compare.replace("zz", "are"))
    assert prop.right.time is TimePoint.INITIAL   # the main clause's time governs


def test_unknown_word():
    with pytest.raises(UnknownWord):
        parse_text("Ruth danced 3 apples.")


@pytest.mark.parametrize("statement, verb", [
    ("Tom fell.", "fell"),
    ("Tom went.", "went"),
    ("Ann took 2 apples out.", "took"),
    ("Tom takes 2 apples.", "takes"),
])
def test_an_unknown_verb_is_named_as_written(statement, verb):
    # a phrasal head without a class of its own is named as the text wrote
    # it, not by its lemma
    with pytest.raises(UnknownWord) as info:
        parse_problem(statement + " How many apples does Tom have now?", LEX)
    assert str(info.value) == f"sentence 1: unknown word {verb!r}"


@pytest.mark.parametrize("text, error", [
    ("Tom 3 apples. How many apples does Tom have now?", "expected a verb, found '3'"),
    ("Tom 123 apples. How many apples does Tom have now?", "expected a verb, found '123'"),
    ("Tom the apples. How many apples does Tom have now?", "expected a verb, found 'the'"),
    ("How many apples Tom have now?", "expected a verb, found 'Tom'"),
    ("Tom apples 3. How many apples does Tom have now?", "expected a verb, found 'apples'"),
    ("Tom she 3 apples. How many apples does Tom have now?", "expected a verb, found 'she'"),
    ("Tom zz 3 apples. How many apples does Tom have now?", "unknown word 'zz'"),
    ("Tom That 3 apples. How many apples does Tom have now?", "unknown word 'That'"),
], ids=["numeral", "long-numeral", "grammar-word", "name", "noun", "pronoun", "untabled",
        "untabled-capitalised"])
def test_a_known_word_where_the_verb_belongs_is_not_unknown(text, error):
    # a numeral or a word the lexicon tables is a known word that is no
    # verb; only a word outside the tables is unknown
    with pytest.raises(ParseError) as info:
        parse_problem(text, LEX)
    assert str(info.value) == f"sentence 1: {error}"
    assert isinstance(info.value, UnknownWord) == error.startswith("unknown")


def test_a_past_the_regular_endings_cannot_read_is_unknown():
    # GRAMMAR.md: the -ed ending needs 4 letters, so "xed", the past the
    # proposition list gives a one-letter lemma "x", is no verb and no
    # tabled word
    lex = load_lexicon_text(DEFAULT_LEXICON + "verb\tx\telementary:in:ownership\n")
    with pytest.raises(UnknownWord) as info:
        parse_problem("Tom xed 2 apples. How many apples does Tom have now?", lex)
    assert str(info.value) == "sentence 1: unknown word 'xed'"


def test_truncated_question():
    with pytest.raises(ParseError):
        parse_text("How many apples?")


def test_transitive_event_requires_counted_object():
    # the subject-numeral reading is reserved for locational verbs
    with pytest.raises(ParseError):
        parse_text("5 girls bought.")


def test_object_conjunction_rejected():
    with pytest.raises(ParseError):
        parse_text("Ruth had 3 apples and 4 plums.")


def test_no_question():
    with pytest.raises(NoQuestion):
        parse_problem("Ruth had 3 apples.", LEX)


def test_multiple_questions():
    with pytest.raises(MultipleQuestions):
        parse_problem("How many apples does Tom have now? "
                      "How many plums does Dan have now?", LEX)


def test_parse_error_carries_sentence_index():
    with pytest.raises(ParseError) as info:
        parse_problem("Ruth had 3 apples. Basket apple nonsense here. "
                      "How many apples does Tom have now?", LEX)
    assert info.value.sentence == 1


def test_a_numeral_holds_at_most_1000_digits():
    """GRAMMAR.md: `DIGITS` is at most 1,000 digits; a longer digit string
    is a parse error of its sentence."""
    question = " How many apples does Tom have now?"
    [prop, _] = parse_problem(f"Tom had {'9' * 1000} apples." + question, LEX)
    assert prop.quantity == 10 ** 1000 - 1
    with pytest.raises(ParseError) as info:
        parse_problem(f"Tom had {'9' * 1001} apples." + question, LEX)
    assert str(info.value) == \
        "sentence 1: numeral of 1001 digits is too long (at most 1000)"


# The whole text is tokenized before any clause is parsed, so a word the
# tokenizer refuses in a later sentence is reported before an earlier
# sentence's word that only the clause parser refuses.  A conflict of time
# markers is the clause parser's to report, so an earlier failing clause
# comes first.
@pytest.mark.parametrize("second, message", [
    ("Tom had 5 applés.", "sentence 2: non-ASCII word 'applés'"),
    (f"Tom had {'7' * (MAX_DIGITS + 1)} apples.",
     f"sentence 2: {NumeralTooLong(MAX_DIGITS + 1)}"),
    ("Tom had 5 apples now in the beginning.", "sentence 1: unknown word 'zz'"),
])
def test_errors_are_reported_in_the_order_of_the_stages(second, message):
    text = f"Tom zz 3 apples. {second} How many apples does Tom have now?"
    with pytest.raises(ParseError) as info:
        parse_problem(text, LEX)
    assert str(info.value) == message


def test_conflicting_markers_are_reported_by_their_own_clause():
    with pytest.raises(ParseError) as info:
        parse_problem("Tom had 3 apples. Tom had 5 apples now in the beginning. "
                      "How many apples does Tom have now?", LEX)
    assert str(info.value) == "sentence 2: conflicting time markers in one clause"


# -- whole problems -----------------------------------------------------------


def test_problem_one_parses_to_four_propositions():
    props = parse_problem(by_id("basket-apples").text, LEX)
    assert len(props) == 4
    kinds = [type(p).__name__ for p in props]
    assert kinds == ["StateProp", "EventProp", "StateProp", "StateProp"]
    assert props[2].quantity == QUESTION
    assert props[3].quantity == 4


def test_first_multistep_problem_parses_to_four_propositions():
    props = parse_problem(by_id("apples-altogether").text, LEX)
    assert [type(p).__name__ for p in props] == [
        "CombineProp", "EventProp", "StateProp", "StateProp"]
    assert props[0].total == 8
    assert props[3] == StateProp(
        StateKey(owner("Ruth"), "apple", TimePoint.INITIAL), QUESTION)


# -- round trip -----------------------------------------------------------------


def _reparse_one(sentence):
    latest = {}
    [s] = tokenize(sentence, LEX)
    props = []
    for clause in s.clauses:
        props.extend(parse_clause(clause, LEX, latest, 0))
    assert len(props) == 1
    return props[0]


@pytest.mark.parametrize("problem", CORPUS, ids=lambda p: p.id)
def test_proposition_render_reparse_round_trip(problem):
    for prop in parse_problem(problem.text, LEX):
        rendered = render_proposition(prop, LEX)
        assert _reparse_one(rendered) == prop, rendered


@pytest.mark.parametrize("sentence", [
    "2 birds died in the garden.",
    "Tom made 2 cakes in the kitchen.",
    "2 birds were born in the garden.",
    "1 bird was born in the garden.",
    "2 birds were born.",
    "Tom fetched 2 apples into the basket.",
    "Tom ate 2 cherries in the basket.",
    "Tom made 2 dishes in the kitchen.",
])
def test_event_render_reparse_round_trip(sentence):
    prop = _reparse_one(sentence)
    assert render_proposition(prop, LEX) == sentence


def test_render_proposition_refuses_what_is_not_a_proposition():
    """A check of a public function's argument: only the four proposition
    classes render."""
    [state, _] = parse_problem("Tom had 3 apples. How many apples does Tom have now?", LEX)
    for thing in (None, state.key, "Tom had 3 apples."):
        with pytest.raises(TypeError, match="not a proposition"):
            render_proposition(thing, LEX)


@pytest.mark.parametrize("sentence, source, destination, rendered", [
    # a bare place is the source of an out verb and the destination of any other
    ("Tom put 2 apples the basket.", None, "basket", "Tom put 2 apples into the basket."),
    ("Tom ate 2 apples the basket.", None, "basket", "Tom ate 2 apples in the basket."),
    ("Tom ate 2 apples in the basket.", None, "basket", "Tom ate 2 apples in the basket."),
    ("2 birds were born the garden.", None, "garden", "2 birds were born in the garden."),
    ("2 boys left the room.", "room", None, "2 boys left the room."),
    ("Tom dragged 3 apples out of the box.", "box", None,
     "Tom dragged 3 apples from the box."),
])
def test_a_place_complement_is_the_events_source_or_destination(
        sentence, source, destination, rendered):
    prop = _reparse_one(sentence)
    assert prop.source == (source and Entity(source, EntityKind.CLASS))
    assert prop.destination == (destination and Entity(destination, EntityKind.CLASS))
    assert render_proposition(prop, LEX) == rendered


@pytest.mark.parametrize("n", [1, 2])
def test_birth_is_in_its_place(n):
    prop = EventProp("be born", "bird", n,
                     destination=Entity("garden", EntityKind.CLASS))
    reparsed = _reparse_one(render_proposition(prop, LEX))
    assert reparsed == prop
    assert reparsed.destination == Entity("garden", EntityKind.CLASS)
    assert reparsed.source is None


_NAMES = sorted(LEX.names)
_OBJECTS = ["apple", "candy", "doll", "egg", "nut"]
_PLACES = ["basket", "room", "box", "garden"]


@given(st.sampled_from(_NAMES), st.sampled_from(_OBJECTS),
       st.integers(min_value=0, max_value=20),
       st.sampled_from(list(TimePoint)), st.booleans())
def test_state_round_trip(name, obj, n, time, is_question):
    quantity = QUESTION if is_question else n
    prop = StateProp(StateKey(owner(name), obj, time), quantity)
    assert _reparse_one(render_proposition(prop, LEX)) == prop


@given(st.sampled_from(_PLACES), st.sampled_from(_OBJECTS),
       st.integers(min_value=0, max_value=20),
       st.sampled_from(list(TimePoint)), st.booleans())
def test_place_state_round_trip(noun, obj, n, time, is_question):
    quantity = QUESTION if is_question else n
    prop = StateProp(StateKey(place(noun), obj, time), quantity)
    assert _reparse_one(render_proposition(prop, LEX)) == prop


# -- order independence -----------------------------------------------------------


def _sentences(text):
    return [s.strip() for s in re.findall(r"[^.?!]+[.?!]", text)]


@pytest.mark.parametrize(
    "problem", [p for p in CORPUS if p.pronoun_free], ids=lambda p: p.id)
def test_parse_order_independence(problem):
    base = Counter(parse_problem(problem.text, LEX))
    rng = random.Random(17)
    sentences = _sentences(problem.text)
    for _ in range(5):
        shuffled = sentences[:]
        rng.shuffle(shuffled)
        assert Counter(parse_problem(" ".join(shuffled), LEX)) == base


# -- work-counter gate ---------------------------------------------------------------


def chain_text(k):
    """A k-change chain of one holder, four clauses to a sentence."""
    forms = ("Dan got {} nuts", "Dan lost {} nuts", "Dan gave {} nuts to Tom",
             "Tom gave Dan {} nuts")
    clauses = [forms[i % 4].format(i % 9 + 2) for i in range(k)]
    sentences = [" and ".join(clauses[i: i + 4]) + "." for i in range(0, k, 4)]
    return (f"Dan had {10 * k} nuts. {' '.join(sentences)} "
            "How many nuts does Dan have now?")


def test_the_derivation_runs_once_per_token_outside_the_table(monkeypatch):
    """Each token is classified once, and once a text has read a tabled
    surface, a later token of it costs no derivation at all."""
    calls = []
    derive = Lexicon._words

    def counted(self, *args):
        calls.append(args)
        return derive(self, *args)

    monkeypatch.setattr(Lexicon, "_words", counted)
    lex = load_lexicon_text(DEFAULT_LEXICON)
    texts = [p.text for p in CORPUS] + [chain_text(200)]
    outside = sum(w.lower() not in lex.tabled
                  for text in texts for w in re.findall(r"[A-Za-z0-9'-]+", text))
    for text in texts:
        parse_problem(text, lex)
    first = len(calls)
    assert {text for text, _ in calls} & lex.tabled
    calls.clear()
    for text in texts:
        parse_problem(text, lex)
    assert 0 < len(calls) <= outside and len(calls) < first
    assert not {text for text, _ in calls} & lex.tabled
