"""Seeded workload generators with expectations computed outside the program.

Every generator takes the seed and returns a list of `Problem`s; the program
under test only ever sees `Problem.text`.  Expected verdicts and answers
come from the corpus expectations (fixed earlier by the enumeration oracle)
or from the generator's own arithmetic, never from schemarith itself.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass

# Set sizes.  A run cycles its set in whole passes, so every problem
# weighs the same in the throughput of a run.
CORPUS_VARIANTS = 20     # perturbed copies of each of the 12 corpus problems
CHAIN_K = (50, 250)      # range of change events per chain problem
CHAIN_SIZES = 15         # evenly spaced values of k over CHAIN_K
CHAINS_PER_SIZE = 3
CLAUSES_PER_SENTENCE = (1, 8)

# Word stock for generated sentences; all of it is in the default lexicon.
HOLDERS = ("Ruth", "Mary", "Sara", "Susan", "Ann", "Clara", "Alice", "Eve",
           "David", "John", "Tom", "Dan", "Fred", "Bob", "Adam")
PLACES = ("basket", "room", "refrigerator", "box", "house", "village",
          "garden")
OBJECTS = (("apple", "apples"), ("candy", "candies"), ("plum", "plums"),
           ("doll", "dolls"), ("flower", "flowers"), ("nut", "nuts"),
           ("egg", "eggs"), ("ticket", "tickets"), ("marble", "marbles"),
           ("stone", "stones"), ("pencil", "pencils"), ("toy", "toys"),
           ("book", "books"))

# The CLI's documented exit code per verdict.
_VERDICT_EXIT = {"solved": 0, "insufficient": 3, "contradiction": 4, "invalid": 4}


@dataclass(frozen=True)
class Problem:
    id: str
    text: str
    expected_verdict: str
    expected_answer: int | None

    @property
    def expected_exit(self) -> int:
        return _VERDICT_EXIT[self.expected_verdict]


def sentences_of(text):
    return [s.strip() for s in re.findall(r"[^.?!]+[.?!]", text)]


def _words(text):
    return {w.lower() for w in re.findall(r"[A-Za-z]+", text)}


def _extraneous_state(rng, present):
    """A state of a holder or place and an object class absent from the text.

    The words it uses join `present`, so the next extraneous state of the
    problem cannot restate the same amount with another value.
    """
    objects = [o for o in OBJECTS if o[0] not in present and o[1] not in present]
    singular, plural = rng.choice(objects)
    present.update((singular, plural))
    n = rng.randint(2, 20)
    if rng.random() < 0.5:
        holder = rng.choice([h for h in HOLDERS if h.lower() not in present])
        present.add(holder.lower())
        verb = rng.choice(("had", "has"))
        return f"{holder} {verb} {n} {plural}."
    place = rng.choice([p for p in PLACES if p not in present])
    present.add(place)
    if rng.random() < 0.5:
        return f"There were {n} {plural} in the {place}."
    return f"There are {n} {plural} in the {place} now."


def corpus_problems(seed, corpus):
    """The bundled problems, perturbed by seed.

    Pronoun-free problems get their sentences transposed and 0-3
    extraneous states inserted; pronoun-bearing problems run verbatim,
    since an inserted name could capture a pronoun.
    """
    rng = random.Random(f"corpus:{seed}")
    out = []
    for variant in range(CORPUS_VARIANTS):
        for cp in corpus:
            text = cp.text
            if cp.pronoun_free:
                parts = sentences_of(text)
                rng.shuffle(parts)
                present = _words(text)
                for _ in range(rng.randint(0, 3)):
                    parts.insert(rng.randrange(len(parts) + 1),
                                 _extraneous_state(rng, present))
                text = " ".join(parts)
            out.append(Problem(f"{cp.id}~{variant}", text, cp.expected_verdict,
                               cp.expected_answer))
    return out


def _chain(rng, k):
    """(holder, plural, clauses, total delta) of one single-holder chain.

    The clauses change the holder's amount through elementary verbs
    (got, lost) and compound ones whose counterpart gets a timeline with
    no stated endpoints, which the cautious strategy skips.
    """
    holder = rng.choice(HOLDERS)
    others = [h for h in HOLDERS if h != holder]
    singular, plural = rng.choice(OBJECTS)
    # The four clause forms in equal shares, so chains of one k do alike work.
    forms = [i % 4 for i in range(k)]
    rng.shuffle(forms)
    clauses, total = [], 0
    for form in forms:
        n = rng.randint(1, 9)
        objs = singular if n == 1 else plural
        if form == 0:
            clauses.append(f"{holder} got {n} {objs}")
            total += n
        elif form == 1:
            clauses.append(f"{holder} lost {n} {objs}")
            total -= n
        elif form == 2:
            clauses.append(f"{holder} gave {n} {objs} to {rng.choice(others)}")
            total -= n
        else:
            clauses.append(f"{rng.choice(others)} gave {holder} {n} {objs}")
            total += n
    return holder, plural, clauses, total


def _join(rng, clauses):
    sentences, i = [], 0
    while i < len(clauses):
        j = i + rng.randint(*CLAUSES_PER_SENTENCE)
        sentences.append(" and ".join(clauses[i:j]) + ".")
        i = j
    return " ".join(sentences)


def chain_problems(seed, backward):
    """Seeded change chains; forward asks the final amount, backward the initial.

    Both directions draw identical chains from one seed.  k takes
    CHAIN_SIZES evenly spaced values over CHAIN_K, CHAINS_PER_SIZE chains
    each, in seeded order, so sets of different seeds weigh alike.  With
    an odd number of sizes the median and the 90th percentile of the
    latencies fall inside one size, not on the step between two.  The
    initial amount keeps the final one nonnegative; with removals ordered
    last on a timeline, every intermediate amount is then nonnegative too.
    """
    rng = random.Random(f"chain:{seed}")
    lo, hi = CHAIN_K
    ks = [lo + (hi - lo) * (2 * i + 1) // (2 * CHAIN_SIZES)
          for i in range(CHAIN_SIZES) for _ in range(CHAINS_PER_SIZE)]
    rng.shuffle(ks)
    out = []
    for i, k in enumerate(ks):
        holder, plural, clauses, total = _chain(rng, k)
        initial = max(0, -total) + rng.randint(0, 20)
        final = initial + total
        body = _join(rng, clauses)
        if backward:
            text = (f"{body} Now {holder} has {final} {plural}. How many "
                    f"{plural} did {holder} have in the beginning?")
            answer = initial
        else:
            text = (f"{holder} had {initial} {plural}. {body} How many "
                    f"{plural} does {holder} have now?")
            answer = final
        out.append(Problem(f"chain-{i}-k{k}", text, "solved", answer))
    return out


WORKLOADS = ("corpus", "chain-forward", "chain-backward")


def make(workload, seed, corpus):
    if workload == "corpus":
        return corpus_problems(seed, corpus)
    if workload == "chain-forward":
        return chain_problems(seed, backward=False)
    if workload == "chain-backward":
        return chain_problems(seed, backward=True)
    raise ValueError(f"unknown workload {workload!r}")
