"""Bigram HMM tagger with bias-constrained Viterbi decoding.

The model is a first-order HMM: transition probabilities over adjacent
tags (plus sentence start/end pseudo-states) and emission probabilities
over wordforms, both add-k smoothed.  Transitions are smoothed over the
full tag registry so any candidate tag can be scored; emissions over the
training vocabulary plus an unknown-word symbol.

Decoding maximizes path log-probability (base 10) subject to bias rules
applied as hard constraints on real-tag pairs; start and end contexts
are never constrained.  Exact-score ties break toward the path whose
earlier differing position carries the tag that comes first in registry
order, which makes decoding fully deterministic.

Training, smoothing and writing counts files live in `_model`, and
reading them and the older, read-only v1 files in `_model_reader`;
`tagger.train`, `tagger.load_model` and the other model names are their
objects.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

# `_model_reader` is imported first, see the note above `cli.cmd_train`
from ._model_reader import load_model, model_from_text
from ._model import (
    COUNTS_MARKER, END, START, UNKNOWN, HmmModel, model_to_text, save_model, train,
)
from ._core import Tag, table_columns
from .corpus_io import TaggedSentence
from .errors import NoValidPath
from .lexicon import AmbiguityClass, Lexicon, guess_unknown
from . import tokenizer as tok

if TYPE_CHECKING:
    from .bias import RuleSet


# ----------------------------------------------------------------- decoding

def candidates(
    model: HmmModel,
    lexicon: Lexicon,
    token: tok.Token,
    sentence_initial: bool = False,
) -> AmbiguityClass:
    """Candidate tag set for one token.

    Split parts carry their candidates from the tokenizer; punctuation,
    numbers and codes map to their dedicated tags; everything
    else goes through the lexicon and then the unknown-word guesser.
    """
    if token.candidates:
        return AmbiguityClass(token.candidates)
    if token.kind == tok.KIND_PUNCTUATION:
        return AmbiguityClass.of(punctuation_tag(token.surface))
    if token.kind == tok.KIND_NUMBER:
        return AmbiguityClass.of("CARDGU" if "-" in token.surface else "CARDXP")
    if token.kind == tok.KIND_CODE:
        return AmbiguityClass.of("CODE")
    found = lexicon.lookup(token.surface)
    if found is not None:
        return found
    return guess_unknown(token.surface, sentence_initial=sentence_initial)


_PUNCT_TAG_FALLBACKS = {
    "¿": "IQUEST", "¡": "IEXCL", "…": "...",
    "«": '"', "»": '"', "“": '"', "”": '"', "‘": '"', "’": '"', "'": '"',
    "—": "-", "–": "-",
    "[": "(", "{": "(", "]": ")", "}": ")",
}


def punctuation_tag(surface: str) -> str:
    """Registry tag code for a punctuation surface (PNC when unmapped)."""
    if surface in table_columns().index:
        return surface
    return _PUNCT_TAG_FALLBACKS.get(surface, "PNC")


def emission_scores(
    model: HmmModel, sentence: list[tuple[tok.Token, AmbiguityClass]]
) -> list[dict[str, float]]:
    """Per-token emission log-probabilities for every candidate tag.

    Known wordforms use the smoothed emission rows.  Unknown wordforms
    share each tag's unknown-word mass across the token's candidate set
    proportionally to smoothed tag priors from training.
    """
    unknown_rows: dict[AmbiguityClass, dict[str, float]] = {}
    return [_emission_row(model, token.surface, cls, unknown_rows) for token, cls in sentence]


def _emission_row(
    model: HmmModel, surface: str, cls: AmbiguityClass,
    unknown_rows: dict[AmbiguityClass, dict[str, float]],
) -> dict[str, float]:
    """One token's emission row.  An unknown wordform's row depends on its
    class alone, so the unknown wordforms of one class share the row kept
    in `unknown_rows`."""
    form = model.emission_form(surface)
    if form is None and cls in unknown_rows:
        return unknown_rows[cls]
    tags = cls.sorted_tags()
    row = {}
    if form is not None:
        for t in tags:
            row[t.code] = model.emission_logp(t.code, form)
    else:
        denom = math.fsum(model.prior(t.code) for t in tags)
        for t in tags:
            row[t.code] = math.log10(model.unknown_prob(t.code) * model.prior(t.code) / denom)
        unknown_rows[cls] = row
    return row


def viterbi_decode(
    model: HmmModel,
    ruleset: RuleSet | None,
    sentence: list[tuple[tok.Token, AmbiguityClass]],
) -> tuple[list[Tag], float]:
    """Best constrained tag path and its log10 score.

    Among paths whose every adjacent real-tag pair is allowed by the
    rule set, returns the maximum log-probability path; exact ties break
    toward the path that is lexicographically smallest in registry order
    at the earliest differing position.  Raises NoValidPath when the
    constraints eliminate every path.
    """
    return _decode(model, ruleset, sentence, emission_scores(model, sentence))


def _decode(
    model: HmmModel,
    ruleset: RuleSet | None,
    sentence: list[tuple[tok.Token, AmbiguityClass]],
    emission_rows: list[dict[str, float]],
) -> tuple[list[Tag], float]:
    """`viterbi_decode` with the sentence's `emission_scores` given: one
    row per token, keyed by its class's codes in registry order."""
    if not sentence:
        return [], 0.0
    banned = ruleset.banned if ruleset is not None else {}
    transitions, uniform = model._transitions, model._uniform_trans
    log10 = math.log10

    # The lattice runs START -> one layer per token -> END.  A token's layer
    # is its emission row: its candidate codes in registry order, each with
    # its emission log-probability.  START and END hold one state each,
    # emit with log-probability 0.0 and are never keys of the banned-pair
    # table, so they are never constrained.
    #
    # `live` holds the previous layer's states that some allowed path
    # reaches, in the lexicographic registry order of their best paths.
    # Each is (its rank in that order, path score, banned next codes, its
    # transition row as unseen and seen, and its back-pointer).  A path's
    # rank follows from (predecessor's rank, registry index), so scanning
    # predecessors in rank order and keeping only strictly better scores
    # picks, among equal scores, the lexicographically smallest prefix
    # without storing prefixes.  Each edge adds log10 of its transition
    # probability, the float `transition_logp` returns.
    #
    # A back-pointer is (index in its layer, predecessor's back-pointer):
    # all that outlives a layer, so a long sentence keeps one pair per
    # reached state rather than its score and rows.
    live = [(0, 0.0, (), *transitions.get(START, uniform), None)]
    for i, emits in enumerate([*emission_rows, {END: 0.0}]):
        reached = []
        for k, (t, emit_lp) in enumerate(emits.items()):
            best_score = best_r = None
            for r, prev_score, bans, unseen, seen, _back in live:
                if t in bans:
                    continue
                score = prev_score + log10(seen.get(t, unseen)) + emit_lp
                if best_r is None or score > best_score:
                    best_score, best_r = score, r
            if best_r is not None:
                reached.append((best_r, k, t, best_score))
        if not reached:
            raise NoValidPath(i)
        reached.sort()
        came_from, live = live, []
        for r, (best_r, k, t, score) in enumerate(reached):
            unseen, seen = transitions.get(t, uniform)
            live.append((r, score, banned.get(t, ()), unseen, seen, (k, came_from[best_r][-1])))

    # Follow the back-pointers from END's one state back to the first token.
    path = []
    back = live[0][-1][1]
    for _tok, cls in reversed(sentence):
        k, back = back
        path.append(cls.sorted_tags()[k])
    path.reverse()
    return path, live[0][1]


# ----------------------------------------------------------------- pipeline

def prepare_sentence(
    sentence_tokens: list[tok.Token],
    model: HmmModel,
    lexicon: Lexicon,
    enclitic_split: bool = True,
) -> list[tuple[tok.Token, AmbiguityClass]]:
    """Resolve splits and attach candidate sets for one sentence."""
    return _prepare(sentence_tokens, model, lexicon, enclitic_split, {}, {})[0]


def _prepare(
    sentence_tokens: list[tok.Token],
    model: HmmModel,
    lexicon: Lexicon,
    enclitic_split: bool,
    types: dict[tuple, tuple],
    unknown_rows: dict[AmbiguityClass, dict[str, float]],
) -> tuple[list[tuple[tok.Token, AmbiguityClass]], list[dict[str, float]]]:
    """`prepare_sentence`, and each prepared token's emission row, unknown
    wordforms' rows shared by class through `unknown_rows`.  `types`
    remembers what each token resolved to, keyed by (surface, kind,
    sentence initial, candidates): the entry `_resolve` returns.  The
    parts of a split are built per token, since their spans differ."""
    # By position, not identity: one Token object may occur twice.
    first_wordish = next(
        (i for i, t in enumerate(sentence_tokens) if t.kind != tok.KIND_PUNCTUATION), None
    )
    prepared: list[tuple[tok.Token, AmbiguityClass]] = []
    emits: list[dict[str, float]] = []
    for i, token in enumerate(sentence_tokens):
        key = (token.surface, token.kind, i == first_wordish, token.candidates)
        entry = types.get(key)
        if entry is None:
            entry = types[key] = _resolve(token, model, lexicon, enclitic_split, key[2],
                                          unknown_rows)
        decision, cls, row = entry
        if decision is None:
            prepared.append((token, cls))
            emits.append(row)
        else:
            prepared += zip(tok.expand_token(token, decision), cls)
            emits += row
    return prepared, emits


def _resolve(
    token: tok.Token, model: HmmModel, lexicon: Lexicon, enclitic_split: bool, initial: bool,
    unknown_rows: dict[AmbiguityClass, dict[str, float]],
) -> tuple:
    """(None, candidate class, emission row) for a token kept whole, or
    (split decision, class per part, emission row per part); the decision
    carries the parts' kind."""
    decision = None
    if token.kind == tok.KIND_WORD:
        decision = tok.split_portmanteau(token)
        if decision is None and enclitic_split:
            decision = tok.split_enclitics(token, lexicon)
    if decision is None:
        cls = candidates(model, lexicon, token, sentence_initial=initial)
        return None, cls, _emission_row(model, token.surface, cls, unknown_rows)
    # split parts carry their candidates (see `candidates`)
    classes = tuple(AmbiguityClass(tags) for _surface, tags in decision.parts)
    rows = tuple(_emission_row(model, surface, cls, unknown_rows)
                 for (surface, _tags), cls in zip(decision.parts, classes))
    return decision, classes, rows


def tag_text(
    model: HmmModel,
    lexicon: Lexicon,
    ruleset: RuleSet | None,
    text: str,
    enclitic_split: bool = True,
    abbreviations: frozenset[str] | None = None,
    multiwords: tuple[str, ...] = (),
    jobs: int = 1,
) -> list[TaggedSentence]:
    """`iter_tagged` as a list.  Decoding runs on one thread, one sentence
    after another; `jobs` is accepted for compatibility and ignored."""
    return list(iter_tagged(model, lexicon, ruleset, text, enclitic_split, abbreviations,
                            multiwords))


def iter_tagged(
    model: HmmModel,
    lexicon: Lexicon,
    ruleset: RuleSet | None,
    text: str,
    enclitic_split: bool = True,
    abbreviations: frozenset[str] | None = None,
    multiwords: tuple[str, ...] = (),
) -> Iterator[TaggedSentence]:
    """Tokenize, split sentences, and decode each one, yielding each
    sentence as soon as it is decoded.

    Sentences whose constrained decoding is infeasible fall back to
    unconstrained decoding and come back flagged.  One cache, keyed by
    (surface, kind, sentence initial, candidates), holds each word type's
    split decision, candidate classes and emission rows from its first
    occurrence until the generator is done; a later occurrence costs one
    lookup.  Unknown wordforms of one candidate class share one emission
    row.  So besides the text it holds one sentence and memory that grows
    with the number of distinct types.
    """
    types: dict[tuple, tuple] = {}
    unknown_rows: dict[AmbiguityClass, dict[str, float]] = {}
    for sentence_tokens in tok.iter_sentences(text, abbreviations, multiwords):
        prep, emits = _prepare(sentence_tokens, model, lexicon, enclitic_split, types,
                               unknown_rows)
        try:
            tags, _score = _decode(model, ruleset, prep, emits)
            fallback = False
        except NoValidPath:
            tags, _score = _decode(model, None, prep, emits)
            fallback = True
        # Built from a list, the tuple is made at its final size; `tuple()`
        # of a generator grows it instead, and CPython's free lists then keep
        # the spent tuples, which tracemalloc saw growing with the input.
        pairs = tuple([(token, tag) for (token, _cls), tag in zip(prep, tags)])
        # The sentence's working lists go before the caller gets it, so
        # they are not held while it is formatted.
        del sentence_tokens, prep, emits, tags
        yield TaggedSentence(pairs=pairs, fallback=fallback)
