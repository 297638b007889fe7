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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .bias import RuleSet
from .errors import (
    EmptyCorpus, ModelFormatError, NoValidPath, SmoothingError, TaggingError, UnknownTag, parse_file,
    split_lines,
)
from .lexicon import AmbiguityClass, Lexicon, guess_unknown
from .tagset import Tag, load_registry, parse_tag
from . import tokenizer as tok

START = "<s>"
END = "</s>"
UNKNOWN = "<unk>"

COUNTS_MARKER = "COUNTS"  # first line of a counts model file

_NORM_TOL = 1e-9
_MIN_PROB = sys.float_info.min  # smallest normal float
_COUNT_LIMIT = 2**63  # counts at or above this are rejected, so sums stay floats


@dataclass(frozen=True)
class TaggedSentence:
    """A non-empty sequence of (token, tag) pairs.

    `fallback` marks sentences whose constrained decoding was infeasible
    and that were re-decoded without bias rules.
    """

    pairs: tuple[tuple[tok.Token, Tag], ...]
    fallback: bool = False

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a tagged sentence must contain at least one token")

    @property
    def tokens(self) -> tuple[tok.Token, ...]:
        return tuple(t for t, _tag in self.pairs)

    @property
    def tags(self) -> tuple[Tag, ...]:
        return tuple(tag for _t, tag in self.pairs)


class HmmModel:
    """Trained (or loaded) bigram HMM.

    Each context code (START or a tag seen in training) has a transition
    row over every registry tag plus END; each tag seen in training has an
    emission row over the training vocabulary plus UNKNOWN.  Other rows are
    implicitly uniform.  A row is stored as ``(unseen, seen)``: `seen` maps
    outcomes to probabilities, and every other outcome has probability
    `unseen`, the row's smallest.  The constructor takes full rows, which
    must sum to 1 within 1e-9.  `kt` and `ke` must be finite and above 0,
    no add-k denominator may overflow, and no probability or tag prior may
    be zero or subnormal.
    `transition_counts` and `emission_counts` hold the training counts the
    rows were smoothed from; they are empty for a model loaded from a v1
    file or built from rows.
    """

    def __init__(
        self,
        transitions: dict[str, dict[str, float]],
        emissions: dict[str, dict[str, float]],
        tag_counts: dict[str, int],
        vocab: frozenset[str],
        kt: float,
        ke: float,
        corpus_name: str = "",
        token_count: int = 0,
        transition_counts: dict[tuple[str, str], int] | None = None,
        emission_counts: dict[tuple[str, str], int] | None = None,
    ):
        self.kt = _smoothing_constant("kt", kt)
        self.ke = _smoothing_constant("ke", ke)
        self.tag_counts = dict(tag_counts)
        self.vocab = frozenset(vocab)
        self.corpus_name = corpus_name
        self.token_count = token_count
        self.transition_counts = transition_counts or {}
        self.emission_counts = emission_counts or {}

        registry = load_registry()
        self._uniform_trans = (1.0 / (len(registry) + 1), {})
        self._uniform_emit = (1.0 / (len(self.vocab) + 1), {})
        denom = _add_k_denominator("kt", kt, sum(self.tag_counts.values()), len(registry))
        self._priors = {
            code: (self.tag_counts.get(code, 0) + kt) / denom
            for code in registry.codes()
        }
        # A zero or subnormal probability makes a log10 or an unknown-word
        # share fail or lose its precision while tagging.
        if min(self._priors.values()) < _MIN_PROB:
            raise ModelFormatError(
                f"kt {kt!r} is too small: a tag prior is zero or subnormal"
            )
        codes = set(registry.codes())
        self._store_rows(
            _sparse_rows("transition", transitions, codes | {START}, codes | {END},
                         f"the registry plus {END}"),
            _sparse_rows("emission", emissions, codes, self.vocab | {UNKNOWN},
                         f"the vocabulary plus {UNKNOWN}"),
        )

    def _store_rows(self, transitions, emissions):
        """Keep ``(unseen, seen)`` rows whose unseen value is normal."""
        for table, constant, k, rows in (("transition", "kt", self.kt, transitions),
                                         ("emission", "ke", self.ke, emissions)):
            for context, (unseen, _seen) in rows.items():
                if unseen < _MIN_PROB:
                    raise ModelFormatError(
                        f"{table} row for {context!r} holds a zero or subnormal "
                        f"probability ({constant} {k!r} is too small)"
                    )
        self._transitions = transitions
        self._emissions = emissions

    @property
    def transitions(self) -> dict[str, dict[str, float]]:
        """Full transition rows over registry order then END, built on access."""
        return _full_rows(self._transitions, list(load_registry().codes()) + [END])

    @property
    def emissions(self) -> dict[str, dict[str, float]]:
        """Full emission rows over sorted forms then UNKNOWN, built on access."""
        return _full_rows(self._emissions, sorted(self.vocab) + [UNKNOWN])

    # ------------------------------------------------------------- scoring
    def transition_logp(self, prev_code: str, next_code: str) -> float:
        unseen, seen = self._transitions.get(prev_code, self._uniform_trans)
        return math.log10(seen.get(next_code, unseen))

    def emission_logp(self, tag_code: str, form: str) -> float:
        unseen, seen = self._emissions.get(tag_code, self._uniform_emit)
        return math.log10(seen.get(form, unseen))

    def unknown_prob(self, tag_code: str) -> float:
        unseen, seen = self._emissions.get(tag_code, self._uniform_emit)
        return seen.get(UNKNOWN, unseen)

    def prior(self, tag_code: str) -> float:
        """Smoothed unigram tag probability from the training counts."""
        return self._priors[tag_code]

    def emission_form(self, surface: str) -> str | None:
        """Vocabulary form to score, with a one-step lowercase fallback."""
        if surface in self.vocab:
            return surface
        lowered = surface.lower()
        if lowered in self.vocab:
            return lowered
        return None


def _smoothing_constant(name: str, value: float) -> float:
    """`value`, checked to be a finite number above 0."""
    if not 0.0 < value < math.inf:  # also false for nan
        raise SmoothingError(f"{name} must be a finite number above 0, not {value!r}")
    return value


def _add_k_denominator(name: str, k: float, total: int, n_outcomes: int) -> float:
    """``total + k * n_outcomes``, checked not to overflow."""
    denom = total + k * n_outcomes
    if denom == math.inf:
        raise ModelFormatError(f"{name} {k!r} is too large: an add-k denominator overflows")
    return denom


def _sparse_rows(table: str, rows: dict, contexts: set[str], outcomes: set[str], cover: str):
    """Check full probability rows and store each as ``(unseen, seen)``:
    its minimum, and the outcomes whose probability differs from it."""
    sparse = {}
    for context, row in rows.items():
        if context not in contexts:
            raise ModelFormatError(f"{table} context {context!r} is not a registry tag")
        if row.keys() != outcomes:
            raise ModelFormatError(f"{table} row for {context!r} does not cover {cover}")
        total = math.fsum(row.values())
        if not abs(total - 1.0) <= _NORM_TOL:  # also rejects a nan total
            raise ModelFormatError(f"{table} row for {context!r} sums to {total!r}")
        unseen = min(row.values())
        sparse[context] = (unseen, {o: p for o, p in row.items() if p != unseen})
    return sparse


def _full_rows(rows: dict, outcomes: list[str]) -> dict[str, dict[str, float]]:
    return {c: {o: seen.get(o, unseen) for o in outcomes} for c, (unseen, seen) in rows.items()}


def train(
    corpus: list[TaggedSentence],
    kt: float = 0.5,
    ke: float = 0.1,
    corpus_name: str = "",
) -> HmmModel:
    """Maximum-likelihood counts with add-k smoothing.

    Transition rows cover the full registry plus the end pseudo-tag;
    emission rows cover the observed vocabulary plus the unknown symbol.
    Deterministic for a given corpus and smoothing values.
    """
    if not corpus:
        raise EmptyCorpus("training corpus is empty")

    registry = load_registry()
    trans_counts: dict[tuple[str, str], int] = {}
    emit_counts: dict[tuple[str, str], int] = {}
    tag_counts: dict[str, int] = {}
    token_count = 0

    def bump(d, key):
        d[key] = d.get(key, 0) + 1

    for s_index, sentence in enumerate(corpus):
        prev = START
        for position, (token, tag) in enumerate(sentence.pairs):
            code = tag.code
            if code not in registry:
                raise UnknownTag(code)
            if token.surface == UNKNOWN:
                raise TaggingError(
                    f"sentence {s_index}, token {position}: the wordform {UNKNOWN!r} "
                    "is reserved for unknown words and cannot be trained"
                )
            bump(trans_counts, (prev, code))
            bump(emit_counts, (code, token.surface))
            bump(tag_counts, code)
            token_count += 1
            prev = code
        bump(trans_counts, (prev, END))

    return _smoothed_model(
        trans_counts, emit_counts, tag_counts, kt, ke, corpus_name, token_count
    )


def _smoothed_model(
    trans_counts: dict[tuple[str, str], int],
    emit_counts: dict[tuple[str, str], int],
    tag_counts: dict[str, int],
    kt: float,
    ke: float,
    corpus_name: str,
    token_count: int,
) -> HmmModel:
    """The add-k smoothed model of a set of counts.

    `train` and the counts-file loader both build their model here, so a
    saved and reloaded model is bit-identical to the trained one.  Each
    row is ``(k / denom, {outcome: (n + k) / denom})`` over its seen
    outcomes; ``0 + k`` is exactly ``k``, so every outcome's probability
    is the float ``(n + k) / denom`` for its count.  Every ``n`` is at
    least 1, so the unseen value is the row's smallest and needs no
    search.  Every transition context other than START and every emission
    tag must be a key of `tag_counts`.
    """
    vocab = frozenset(form for _code, form in emit_counts)
    # built first, so that its constructor checks kt and ke before they divide
    model = HmmModel({}, {}, tag_counts, vocab, kt, ke, corpus_name, token_count,
                     trans_counts, emit_counts)
    registry = load_registry()
    seen_tags = [c for c in registry.codes() if c in tag_counts]
    context_totals = dict.fromkeys([START] + seen_tags, 0)
    for (prev, _nxt), n in trans_counts.items():
        context_totals[prev] += n
    trans_denoms = {c: _add_k_denominator("kt", kt, total, len(registry) + 1)
                    for c, total in context_totals.items()}
    transitions = {c: (kt / d, {}) for c, d in trans_denoms.items()}
    for (prev, nxt), n in trans_counts.items():
        transitions[prev][1][nxt] = (n + kt) / trans_denoms[prev]

    emit_denoms = {c: _add_k_denominator("ke", ke, tag_counts[c], len(vocab) + 1)
                   for c in seen_tags}
    emissions = {c: (ke / d, {}) for c, d in emit_denoms.items()}
    for (code, form), n in emit_counts.items():
        emissions[code][1][form] = (n + ke) / emit_denoms[code]

    model._store_rows(transitions, emissions)
    return model


# ------------------------------------------------------------------ model IO

def _registry_order() -> dict[str, int]:
    order = {code: i for i, code in enumerate(load_registry().codes())}
    order[START] = -1
    order[END] = len(order)
    return order


def _meta_lines(model: HmmModel, order: dict[str, int]) -> list[str]:
    name = model.corpus_name
    # A tab, LF or CR would split or clip the corpus row when the file is read
    # back (`split_lines`), and a lone surrogate cannot be written as UTF-8.
    if any(ch in "\t\n\r" or "\ud800" <= ch <= "\udfff" for ch in name):
        raise TaggingError(f"corpus name {name!r} cannot be stored in a model file")
    return [
        "META",
        f"corpus\t{name}",
        f"tokens\t{model.token_count}",
        f"kt\t{model.kt!r}",
        f"ke\t{model.ke!r}",
    ] + [
        f"count.{code}\t{model.tag_counts[code]}"
        for code in sorted(model.tag_counts, key=order.__getitem__)
    ]


def model_to_text(model: HmmModel) -> str:
    """Serialize a model as v1 probability rows: TRANSITIONS / EMISSIONS /
    META sections.

    Probability rows are ``context<TAB>outcome<TAB>log10-prob``.  META
    rows are ``key<TAB>value`` and carry the smoothing constants plus the
    sparse per-tag training counts needed to rebuild tag priors.
    """
    order = _registry_order()
    lines = []
    for section, rows in (("TRANSITIONS", model.transitions), ("EMISSIONS", model.emissions)):
        lines.append(section)
        for context in sorted(rows, key=order.__getitem__):
            for outcome, prob in rows[context].items():
                lines.append(f"{context}\t{outcome}\t{math.log10(prob)!r}")
    lines += _meta_lines(model, order)
    return "\n".join(lines) + "\n"


def model_to_counts_text(model: HmmModel) -> str:
    """Serialize a model's training counts: a ``COUNTS`` marker line, then
    TRANSITIONS / EMISSIONS / META sections.

    Count rows are ``context<TAB>outcome<TAB>count``, one per pair seen in
    training, in registry order (forms sorted within a tag).  META is as
    in `model_to_text`.  Unseen outcomes are implied by add-k smoothing,
    which the loader redoes exactly as `train` does.
    """
    order = _registry_order()
    lines = [COUNTS_MARKER, "TRANSITIONS"]
    for context, outcome in sorted(
        model.transition_counts, key=lambda pair: (order[pair[0]], order[pair[1]])
    ):
        lines.append(f"{context}\t{outcome}\t{model.transition_counts[context, outcome]}")
    lines.append("EMISSIONS")
    for code, form in sorted(
        model.emission_counts, key=lambda pair: (order[pair[0]], pair[1])
    ):
        lines.append(f"{code}\t{form}\t{model.emission_counts[code, form]}")
    lines += _meta_lines(model, order)
    return "\n".join(lines) + "\n"


def save_model(model: HmmModel, path: str | Path):
    """Write a counts file, or v1 probability rows for a model that has
    no counts (one loaded from a v1 file or built from rows)."""
    text = model_to_counts_text(model) if model.transition_counts else model_to_text(model)
    # encoded before the file is opened, so a failure leaves it untouched
    Path(path).write_bytes(text.encode("utf-8"))


def _count(text: str) -> int:
    value = int(text)
    if not 0 <= value < _COUNT_LIMIT:
        raise ValueError(text)
    return value


def _meta_fields(meta: dict[str, tuple[str, int]]) -> tuple[float, float, dict[str, int], str, int]:
    """kt, ke, tag counts, corpus name and token count of a META section."""

    def meta_number(key: str, convert, default: str | None = None):
        value, line_no = meta.get(key, (default, None))
        if value is None:
            raise ModelFormatError(f"META lacks required key {key!r}")
        try:
            return convert(value)
        except ValueError:
            raise ModelFormatError(f"bad META value {value!r} for {key!r}", line_no) from None

    kt = meta_number("kt", lambda text: _smoothing_constant("kt", float(text)))
    ke = meta_number("ke", lambda text: _smoothing_constant("ke", float(text)))
    tag_counts = {}
    for key, (_value, line_no) in meta.items():
        if key.startswith("count."):
            code = key[len("count."):]
            try:
                parse_tag(code)
            except UnknownTag:
                raise ModelFormatError(f"META counts unknown tag {code!r}", line_no) from None
            tag_counts[code] = meta_number(key, _count)
    token_count = meta_number("tokens", _count, default="0")
    return kt, ke, tag_counts, meta.get("corpus", ("", None))[0], token_count


def model_from_text(text: str) -> HmmModel:
    """Parse and validate a serialized model: a counts file when its first
    line is ``COUNTS``, v1 probability rows otherwise."""
    lines = split_lines(text)
    if lines[0] == COUNTS_MARKER:
        return _model_from_counts(lines)
    return _model_from_v1(lines)


def _data_rows(lines: list[str], first_line_no: int, meta: dict[str, tuple[str, int]],
               row_format: str):
    """Scan a model file's sections: yield ``(line_no, section, cells)`` for
    each TRANSITIONS / EMISSIONS row and store each META row in `meta` as
    key -> (value, line number).  Blank lines are skipped; data before the
    first section header, rows of the wrong width and rows whose context
    or outcome no model can hold are rejected."""
    codes = frozenset(load_registry().codes())
    contexts, outcomes = codes | {START}, codes | {END}
    section = None
    for line_no, raw in enumerate(lines, start=first_line_no):
        if not raw.strip():
            continue
        if raw in ("TRANSITIONS", "EMISSIONS", "META"):
            section = raw
            continue
        if section is None:
            raise ModelFormatError("data before the first section header", line_no)
        cells = raw.split("\t")
        if section == "META":
            if len(cells) != 2:
                raise ModelFormatError("META rows must be 'key<TAB>value'", line_no)
            meta[cells[0]] = (cells[1], line_no)
            continue
        if len(cells) != 3:
            raise ModelFormatError(row_format, line_no)
        context, outcome, _value = cells
        if section == "EMISSIONS":
            if context not in codes:
                raise ModelFormatError(f"emission tag {context!r} is not a registry tag", line_no)
        elif context not in contexts:
            raise ModelFormatError(
                f"transition context {context!r} is neither {START} nor a registry tag", line_no
            )
        elif outcome not in outcomes:
            raise ModelFormatError(
                f"transition outcome {outcome!r} is neither a registry tag nor {END}", line_no
            )
        yield line_no, section, cells


def _model_from_v1(lines: list[str]) -> HmmModel:
    """Parse v1 probability rows (normalization checked by HmmModel)."""
    transitions: dict[str, dict[str, float]] = {}
    emissions: dict[str, dict[str, float]] = {}
    meta: dict[str, tuple[str, int]] = {}
    for line_no, section, (context, outcome, logp) in _data_rows(
        lines, 1, meta, "probability rows must be 'context<TAB>outcome<TAB>log10-prob'"
    ):
        try:
            prob = 10.0 ** float(logp)
        except (ValueError, OverflowError):
            raise ModelFormatError(f"bad log-probability {logp!r}", line_no) from None
        if not prob > 0.0:
            raise ModelFormatError(f"log-probability {logp!r} is not above -inf", line_no)
        row = (transitions if section == "TRANSITIONS" else emissions).setdefault(context, {})
        if outcome in row:
            raise ModelFormatError(f"second {section} row for {context!r} {outcome!r}", line_no)
        row[outcome] = prob

    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta)
    vocab = frozenset(
        form for row in emissions.values() for form in row if form != UNKNOWN
    )
    return HmmModel(
        transitions=transitions,
        emissions=emissions,
        tag_counts=tag_counts,
        vocab=vocab,
        kt=kt,
        ke=ke,
        corpus_name=corpus_name,
        token_count=token_count,
    )


def _model_from_counts(lines: list[str]) -> HmmModel:
    """Parse a counts file, check that its counts agree with each other,
    and smooth them as `train` does."""
    registry = load_registry()
    trans_counts: dict[tuple[str, str], int] = {}
    emit_counts: dict[tuple[str, str], int] = {}
    # (section, context) -> the sum of its counts, and its first line number
    totals: dict[tuple[str, str], int] = {}
    first_row: dict[tuple[str, str], int] = {}
    meta: dict[str, tuple[str, int]] = {}
    for line_no, section, (context, outcome, count) in _data_rows(
        lines[1:], 2, meta, "count rows must be 'context<TAB>outcome<TAB>count'"
    ):
        if not (count.isascii() and count.isdigit() and len(count) < 20
                and 0 < int(count) < _COUNT_LIMIT):
            raise ModelFormatError(f"count {count!r} is not a positive integer", line_no)
        if section == "EMISSIONS" and outcome == UNKNOWN:
            raise ModelFormatError(
                f"emission form {UNKNOWN!r} is reserved for unknown words", line_no
            )
        table = trans_counts if section == "TRANSITIONS" else emit_counts
        if (context, outcome) in table:
            raise ModelFormatError(f"second {section} row for {context!r} {outcome!r}", line_no)
        table[context, outcome] = n = int(count)
        totals[section, context] = totals.get((section, context), 0) + n
        first_row.setdefault((section, context), line_no)

    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta)

    for code in registry.codes():
        emitted = totals.get(("EMISSIONS", code), 0)
        outgoing = totals.get(("TRANSITIONS", code), 0)
        if emitted and code not in tag_counts:
            raise ModelFormatError(
                f"tag {code!r} emits but META has no count.{code}",
                first_row["EMISSIONS", code],
            )
        if emitted != tag_counts.get(code, 0):
            raise ModelFormatError(
                f"count.{code} is {tag_counts[code]} but its emissions total {emitted}",
                meta[f"count.{code}"][1],
            )
        if outgoing != emitted:
            raise ModelFormatError(
                f"tag {code!r} has {outgoing} outgoing transitions but {emitted} emissions",
                first_row.get(("TRANSITIONS", code), first_row.get(("EMISSIONS", code))),
            )
    sentences = sum(n for (_context, outcome), n in trans_counts.items() if outcome == END)
    started = totals.get(("TRANSITIONS", START), 0)
    if started != sentences:
        raise ModelFormatError(
            f"{START} has {started} transitions but {sentences} lead to {END}",
            first_row.get(("TRANSITIONS", START)),
        )
    if token_count != sum(tag_counts.values()):
        raise ModelFormatError(
            f"tokens is {token_count} but the tag counts total {sum(tag_counts.values())}",
            meta.get("tokens", (None, None))[1],
        )
    return _smoothed_model(
        trans_counts, emit_counts, tag_counts, kt, ke, corpus_name, token_count
    )


def load_model(path: str | Path) -> HmmModel:
    return parse_file(path, model_from_text)


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
        return AmbiguityClass(frozenset({parse_tag(punctuation_tag(token.surface))}))
    if token.kind == tok.KIND_NUMBER:
        code = "CARDGU" if "-" in token.surface else "CARDXP"
        return AmbiguityClass(frozenset({parse_tag(code)}))
    if token.kind == tok.KIND_CODE:
        return AmbiguityClass(frozenset({parse_tag("CODE")}))
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
    if surface in load_registry():
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
    scores = []
    for token, cls in sentence:
        tags = cls.sorted_tags()
        form = model.emission_form(token.surface)
        row = {}
        if form is not None:
            for t in tags:
                row[t.code] = model.emission_logp(t.code, form)
        else:
            denom = math.fsum(model.prior(t.code) for t in tags)
            for t in tags:
                row[t.code] = math.log10(
                    model.unknown_prob(t.code) * model.prior(t.code) / denom
                )
        scores.append(row)
    return scores


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
    if not sentence:
        return [], 0.0
    tags = [cls.sorted_tags() for _tok, cls in sentence]
    # The lattice runs START -> one layer per token -> END.  START and END
    # hold one state each, emit with log-probability 0.0 and are never keys
    # of the banned-pair table, so they are never constrained.
    layers = [[START], *([t.code for t in layer] for layer in tags), [END]]
    emits = [{START: 0.0}, *emission_scores(model, sentence), {END: 0.0}]
    banned = ruleset.banned if ruleset is not None else {}

    # Per layer, state j (the j-th tag in registry order) keeps the score of
    # its best path (None when no allowed path reaches it), a backpointer to
    # that path's state in the previous layer, and the path's rank among the
    # layer's live paths in lexicographic registry order.  A path's rank
    # follows from (predecessor's rank, registry index), so comparing
    # predecessor ranks on equal scores picks the lexicographically
    # smallest prefix without storing prefixes.
    scores: list[float | None] = [0.0]
    rank = [0]
    backpointers: list[list[int]] = []
    for i in range(1, len(layers)):
        prev_layer = layers[i - 1]
        prev_bans = [banned.get(p, ()) for p in prev_layer]
        next_scores: list[float | None] = []
        back: list[int] = []
        for t in layers[i]:
            emit_lp = emits[i][t]
            best_score = None
            best_j = -1
            for j, p in enumerate(prev_layer):
                prev_score = scores[j]
                if prev_score is None or t in prev_bans[j]:
                    continue
                score = prev_score + model.transition_logp(p, t) + emit_lp
                if (
                    best_j < 0
                    or score > best_score
                    or (score == best_score and rank[j] < rank[best_j])
                ):
                    best_score, best_j = score, j
            next_scores.append(best_score)
            back.append(best_j)
        live = [k for k, j in enumerate(back) if j >= 0]
        if not live:
            raise NoValidPath(i - 1)
        live.sort(key=lambda k: (rank[back[k]], k))
        rank = [0] * len(back)
        for r, k in enumerate(live):
            rank[k] = r
        scores = next_scores
        backpointers.append(back)

    # Follow the backpointers from END's one state to the first token.
    path = []
    k = 0
    for i in range(len(layers) - 1, 1, -1):
        k = backpointers[i - 1][k]
        path.append(tags[i - 2][k])
    path.reverse()
    return path, scores[0]


# ----------------------------------------------------------------- pipeline

def prepare_sentence(
    sentence_tokens: list[tok.Token],
    model: HmmModel,
    lexicon: Lexicon,
    enclitic_split: bool = True,
) -> list[tuple[tok.Token, AmbiguityClass]]:
    """Resolve splits and attach candidate sets for one sentence."""
    first_wordish: tok.Token | None = next(
        (t for t in sentence_tokens if t.kind != tok.KIND_PUNCTUATION), None
    )
    prepared: list[tuple[tok.Token, AmbiguityClass]] = []
    for token in sentence_tokens:
        expanded = [token]
        if token.kind == tok.KIND_WORD:
            decision = tok.split_portmanteau(token)
            if decision is not None:
                expanded = tok.expand_token(token, decision, tok.KIND_PORTMANTEAU_PART)
            elif enclitic_split:
                decision = tok.split_enclitics(token, lexicon)
                if decision is not None:
                    expanded = tok.expand_token(token, decision, tok.KIND_ENCLITIC_PART)
        for part in expanded:
            prepared.append((
                part,
                candidates(
                    model, lexicon, part,
                    sentence_initial=token is first_wordish,
                ),
            ))
    return prepared


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
    """Tokenize, split sentences, and decode each one.

    Sentences whose constrained decoding is infeasible fall back to
    unconstrained decoding and come back flagged.  Decoding runs on one
    thread, one sentence after another; `jobs` is accepted for
    compatibility and ignored.
    """
    tokens = tok.tokenize(text, abbreviations)
    if multiwords:
        tokens = tok.merge_multiwords(tokens, text, multiwords)
    tagged = []
    for sentence_tokens in tok.sentence_split(tokens):
        prep = prepare_sentence(sentence_tokens, model, lexicon, enclitic_split=enclitic_split)
        try:
            tags, _score = viterbi_decode(model, ruleset, prep)
            flagged = False
        except NoValidPath:
            tags, _score = viterbi_decode(model, None, prep)
            flagged = True
        tagged.append(TaggedSentence(
            pairs=tuple((token, tag) for (token, _cls), tag in zip(prep, tags)),
            fallback=flagged,
        ))
    return tagged
