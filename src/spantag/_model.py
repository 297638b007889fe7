"""The bigram HMM's parameters: training, smoothing, and writing model files.

`train` counts a tagged corpus and add-k smooths the counts into an
`HmmModel`.  A model is saved as its counts (a ``COUNTS`` file) or, when
it has none, as v1 log-probability rows.  Reading either back is
`_model_reader`'s job, and decoding is `tagger`'s, which re-exports the
names of both; so `spantag train` compiles neither the reader nor the
decoder, the lexicon or the tokenizer.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from ._core import table_columns
from .errors import EmptyCorpus, ModelFormatError, SmoothingError, TaggingError, UnknownTag

if TYPE_CHECKING:
    from .corpus_io import TaggedSentence

START = "<s>"
END = "</s>"
UNKNOWN = "<unk>"

COUNTS_MARKER = "COUNTS"  # first line of a counts model file

_NORM_TOL = 1e-9
_MIN_PROB = sys.float_info.min  # smallest normal float

Counts = dict[str, dict[str, int]]  # training counts per context: {context: {outcome: n}}


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
    A model built from rows, here or from a v1 file, carries no counts:
    only `train` and the counts-file loader make a counts model (through
    `_smoothed_model`).  `transition_counts` and `emission_counts` are
    flat ``(context, outcome) -> n`` copies of a counts model's counts,
    empty for any other model.
    """

    def __init__(self, transitions: dict[str, dict[str, float]],
                 emissions: dict[str, dict[str, float]], tag_counts: dict[str, int],
                 vocab: frozenset[str], kt: float, ke: float, corpus_name: str = "",
                 token_count: int = 0):
        self.kt = _smoothing_constant("kt", kt)
        self.ke = _smoothing_constant("ke", ke)
        self.tag_counts = dict(tag_counts)
        self.vocab = frozenset(vocab)
        self.corpus_name = corpus_name
        self.token_count = token_count
        self._transition_counts, self._emission_counts = {}, {}

        codes = table_columns().codes
        self._uniform_trans = (1.0 / (len(codes) + 1), {})
        self._uniform_emit = (1.0 / (len(self.vocab) + 1), {})
        denom = _add_k_denominator("kt", kt, sum(self.tag_counts.values()), len(codes))
        self._priors = {code: (self.tag_counts.get(code, 0) + kt) / denom for code in codes}
        # A zero or subnormal probability makes a log10 or an unknown-word
        # share fail or lose its precision while tagging.
        if min(self._priors.values()) < _MIN_PROB:
            raise ModelFormatError(
                f"kt {kt!r} is too small: a tag prior is zero or subnormal"
            )
        code_set = table_columns().index.keys()
        self._store_rows(
            _sparse_rows("transition", transitions, code_set | {START}, code_set | {END},
                         f"the registry plus {END}"),
            _sparse_rows("emission", emissions, code_set, self.vocab | {UNKNOWN},
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
        return _full_rows(self._transitions, [*table_columns().codes, END])

    @property
    def emissions(self) -> dict[str, dict[str, float]]:
        """Full emission rows over sorted forms then UNKNOWN, built on access."""
        return _full_rows(self._emissions, sorted(self.vocab) + [UNKNOWN])

    @property
    def transition_counts(self) -> dict[tuple[str, str], int]:
        """Transition counts as ``(context, outcome) -> n``, built on access."""
        return _flat_counts(self._transition_counts)

    @property
    def emission_counts(self) -> dict[tuple[str, str], int]:
        """Emission counts as ``(tag, form) -> n``, built on access."""
        return _flat_counts(self._emission_counts)

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


def _flat_counts(rows: Counts) -> dict[tuple[str, str], int]:
    return {(c, o): n for c, row in rows.items() for o, n in row.items()}


def train(corpus: Iterable[TaggedSentence], kt: float = 0.5, ke: float = 0.1,
          corpus_name: str = "") -> HmmModel:
    """Maximum-likelihood counts with add-k smoothing.

    Transition rows cover the full registry plus the end pseudo-tag;
    emission rows cover the observed vocabulary plus the unknown symbol.
    Deterministic for a given corpus and smoothing values.  `corpus` may
    be any iterable, such as `corpus_io.iter_vertical`'s sentences: it is
    read once, one sentence at a time.
    """
    codes = table_columns().index
    # each tag's transition row is made with its emission row
    trans_counts: Counts = {START: {}}
    emit_counts: Counts = {}
    for s_index, sentence in enumerate(corpus):
        prev = trans_counts[START]
        for position, (token, tag) in enumerate(sentence.pairs):
            code = tag.code
            emitted = emit_counts.get(code)
            if emitted is None:
                if code not in codes:
                    raise UnknownTag(code)
                emitted = emit_counts[code] = {}
                trans_counts[code] = {}
            form = token.surface
            if form == UNKNOWN:
                raise TaggingError(
                    f"sentence {s_index}, token {position}: the wordform {UNKNOWN!r} "
                    "is reserved for unknown words and cannot be trained"
                )
            emitted[form] = emitted.get(form, 0) + 1
            prev[code] = prev.get(code, 0) + 1
            prev = trans_counts[code]
        prev[END] = prev.get(END, 0) + 1
    if not trans_counts[START]:  # every sentence leaves START once
        raise EmptyCorpus("training corpus is empty")

    return _smoothed_model(trans_counts, emit_counts, kt, ke, corpus_name)


def _smoothed_model(trans_counts: Counts, emit_counts: Counts, kt: float, ke: float,
                    corpus_name: str) -> HmmModel:
    """The add-k smoothed model of a set of counts held per context.

    This is the only code that makes a counts model: `train` and the
    counts-file loader both build their model here, so a saved and
    reloaded model is bit-identical to the trained one.  Each tag's count
    is its emission row's total, the token count is their sum and the
    vocabulary is the union of the rows' forms, so none can disagree with
    the rows.  Each row is ``(k / denom, {outcome: (n + k) / denom})``
    over its seen outcomes; ``0 + k`` is exactly ``k``, so every outcome's
    probability is the float ``(n + k) / denom`` for its count.  Every
    ``n`` is at least 1, so the unseen value is the row's smallest and
    needs no search.  Rows are made for START and each tag that emits, in
    registry order.
    """
    tag_counts = {code: sum(row.values()) for code, row in emit_counts.items()}
    vocab = frozenset().union(*emit_counts.values())
    # built first, so that its constructor checks kt and ke before they divide
    model = HmmModel({}, {}, tag_counts, vocab, kt, ke, corpus_name, sum(tag_counts.values()))
    model._transition_counts, model._emission_counts = trans_counts, emit_counts
    codes = table_columns().codes
    seen_tags = [c for c in codes if c in tag_counts]
    model._store_rows(
        _smoothed_rows("kt", kt, trans_counts, [START] + seen_tags, len(codes) + 1),
        _smoothed_rows("ke", ke, emit_counts, seen_tags, len(vocab) + 1),
    )
    return model


def _smoothed_rows(name: str, k: float, counts: Counts, contexts: list[str],
                   n_outcomes: int) -> dict[str, tuple]:
    """``(unseen, seen)`` add-k rows of `contexts` over `n_outcomes` outcomes."""
    rows = {}
    for context in contexts:
        row = counts.get(context, {})
        denom = _add_k_denominator(name, k, sum(row.values()), n_outcomes)
        rows[context] = (k / denom, {o: (n + k) / denom for o, n in row.items()})
    return rows


# ------------------------------------------------------------------ model IO

def _registry_order() -> dict[str, int]:
    order = dict(table_columns().index)
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
    return "".join(_v1_blocks(model))


def _v1_blocks(model: HmmModel) -> Iterator[str]:
    """`model_to_text` as blocks of whole lines: a section header, a
    context's rows, then META."""
    order = _registry_order()
    for section, rows in (("TRANSITIONS", model.transitions), ("EMISSIONS", model.emissions)):
        yield section + "\n"
        for context in sorted(rows, key=order.__getitem__):
            yield "".join([f"{context}\t{outcome}\t{math.log10(prob)!r}\n"
                           for outcome, prob in rows[context].items()])
    yield "\n".join(_meta_lines(model, order)) + "\n"


def model_to_counts_text(model: HmmModel) -> str:
    """Serialize a model's training counts: a ``COUNTS`` marker line, then
    TRANSITIONS / EMISSIONS / META sections.

    Count rows are ``context<TAB>outcome<TAB>count``, one per pair seen in
    training, in registry order (forms sorted within a tag).  META is as
    in `model_to_text`.  Unseen outcomes are implied by add-k smoothing,
    which the loader redoes exactly as `train` does.
    """
    return "".join(_counts_blocks(model))


def _counts_blocks(model: HmmModel) -> Iterator[str]:
    """`model_to_counts_text` as blocks of whole lines: the marker, a
    section header, a context's rows, then META."""
    order = _registry_order()
    yield COUNTS_MARKER + "\n"
    for section, rows, outcome_key in (
        ("TRANSITIONS", model._transition_counts, order.__getitem__),
        ("EMISSIONS", model._emission_counts, None),
    ):
        yield section + "\n"
        for context in sorted(rows, key=order.__getitem__):
            row = rows[context]
            yield "".join([f"{context}\t{outcome}\t{row[outcome]}\n"
                           for outcome in sorted(row, key=outcome_key)])
    yield "\n".join(_meta_lines(model, order)) + "\n"


def save_model(model: HmmModel, path: str | Path):
    """Write a counts file, or v1 probability rows for a model that has
    no counts (one loaded from a v1 file or built from rows)."""
    blocks = _counts_blocks(model) if model._transition_counts else _v1_blocks(model)
    # Encoded a block at a time, so the whole text is never held as a str
    # beside its bytes; encoded before the file is opened, so a failure
    # leaves it untouched.
    data = b"".join([block.encode("utf-8") for block in blocks])
    Path(path).write_bytes(data)
