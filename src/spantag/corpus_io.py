"""Vertical corpus format and tagger evaluation.

Vertical files hold one ``token<TAB>TAG`` pair per line with a blank
line after each sentence.  A ``#FALLBACK`` comment line flags the
sentence that follows it as decoded without bias constraints; other
``#`` lines are ignored.  Strict reading rejects non-registry tags;
lenient reading substitutes the unclassified tag for each of them and
records where each stand-in sits.  `iter_vertical` reads a file one
sentence at a time; `read_vertical` and `parse_vertical` collect the
same sentences into a `VerticalDocument`.

This module alone says what a stand-in means to the commands that read
a corpus leniently: nothing is learnt from it or rule-checked across it
(`runs`, for `train` and `validate`), and it is scored by the code the
file holds (`evaluate_sentences`, for `eval`).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from ._core import KIND_PUNCTUATION, KIND_WORD, Tag, Token, _is_punct_char, parse_tag
from .errors import (
    AlignmentError, TaggingError, UnknownTag, VerticalFormatError, file_lines, split_lines,
)

if TYPE_CHECKING:
    from .lexicon import Lexicon

FALLBACK_MARK = "#FALLBACK"
_NO_SPAN = (-1, -1)  # vertical files carry no source offsets


@dataclass(frozen=True)
class TaggedSentence:
    """A non-empty sequence of (token, tag) pairs.

    `fallback` marks sentences whose constrained decoding was infeasible
    and that were re-decoded without bias rules.
    """

    pairs: tuple[tuple[Token, Tag], ...]
    fallback: bool = False

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("a tagged sentence must contain at least one token")

    @property
    def tokens(self) -> tuple[Token, ...]:
        return tuple(t for t, _tag in self.pairs)

    @property
    def tags(self) -> tuple[Tag, ...]:
        return tuple(tag for _t, tag in self.pairs)


@dataclass
class VerticalDocument:
    sentences: list[TaggedSentence]
    # (line number, offending tag code, sentence index, token index) of
    # each stand-in put in for an unknown tag in lenient mode, in file order
    stand_ins: tuple[tuple[int, str, int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.sentences)

    def token_count(self) -> int:
        return sum(len(s.pairs) for s in self.sentences)


def _token_for(surface: str) -> Token:
    kind = KIND_PUNCTUATION if punctuationish(surface) else KIND_WORD
    return Token(surface=surface, span=_NO_SPAN, kind=kind)


def punctuationish(surface: str) -> bool:
    return bool(surface) and all(_is_punct_char(c) for c in surface)


StandIn = tuple[int, str, int]  # (line number, offending tag code, token index)
ReadSentence = tuple[TaggedSentence, tuple[StandIn, ...]]  # a sentence and its stand-ins


def _sentences(lines: Iterable[tuple[int, str]], strict: bool) -> Iterator[ReadSentence]:
    """The vertical parser: each sentence of ``(line number, line)`` pairs
    as soon as its last line is read, with its stand-ins."""
    pairs: list[tuple[Token, Tag]] = []
    stand_ins: list[StandIn] = []
    fallback = False
    # One Token per distinct surface: every vertical token has the same
    # span, so equal surfaces give equal tokens anyway.
    tokens: dict[str, Token] = {}
    for line_no, raw in lines:
        if not raw.strip():
            if pairs:  # a mark before a blank line flags the sentence after it
                yield TaggedSentence(pairs=tuple(pairs), fallback=fallback), tuple(stand_ins)
                pairs, stand_ins, fallback = [], [], False
            continue
        if raw.strip() == FALLBACK_MARK:
            fallback = True
            continue
        if raw.startswith("#") and "\t" not in raw:
            continue  # comment; a "#" token line always carries a tab
        cells = raw.split("\t")
        if len(cells) != 2:
            raise VerticalFormatError("expected exactly one tab per line", line_no)
        surface, code = cells
        if not surface or not code:
            raise VerticalFormatError("empty token or tag field", line_no)
        try:
            tag = parse_tag(code)
        except UnknownTag:
            if strict:
                raise UnknownTag(code, line_no) from None
            stand_ins.append((line_no, code, len(pairs)))
            tag = parse_tag("PNC")
        token = tokens.get(surface)
        if token is None:
            token = tokens[surface] = _token_for(surface)
        pairs.append((token, tag))
    if pairs:
        yield TaggedSentence(pairs=tuple(pairs), fallback=fallback), tuple(stand_ins)


def iter_vertical(path: str | Path, strict: bool = True) -> Iterator[ReadSentence]:
    """Each sentence of a vertical file, as soon as it is read, with the
    ``(line number, offending tag code, token index)`` of each stand-in
    that lenient reading put in it.  The file is read a chunk at a time
    (`errors.file_lines`), so the memory held is one sentence and the
    distinct surfaces, not the file.  Errors are those of `read_vertical`,
    raised when the reading reaches them."""
    try:
        yield from _sentences(file_lines(path), strict)
    except TaggingError as exc:
        if exc.line is not None:  # a bad line; the UTF-8 error names the file itself
            exc.args = (f"{path}: {exc}",)
        raise


def runs(sentence: TaggedSentence,
         stand_ins: Iterable[StandIn]) -> list[tuple[int, TaggedSentence]]:
    """Each run of `sentence`'s pairs between its `stand_ins` that holds a
    pair, as a sentence of its own, with the index of its first pair in
    `sentence`.  With no stand-in, that is the whole sentence at 0."""
    bounds = [-1, *(position for _line_no, _code, position in stand_ins), len(sentence.pairs)]
    return [(start + 1, TaggedSentence(sentence.pairs[start + 1:end]))
            for start, end in zip(bounds, bounds[1:]) if end > start + 1]


def _document(sentences: Iterable[ReadSentence]) -> VerticalDocument:
    kept: list[TaggedSentence] = []
    stand_ins: list[tuple[int, str, int, int]] = []
    for s_index, (sentence, marks) in enumerate(sentences):
        kept.append(sentence)
        if marks:
            stand_ins.extend((line_no, code, s_index, position) for line_no, code, position in marks)
    return VerticalDocument(sentences=kept, stand_ins=tuple(stand_ins))


def parse_vertical(text: str, strict: bool = True) -> VerticalDocument:
    return _document(_sentences(enumerate(split_lines(text), start=1), strict))


def read_vertical(path: str | Path, strict: bool = True) -> VerticalDocument:
    return _document(iter_vertical(path, strict))


def format_vertical(doc: VerticalDocument) -> str:
    """Canonical serialization; the empty document is the empty file."""
    return "".join(map(format_sentence, doc.sentences))


def format_sentence(sentence: TaggedSentence) -> str:
    """One sentence's block of `format_vertical`, blank line included."""
    # Joined from the surfaces and codes themselves, the block is the one
    # string made: a string per line would cost more than the block.
    parts = [FALLBACK_MARK, "\n"] if sentence.fallback else []
    for token, tag in sentence.pairs:
        parts += token.surface, "\t", tag.code, "\n"
    parts.append("\n")
    return "".join(parts)


def write_vertical(doc: VerticalDocument, path: str | Path):
    Path(path).write_bytes(format_vertical(doc).encode("utf-8"))


@dataclass
class EvalReport:
    token_count: int
    correct: int
    accuracy: float
    confusion: dict[tuple[str, str], int] = field(default_factory=dict)
    unknown_count: int = 0
    unknown_correct: int = 0
    unknown_accuracy: float | None = None


def _with_stand_ins(doc: VerticalDocument) -> Iterator[ReadSentence]:
    """`doc`'s sentences with their stand-ins, as `iter_vertical` gives them."""
    marks: dict[int, list[StandIn]] = {}
    for line_no, code, s_index, position in doc.stand_ins:
        marks.setdefault(s_index, []).append((line_no, code, position))
    return ((sentence, marks.get(s_index, ())) for s_index, sentence in enumerate(doc.sentences))


Coded = list[tuple[str, str]]  # a sentence's (surface, tag code) pairs


def _coded(sentences: Iterable[ReadSentence]) -> Iterator[Coded]:
    """``(surface, tag code)`` of each token, a sentence at a time, a
    stand-in's code being the one the file holds."""
    for sentence, stand_ins in sentences:
        pairs = [(token.surface, tag.code) for token, tag in sentence.pairs]
        for _line_no, code, position in stand_ins:
            pairs[position] = pairs[position][0], code
        yield pairs


def _caught(stream: Iterator[Coded], faults: list[Exception]) -> Iterator[Coded]:
    """`stream` up to its first fault, which is put in `faults`."""
    try:
        yield from stream
    except (TaggingError, OSError) as exc:
        faults.append(exc)


def evaluate(
    gold: VerticalDocument,
    pred: VerticalDocument,
    lexicon: Lexicon | None = None,
) -> EvalReport:
    """`evaluate_sentences` of two documents."""
    return evaluate_sentences(_with_stand_ins(gold), _with_stand_ins(pred), lexicon)


def evaluate_sentences(
    gold: Iterable[ReadSentence],
    pred: Iterable[ReadSentence],
    lexicon: Lexicon | None = None,
) -> EvalReport:
    """Token-level exact-match accuracy of pred against gold, sentences
    with their stand-ins as `iter_vertical` gives them.

    Token streams must be identical; unknown-token accuracy is computed
    over tokens absent from `lexicon` when one is supplied.  A stand-in
    is scored by the code the file holds, so two different unknown codes
    never match.  Both are walked once, in step, a sentence at a time.
    Faults come in the order of reading gold whole, then pred, then
    comparing them: a fault in gold is raised as it is met, and at a
    fault in pred or a misalignment the rest of gold and then of pred is
    read, so that a fault in either is raised first.
    """
    confusion: dict[tuple[str, str], int] = {}
    total = correct = unknown_count = unknown_correct = 0
    faults: list[Exception] = []
    gold_pairs = chain.from_iterable(_coded(gold))
    pred_pairs = chain.from_iterable(_caught(_coded(pred), faults))
    for gold_pair, pred_pair in zip_longest(gold_pairs, pred_pairs):
        if gold_pair is None or pred_pair is None or gold_pair[0] != pred_pair[0]:
            # a misalignment, or pred ended at a fault: a later fault in
            # gold, then one in pred, comes first
            for _pair in chain(gold_pairs, pred_pairs):
                pass
            if faults:
                raise faults[0]
            raise AlignmentError(total, f"{gold_pair[0]!r} vs {pred_pair[0]!r}"
                                 if gold_pair and pred_pair
                                 else "token streams have different lengths")
        surface, gold_code = gold_pair
        key = (gold_code, pred_pair[1])
        confusion[key] = confusion.get(key, 0) + 1
        hit = gold_code == key[1]
        correct += hit
        if lexicon is not None and lexicon.lookup(surface) is None:
            unknown_count += 1
            unknown_correct += hit
        total += 1
    if faults:  # met after pred's last token
        raise faults[0]
    return EvalReport(
        token_count=total,
        correct=correct,
        accuracy=correct / total if total else 1.0,
        confusion=confusion,
        unknown_count=unknown_count,
        unknown_correct=unknown_correct,
        unknown_accuracy=(
            None if lexicon is None
            else (unknown_correct / unknown_count if unknown_count else 1.0)
        ),
    )


def format_report(report: EvalReport) -> str:
    """Summary block plus a confusion-matrix TSV (mismatches first)."""
    lines = [
        f"tokens\t{report.token_count}",
        f"correct\t{report.correct}",
        f"accuracy\t{report.accuracy:.6f}",
    ]
    if report.unknown_accuracy is not None:
        lines.append(f"unknown-tokens\t{report.unknown_count}")
        lines.append(f"unknown-accuracy\t{report.unknown_accuracy:.6f}")
    lines.append("")
    lines.append("GOLD\tPREDICTED\tCOUNT")
    ordered = sorted(
        report.confusion.items(),
        key=lambda item: (item[0][0] == item[0][1], -item[1], item[0]),
    )
    lines.extend(f"{g}\t{p}\t{n}" for (g, p), n in ordered)
    return "\n".join(lines) + "\n"
