"""Vertical corpus format and tagger evaluation.

Vertical files hold one ``token<TAB>TAG`` pair per line with a blank
line after each sentence.  A ``#FALLBACK`` comment line flags the
sentence that follows it as decoded without bias constraints; other
``#`` lines are ignored.  Strict reading rejects non-registry tags;
lenient reading substitutes the unclassified tag for each of them and
records where each stand-in sits.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import TYPE_CHECKING

from ._core import KIND_PUNCTUATION, KIND_WORD, Tag, Token, _is_punct_char, parse_tag
from .errors import AlignmentError, UnknownTag, VerticalFormatError, parse_file, split_lines

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


def parse_vertical(text: str, strict: bool = True) -> VerticalDocument:
    sentences: list[TaggedSentence] = []
    pairs: list[tuple[Token, Tag]] = []
    stand_ins: list[tuple[int, str, int, int]] = []
    fallback = False
    # One Token per distinct surface: every vertical token has the same
    # span, so equal surfaces give equal tokens anyway.
    tokens: dict[str, Token] = {}

    def close_sentence():
        nonlocal pairs, fallback
        if pairs:  # a mark before a blank line flags the sentence after it
            sentences.append(TaggedSentence(pairs=tuple(pairs), fallback=fallback))
            pairs = []
            fallback = False

    for line_no, raw in enumerate(split_lines(text), start=1):
        if not raw.strip():
            close_sentence()
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
            stand_ins.append((line_no, code, len(sentences), len(pairs)))
            tag = parse_tag("PNC")
        token = tokens.get(surface)
        if token is None:
            token = tokens[surface] = _token_for(surface)
        pairs.append((token, tag))
    close_sentence()
    return VerticalDocument(sentences=sentences, stand_ins=tuple(stand_ins))


def read_vertical(path: str | Path, strict: bool = True) -> VerticalDocument:
    return parse_file(Path(path), lambda text: parse_vertical(text, strict=strict))


def format_vertical(doc: VerticalDocument) -> str:
    """Canonical serialization; the empty document is the empty file."""
    return "".join(map(format_sentence, doc.sentences))


def format_sentence(sentence: TaggedSentence) -> str:
    """One sentence's block of `format_vertical`, blank line included."""
    lines = [FALLBACK_MARK] if sentence.fallback else []
    lines.extend(f"{token.surface}\t{tag.code}" for token, tag in sentence.pairs)
    return "\n".join(lines) + "\n\n"


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


def _pairs(doc: VerticalDocument) -> Iterator[tuple[Token, Tag]]:
    return (pair for sentence in doc.sentences for pair in sentence.pairs)


def evaluate(
    gold: VerticalDocument,
    pred: VerticalDocument,
    lexicon: Lexicon | None = None,
) -> EvalReport:
    """Token-level exact-match accuracy of pred against gold.

    Token streams must be identical; unknown-token accuracy is computed
    over tokens absent from `lexicon` when one is supplied.  Both
    documents are walked once, side by side, without copying them.
    """
    confusion: dict[tuple[str, str], int] = {}
    total = correct = unknown_count = unknown_correct = 0
    for gold_pair, pred_pair in zip_longest(_pairs(gold), _pairs(pred)):
        if gold_pair is None or pred_pair is None:
            raise AlignmentError(total, "token streams have different lengths")
        (gold_token, gold_tag), (pred_token, pred_tag) = gold_pair, pred_pair
        surface = gold_token.surface
        if surface != pred_token.surface:
            raise AlignmentError(total, f"{surface!r} vs {pred_token.surface!r}")
        key = (gold_tag.code, pred_tag.code)
        confusion[key] = confusion.get(key, 0) + 1
        hit = key[0] == key[1]
        correct += hit
        if lexicon is not None and lexicon.lookup(surface) is None:
            unknown_count += 1
            unknown_correct += hit
        total += 1
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
