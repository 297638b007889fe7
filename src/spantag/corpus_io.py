"""Vertical corpus format and tagger evaluation.

Vertical files hold one ``token<TAB>TAG`` pair per line with a blank
line after each sentence.  A ``#FALLBACK`` comment line flags the
sentence that follows it as decoded without bias constraints; other
``#`` lines are ignored.  Strict reading rejects non-registry tags;
lenient reading records them and substitutes the unclassified tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import AlignmentError, UnknownTag, VerticalFormatError, parse_file, split_lines
from .lexicon import Lexicon
from .tagset import Tag, parse_tag
from .tagger import TaggedSentence
from .tokenizer import KIND_PUNCTUATION, KIND_WORD, Token, _is_punct_char

FALLBACK_MARK = "#FALLBACK"
_NO_SPAN = (-1, -1)  # vertical files carry no source offsets


@dataclass
class VerticalDocument:
    sentences: list[TaggedSentence]
    provenance: str = ""
    # (line number, offending tag code) collected in lenient mode
    flagged: tuple[tuple[int, str], ...] = ()

    def __len__(self) -> int:
        return len(self.sentences)

    def token_count(self) -> int:
        return sum(len(s.pairs) for s in self.sentences)


def _token_for(surface: str) -> Token:
    kind = KIND_PUNCTUATION if punctuationish(surface) else KIND_WORD
    return Token(surface=surface, span=_NO_SPAN, kind=kind)


def punctuationish(surface: str) -> bool:
    return bool(surface) and all(_is_punct_char(c) for c in surface)


def parse_vertical(text: str, strict: bool = True, provenance: str = "") -> VerticalDocument:
    sentences: list[TaggedSentence] = []
    pairs: list[tuple[Token, Tag]] = []
    flagged: list[tuple[int, str]] = []
    fallback = False

    def close_sentence():
        nonlocal pairs, fallback
        if pairs:
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
            flagged.append((line_no, code))
            tag = parse_tag("PNC")
        pairs.append((_token_for(surface), tag))
    close_sentence()
    return VerticalDocument(
        sentences=sentences, provenance=provenance, flagged=tuple(flagged)
    )


def read_vertical(path: str | Path, strict: bool = True) -> VerticalDocument:
    path = Path(path)
    return parse_file(
        path, lambda text: parse_vertical(text, strict=strict, provenance=str(path))
    )


def format_vertical(doc: VerticalDocument) -> str:
    """Canonical serialization; the empty document is the empty file."""
    chunks = []
    for sentence in doc.sentences:
        lines = []
        if sentence.fallback:
            lines.append(FALLBACK_MARK)
        lines.extend(f"{token.surface}\t{tag.code}" for token, tag in sentence.pairs)
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


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


def evaluate(
    gold: VerticalDocument,
    pred: VerticalDocument,
    lexicon: Lexicon | None = None,
) -> EvalReport:
    """Token-level exact-match accuracy of pred against gold.

    Token streams must be identical; unknown-token accuracy is computed
    over tokens absent from `lexicon` when one is supplied.
    """
    gold_stream = [(t.surface, tag.code) for s in gold.sentences for t, tag in s.pairs]
    pred_stream = [(t.surface, tag.code) for s in pred.sentences for t, tag in s.pairs]
    for i, ((gs, _gt), (ps, _pt)) in enumerate(zip(gold_stream, pred_stream)):
        if gs != ps:
            raise AlignmentError(i, f"{gs!r} vs {ps!r}")
    if len(gold_stream) != len(pred_stream):
        raise AlignmentError(
            min(len(gold_stream), len(pred_stream)), "token streams have different lengths"
        )

    confusion: dict[tuple[str, str], int] = {}
    correct = 0
    unknown_count = 0
    unknown_correct = 0
    for (surface, gold_code), (_s, pred_code) in zip(gold_stream, pred_stream):
        key = (gold_code, pred_code)
        confusion[key] = confusion.get(key, 0) + 1
        hit = gold_code == pred_code
        correct += hit
        if lexicon is not None and lexicon.lookup(surface) is None:
            unknown_count += 1
            unknown_correct += hit
    total = len(gold_stream)
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
