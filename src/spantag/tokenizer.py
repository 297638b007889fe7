"""Spanish-aware tokenization.

Turns raw text into textword tokens with byte spans into the source, so
the original document is always reconstructible.  Handles the mismatches
between orthographic words and textwords: portmanteau detection ("al",
"del" stay one textword with their own tags) and enclitic splitting
("dímelo" -> di + me + lo, gated on the verb stem being attested in a
lexicon).

All functions are pure; tokenization is deterministic and total.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .errors import TaggingError, read_utf8
from .lexicon import Lexicon
from .tagset import Tag, decompose, load_registry, parse_tag

KIND_WORD = "word"
KIND_PUNCTUATION = "punctuation"
KIND_NUMBER = "number"
KIND_CODE = "code"
KIND_FORMULA = "formula"
KIND_ABBREVIATION = "abbreviation"
KIND_PORTMANTEAU_PART = "portmanteau-part"
KIND_ENCLITIC_PART = "enclitic-part"

TOKEN_KINDS = frozenset({
    KIND_WORD, KIND_PUNCTUATION, KIND_NUMBER, KIND_CODE, KIND_FORMULA,
    KIND_ABBREVIATION, KIND_PORTMANTEAU_PART, KIND_ENCLITIC_PART,
})

SENTENCE_TERMINATORS = frozenset({".", "?", "!", "...", "…"})

CONFIDENCE_CERTAIN = "certain"
CONFIDENCE_HEURISTIC = "heuristic"


@dataclass(frozen=True)
class Token:
    """One textword.

    `span` is a (byte-start, byte-end) pair into the UTF-8 encoding of
    the source text.  Tokens produced by splitting one orthographic word
    share the parent's span and carry `origin` = (parent surface, part
    index).  `candidates` is an optional tag attachment set by the
    splitting pipeline.
    """

    surface: str
    span: tuple[int, int]
    kind: str
    origin: tuple[str, int] | None = None
    candidates: frozenset[Tag] | None = None


@dataclass(frozen=True)
class SplitDecision:
    """Outcome of splitting (or keeping whole) one orthographic word."""

    parts: tuple[tuple[str, frozenset[Tag]], ...]
    confidence: str
    source: str


_TOKEN_RE = re.compile(
    r"(?P<ellipsis>\.\.\.)"
    r"|(?P<code>(?:[^\W\d_]+\d|\d+[^\W\d_])\w*)"
    r"|(?P<number>\d+(?:[.,]\d+)*(?:-\d+(?:[.,]\d+)*)?)"
    r"|(?P<word>[^\W\d_]+(?:-[^\W\d_]+)*)"
    r"|(?P<other>\S)"
)


@lru_cache(maxsize=1)
def default_abbreviations() -> frozenset[str]:
    """Abbreviations from the registry's title and unit example forms."""
    forms = set()
    for entry in load_registry():
        if entry.features.category in ("title-noun", "unit-of-measure"):
            forms.update(f for f in entry.examples if f.endswith("."))
    return frozenset(forms)


def _entries(path: str | Path):
    """(line number, entry) per non-blank, non-``#`` line, spaces collapsed."""
    for line_no, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = " ".join(raw.split())
        if line and not line.startswith("#"):
            yield line_no, line


def _is_one_word(text: str) -> bool:
    tokens = tokenize(text, frozenset())
    return len(tokens) == 1 and tokens[0].kind == KIND_WORD and tokens[0].surface == text


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """User abbreviation file (one surface per line, ``#`` comments),
    unioned with the built-in list.  Tokenizing merges only one word and
    a final ``.``, so any other entry raises a TaggingError."""
    forms = set(default_abbreviations())
    for line_no, line in _entries(path):
        if not (line.endswith(".") and _is_one_word(line[:-1])):
            raise TaggingError(
                f"{path}: line {line_no}: abbreviation {line!r} is not one word followed by '.'")
        forms.add(line)
    return frozenset(forms)


def load_multiwords(path: str | Path) -> tuple[str, ...]:
    """Multiword file: one space-separated multiword expression per line.
    Only two or more word tokens merge, so any other entry raises a
    TaggingError."""
    out = []
    for line_no, line in _entries(path):
        words = line.split(" ")
        bad = [w for w in words if not _is_one_word(w)]
        if bad or len(words) < 2:
            problem = f"{bad[0]!r} is not one word" if bad else "needs two or more words"
            raise TaggingError(f"{path}: line {line_no}: multiword {line!r}: {problem}")
        out.append(line)
    return tuple(out)


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


# Kind of each `_TOKEN_RE` group but `other`, which is punctuation or a word.
_GROUP_KINDS = {"ellipsis": KIND_PUNCTUATION, "code": KIND_CODE,
                "number": KIND_NUMBER, "word": KIND_WORD}


def tokenize(text: str, abbreviations: frozenset[str] | None = None) -> list[Token]:
    """Segment text into tokens with byte spans into its UTF-8 encoding.

    A single pass over the regex matches classifies each token, keeps the
    byte offset, and folds a period into the touching word before it when
    the two form a listed abbreviation.  Punctuation marks (including
    inverted marks and the three-dot ellipsis) are separate tokens;
    numbers and hyphenated number ranges are single tokens; alphanumeric
    codes are single tokens of kind "code".  Unknown symbols become plain
    word tokens, so the function is total.
    """
    if abbreviations is None:
        abbreviations = default_abbreviations()
    tokens: list[Token] = []
    char_pos = byte_pos = 0
    for m in _TOKEN_RE.finditer(text):
        surface = m.group()
        start = byte_pos + len(text[char_pos:m.start()].encode("utf-8"))
        byte_pos = start + len(surface.encode("utf-8"))
        char_pos = m.end()
        if surface == "." and tokens:
            prev = tokens[-1]
            if (prev.kind == KIND_WORD and prev.span[1] == start
                    and prev.surface + "." in abbreviations):
                tokens[-1] = Token(prev.surface + ".", (prev.span[0], byte_pos), KIND_ABBREVIATION)
                continue
        kind = _GROUP_KINDS.get(m.lastgroup)
        if kind is None:
            kind = KIND_PUNCTUATION if _is_punct_char(surface) else KIND_WORD
        tokens.append(Token(surface, (start, byte_pos), kind))
    return tokens


def merge_multiwords(tokens: list[Token], text: str, multiwords: tuple[str, ...]) -> list[Token]:
    """Merge adjacent word tokens that form a listed multiword expression.

    Tokens must be separated by exactly one space in the source; the
    merged token keeps the covering span, so reconstruction still holds.
    """
    if not multiwords:
        return list(tokens)
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for mw in multiwords:
        words = tuple(mw.split(" "))
        by_first.setdefault(words[0], []).append(words)
    for seqs in by_first.values():
        seqs.sort(key=len, reverse=True)

    data = text.encode("utf-8")
    out: list[Token] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        match_len = 0
        if tok.kind == KIND_WORD and tok.surface in by_first:
            for words in by_first[tok.surface]:
                n = len(words)
                if i + n > len(tokens):
                    continue
                window = tokens[i : i + n]
                if any(t.kind != KIND_WORD for t in window):
                    continue
                if tuple(t.surface for t in window) != words:
                    continue
                gaps_ok = all(
                    data[window[k].span[1] : window[k + 1].span[0]] == b" "
                    for k in range(n - 1)
                )
                if gaps_ok:
                    match_len = n
                    break
        if match_len > 1:
            start = tok.span[0]
            end = tokens[i + match_len - 1].span[1]
            out.append(Token(
                surface=data[start:end].decode("utf-8"),
                span=(start, end),
                kind=KIND_WORD,
            ))
            i += match_len
        else:
            out.append(tok)
            i += 1
    return out


def sentence_split(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream after sentence-terminating punctuation.

    Abbreviation tokens never end a sentence; trailing material forms a
    final sentence.
    """
    sentences: list[list[Token]] = []
    current: list[Token] = []
    for tok in tokens:
        current.append(tok)
        if tok.kind == KIND_PUNCTUATION and tok.surface in SENTENCE_TERMINATORS:
            sentences.append(current)
            current = []
    if current:
        sentences.append(current)
    return sentences


# --------------------------------------------------------------------------
# orthographic word vs textword resolution

_PORTMANTEAU_CANDIDATES = {
    "al": ("PAL", "CSUBI"),
    "del": ("PDEL",),
}

# Clitic pronoun readings used when a verb+enclitic group is split.
CLITIC_TAGS = {
    "me": "PPC1S", "te": "PPC2S", "se": "SE",
    "le": "PPC3S", "les": "PPC3P",
    "la": "PPO3FS", "las": "PPO3FP",
    "lo": "PPO3XS", "los": "PPO3MP",
    "nos": "PPC1P", "os": "PPC2P",
}

# Longest first, then alphabetical: fixed search order for stripping.
_CLITICS_ORDERED = tuple(sorted(CLITIC_TAGS, key=lambda c: (-len(c), c)))

_ENCLITIC_HOST_MOODS = frozenset({"imperative", "infinitive", "gerund"})

_ACCENT_PLAIN = {"á": "a", "é": "e", "í": "i", "ó": "o", "ú": "u",
                 "Á": "A", "É": "E", "Í": "I", "Ó": "O", "Ú": "U"}


def split_portmanteau(token: Token) -> SplitDecision | None:
    """Detect the closed portmanteau forms.

    Portmanteaux stay one textword carrying their own tags; only the
    first letter is case-folded, so "Al" matches but "AL" does not.
    """
    if token.kind != KIND_WORD or not token.surface:
        return None
    folded = token.surface[0].lower() + token.surface[1:]
    codes = _PORTMANTEAU_CANDIDATES.get(folded)
    if codes is None:
        return None
    tags = frozenset(parse_tag(c) for c in codes)
    return SplitDecision(
        parts=((token.surface, tags),),
        confidence=CONFIDENCE_CERTAIN,
        source=token.surface,
    )


def _accent_variants(stem: str) -> list[str]:
    """The stem as written, then with one written accent removed."""
    variants = [stem]
    for i, ch in enumerate(stem):
        plain = _ACCENT_PLAIN.get(ch)
        if plain is not None:
            variants.append(stem[:i] + plain + stem[i + 1:])
    return variants


def _host_tags(stem: str, lexicon: Lexicon) -> tuple[str, frozenset[Tag]] | None:
    """Lexicon-attested verb readings that can host enclitics."""
    for variant in _accent_variants(stem):
        cls = lexicon.lookup(variant)
        if cls is None:
            continue
        hosts = frozenset(
            t for t in cls.tags
            if decompose(t).category == "verb"
            and decompose(t).mood in _ENCLITIC_HOST_MOODS
        )
        if hosts:
            return variant, hosts
    return None


def split_enclitics(token: Token, lexicon: Lexicon) -> SplitDecision | None:
    """Split a verb+enclitic orthographic word into textwords.

    Strips a maximal sequence (at most two) of clitic surfaces from the
    right and accepts the split only when the remaining stem, after
    undoing the written accent that attachment may have added, is
    attested in the lexicon as an imperative, infinitive or gerund verb
    form.  Returns None otherwise; the caller keeps the token whole.
    """
    if token.kind != KIND_WORD:
        return None
    surface = token.surface
    lowered = surface.lower()

    def attempt(clitics: tuple[str, ...]) -> SplitDecision | None:
        suffix_len = sum(len(c) for c in clitics)
        if len(surface) <= suffix_len:
            return None
        stem = surface[: len(surface) - suffix_len]
        hosted = _host_tags(stem, lexicon)
        if hosted is None:
            return None
        stem_form, host_tags = hosted
        parts = [(stem_form, host_tags)]
        parts.extend(
            (clitic, frozenset({parse_tag(CLITIC_TAGS[clitic])}))
            for clitic in clitics
        )
        return SplitDecision(
            parts=tuple(parts),
            confidence=CONFIDENCE_HEURISTIC,
            source=surface,
        )

    # Only groups that the lowered surface ends with are attempted, in the
    # fixed order: every (first, last) pair, then every single clitic.
    endings = [last for last in _CLITICS_ORDERED if lowered.endswith(last)]
    for last in endings:
        rest = lowered[: len(lowered) - len(last)]
        for first in _CLITICS_ORDERED:
            if rest.endswith(first):
                decision = attempt((first, last))
                if decision is not None:
                    return decision
    for last in endings:
        decision = attempt((last,))
        if decision is not None:
            return decision
    return None


def expand_token(token: Token, decision: SplitDecision, kind: str) -> list[Token]:
    """Materialize a split decision as tokens sharing the parent span."""
    return [
        replace(
            token,
            surface=surface,
            kind=kind,
            origin=(decision.source, index),
            candidates=tags,
        )
        for index, (surface, tags) in enumerate(decision.parts)
    ]
