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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

# `Token` and the kinds are shared with the corpus reader; `tokenizer.X`
# is `_core.X` for each of these names
from ._core import (
    KIND_ABBREVIATION, KIND_CODE, KIND_ENCLITIC_PART, KIND_NUMBER, KIND_PORTMANTEAU_PART,
    KIND_PUNCTUATION, KIND_WORD, Tag, Token, _is_punct_char, parse_tag, table_columns,
)
from .errors import TaggingError, content_lines, parse_file

if TYPE_CHECKING:
    from .lexicon import Lexicon

SENTENCE_TERMINATORS = frozenset({".", "?", "!", "...", "…"})


@dataclass(frozen=True)
class SplitDecision:
    """Outcome of splitting (or keeping whole) one orthographic word:
    each part's surface and tags, and the kind its tokens take
    (`KIND_PORTMANTEAU_PART` or `KIND_ENCLITIC_PART`, after the splitter
    that decided)."""

    parts: tuple[tuple[str, frozenset[Tag]], ...]
    kind: str


# The alternatives share their leading run, so each letter or digit run is
# matched once and what follows it decides the kind: one attempt per token.
# A code is a letter run followed by a digit, or a digit run followed by a
# letter, with any `\w` after that; otherwise a letter run is a word with
# its hyphen parts, and a digit run a number with its decimal and range
# tail.  `m.lastgroup` names the kind, since `wcode` and `ncode` close
# after `word` and `number`.
_TOKEN_RE = re.compile(
    r"(?P<word>[^\W\d_]+)(?:(?P<wcode>\d\w*)|(?:-[^\W\d_]+)*)"
    r"|(?P<number>\d+)(?:(?P<ncode>[^\W\d_]\w*)|(?:[.,]\d+)*(?:-\d+(?:[.,]\d+)*)?)"
    r"|(?P<ellipsis>\.\.\.)"
    r"|\S"
)


@lru_cache(maxsize=1)
def default_abbreviations() -> frozenset[str]:
    """Abbreviations from the registry's title and unit example forms."""
    columns = table_columns()
    return frozenset(
        form
        for category, examples in zip(columns.category, columns.examples)
        if category in ("title-noun", "unit-of-measure")
        for form in examples if form.endswith(".")
    )


def _is_one_word(text: str) -> bool:
    tokens = tokenize(text, frozenset())
    return len(tokens) == 1 and tokens[0].kind == KIND_WORD and tokens[0].surface == text


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """User abbreviation file (one surface per line, ``#`` comments),
    unioned with the built-in list.  Tokenizing merges only one word and
    a final ``.``, so any other entry raises a TaggingError."""
    return parse_file(path, _parse_abbreviations)


def _parse_abbreviations(text: str) -> frozenset[str]:
    forms = set(default_abbreviations())
    for line_no, raw in content_lines(text):
        line = " ".join(raw.split())
        if not (line.endswith(".") and _is_one_word(line[:-1])):
            raise TaggingError(f"abbreviation {line!r} is not one word followed by '.'", line_no)
        forms.add(line)
    return frozenset(forms)


def load_multiwords(path: str | Path) -> tuple[str, ...]:
    """Multiword file: one space-separated multiword expression per line.
    Only two or more word tokens merge, so any other entry raises a
    TaggingError."""
    return parse_file(path, _parse_multiwords)


def _parse_multiwords(text: str) -> tuple[str, ...]:
    out = []
    for line_no, raw in content_lines(text):
        words = raw.split()
        line = " ".join(words)
        bad = [w for w in words if not _is_one_word(w)]
        if bad or len(words) < 2:
            problem = f"{bad[0]!r} is not one word" if bad else "needs two or more words"
            raise TaggingError(f"multiword {line!r}: {problem}", line_no)
        out.append(line)
    return tuple(out)


# Kind of the token whose last `_TOKEN_RE` group is the key.  A match with
# no group, one other non-blank character, is punctuation or a word.
_GROUP_KINDS = {"word": KIND_WORD, "wcode": KIND_CODE, "number": KIND_NUMBER,
                "ncode": KIND_CODE, "ellipsis": KIND_PUNCTUATION}


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
    return [token for token, _spaced in _scan(text, abbreviations)]


def _scan(text: str, abbreviations: frozenset[str] | None) -> Iterator[tuple[Token, bool]]:
    """`tokenize`, one token at a time, each paired with whether exactly
    one space separates it from the token before.  The last token is held
    back until the next match, so that a touching period can still fold
    into it."""
    if abbreviations is None:
        abbreviations = default_abbreviations()
    held = None
    char_pos = byte_pos = 0
    for m in _TOKEN_RE.finditer(text):
        surface = m.group()
        gap = text[char_pos:m.start()]
        # an ASCII string's UTF-8 length is its length
        start = byte_pos + (len(gap) if gap.isascii() else len(gap.encode("utf-8")))
        byte_pos = start + (len(surface) if surface.isascii() else len(surface.encode("utf-8")))
        char_pos = m.end()
        if surface == "." and held is not None:
            prev, spaced = held
            if (prev.kind == KIND_WORD and prev.span[1] == start
                    and prev.surface + "." in abbreviations):
                held = Token(prev.surface + ".", (prev.span[0], byte_pos), KIND_ABBREVIATION), spaced
                continue
        kind = _GROUP_KINDS.get(m.lastgroup)
        if kind is None:
            kind = KIND_PUNCTUATION if _is_punct_char(surface) else KIND_WORD
        if held is not None:
            yield held
        held = Token(surface, (start, byte_pos), kind), gap == " "
    if held is not None:
        yield held


def merge_multiwords(tokens: list[Token], text: str, multiwords: tuple[str, ...]) -> list[Token]:
    """Merge adjacent word tokens that form a listed multiword expression.

    Tokens must be separated by exactly one space in the source; the
    merged token keeps the covering span, so reconstruction still holds.
    """
    if not multiwords:
        return list(tokens)
    data = text.encode("utf-8")
    spaced = [False] + [data[a.span[1]:b.span[0]] == b" " for a, b in zip(tokens, tokens[1:])]
    return list(_merge(zip(tokens, spaced), multiwords))


def _merge(pairs: Iterable[tuple[Token, bool]], multiwords: tuple[str, ...]) -> Iterator[Token]:
    """`merge_multiwords` over (token, follows exactly one space) pairs,
    one token at a time.  It looks ahead as many tokens as the longest
    multiword has words, and tries a token's multiwords longest first."""
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for mw in multiwords:
        words = tuple(mw.split(" "))
        by_first.setdefault(words[0], []).append(words)
    for seqs in by_first.values():
        seqs.sort(key=len, reverse=True)
    longest = max(len(seqs[0]) for seqs in by_first.values())

    def take(window: list[tuple[Token, bool]]) -> Token:
        """Remove the first token of `window`, with the words of the
        multiword it starts, if any, and return it merged."""
        tok = window[0][0]
        if tok.kind == KIND_WORD:
            for words in by_first.get(tok.surface, ()):
                n = len(words)
                if (len(window) >= n
                        and all(t.kind == KIND_WORD and spaced for t, spaced in window[1:n])
                        and tuple(t.surface for t, _spaced in window[:n]) == words):
                    end = window[n - 1][0].span[1]
                    del window[:n]
                    # each gap is one space, so this is the text the span covers
                    return Token(" ".join(words), (tok.span[0], end), KIND_WORD)
        del window[0]
        return tok

    window: list[tuple[Token, bool]] = []
    for pair in pairs:
        if not window and pair[0].surface not in by_first:
            yield pair[0]  # starts no multiword
            continue
        window.append(pair)
        if len(window) == longest:
            yield take(window)
    while window:
        yield take(window)


def sentence_split(tokens: list[Token]) -> list[list[Token]]:
    """Split a token stream after sentence-terminating punctuation.

    Abbreviation tokens never end a sentence; trailing material forms a
    final sentence.
    """
    return list(iter_sentence_split(tokens))


def iter_sentence_split(tokens: Iterable[Token]) -> Iterator[list[Token]]:
    """`sentence_split`, one sentence at a time."""
    current: list[Token] = []
    for tok in tokens:
        current.append(tok)
        if tok.kind == KIND_PUNCTUATION and tok.surface in SENTENCE_TERMINATORS:
            yield current
            current = []
    if current:
        yield current


def iter_sentences(
    text: str,
    abbreviations: frozenset[str] | None = None,
    multiwords: tuple[str, ...] = (),
) -> Iterator[list[Token]]:
    """``sentence_split(merge_multiwords(tokenize(text, abbreviations),
    text, multiwords))``, one sentence at a time: what it holds is the
    sentence and a few tokens past it, never the whole token list."""
    pairs = _scan(text, abbreviations)
    tokens = _merge(pairs, multiwords) if multiwords else (token for token, _spaced in pairs)
    return iter_sentence_split(tokens)


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


@lru_cache(maxsize=1)
def _enclitic_host_codes() -> frozenset[str]:
    """Codes of the verb tags whose mood can host enclitics."""
    columns = table_columns()
    return frozenset(
        code for code, category, mood in zip(columns.codes, columns.category, columns.mood)
        if category == "verb" and mood in _ENCLITIC_HOST_MOODS
    )

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
    return SplitDecision(parts=((token.surface, tags),), kind=KIND_PORTMANTEAU_PART)


def _accent_variants(stem: str) -> list[str]:
    """The stem as written, then with one written accent removed."""
    variants = [stem]
    for i, ch in enumerate(stem):
        plain = _ACCENT_PLAIN.get(ch)
        if plain is not None:
            variants.append(stem[:i] + plain + stem[i + 1:])
    return variants


def _host_tags(stem: str, lexicon: Lexicon) -> tuple[str, frozenset[Tag]] | None:
    """Lexicon-attested verb readings that can host enclitics.  A stem
    longer than any wordform is never looked up, so a long word costs no
    accent variants."""
    if len(stem) > lexicon.longest:
        return None
    host_codes = _enclitic_host_codes()
    for variant in _accent_variants(stem):
        cls = lexicon.lookup(variant)
        if cls is None:
            continue
        hosts = frozenset(t for t in cls.tags if t.code in host_codes)
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
    if not lowered.endswith(_CLITICS_ORDERED):
        return None

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
        return SplitDecision(parts=tuple(parts), kind=KIND_ENCLITIC_PART)

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


def expand_token(token: Token, decision: SplitDecision) -> list[Token]:
    """Materialize a split decision as tokens of the decision's kind that
    share the parent span and have origin (parent surface, part index)."""
    return [
        Token(surface, token.span, decision.kind, (token.surface, index), tags)
        for index, (surface, tags) in enumerate(decision.parts)
    ]
