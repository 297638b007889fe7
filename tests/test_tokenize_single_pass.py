"""The one-pass `tokenize` against the three-pass version it replaced.

`reference_tokenize` is the earlier implementation kept verbatim, with the
token pattern of that time as its own: regex matches into one list,
abbreviation merging into a second, and byte spans in a third loop.  The
single-pass version, and its pattern that matches each letter or digit run
once, must give the same tokens on every input, and must not need much
more memory than the list it returns.
"""

import random
import re
import tracemalloc

from spantag.tokenizer import (
    KIND_ABBREVIATION,
    KIND_CODE,
    KIND_NUMBER,
    KIND_PUNCTUATION,
    KIND_WORD,
    Token,
    _is_punct_char,
    default_abbreviations,
    tokenize,
)

# The token pattern of the earlier implementation, kept here so that the
# reference does not follow the module's: it tries a code before a word or
# a number, so it scans each letter or digit run twice.
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ellipsis>\.\.\.)"
    r"|(?P<code>(?:[^\W\d_]+\d|\d+[^\W\d_])\w*)"
    r"|(?P<number>\d+(?:[.,]\d+)*(?:-\d+(?:[.,]\d+)*)?)"
    r"|(?P<word>[^\W\d_]+(?:-[^\W\d_]+)*)"
    r"|(?P<other>\S)"
)


def reference_tokenize(text, abbreviations=None):
    if abbreviations is None:
        abbreviations = default_abbreviations()

    raw = []  # surface, char start/end, kind
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        surface = m.group()
        if kind == "ellipsis":
            tok_kind = KIND_PUNCTUATION
        elif kind == "code":
            tok_kind = KIND_CODE
        elif kind == "number":
            tok_kind = KIND_NUMBER
        elif kind == "word":
            tok_kind = KIND_WORD
        else:
            tok_kind = KIND_PUNCTUATION if _is_punct_char(surface) else KIND_WORD
        raw.append((surface, m.start(), m.end(), tok_kind))

    merged = []
    i = 0
    while i < len(raw):
        surface, start, end, kind = raw[i]
        if (
            kind == KIND_WORD
            and i + 1 < len(raw)
            and raw[i + 1][0] == "."
            and raw[i + 1][1] == end
            and surface + "." in abbreviations
        ):
            merged.append((surface + ".", start, raw[i + 1][2], KIND_ABBREVIATION))
            i += 2
        else:
            merged.append((surface, start, end, kind))
            i += 1

    tokens = []
    char_pos = 0
    byte_pos = 0
    for surface, start, end, kind in merged:
        byte_pos += len(text[char_pos:start].encode("utf-8"))
        byte_start = byte_pos
        byte_pos += len(text[start:end].encode("utf-8"))
        char_pos = end
        tokens.append(Token(surface=surface, span=(byte_start, byte_pos), kind=kind))
    return tokens


# Pieces drawn for the generated texts: every registry abbreviation with and
# without its period, user abbreviations, period runs, non-ASCII letters and
# marks (a combining accent, `²`, `ª`), letter-numerals (`Ⅻ`), non-ASCII
# decimal digits (`٣`) where a letter run meets a digit run, numbers, ranges
# and codes, joined by nothing or by whitespace that includes NBSP and a
# thin space.
_PIECES = (
    sorted(default_abbreviations())
    + [a[:-1] for a in sorted(default_abbreviations())]
    + ["Sr", "Sr.", "kg", "kg.", "Ud", "Ud.", "etc", "A4", "ª", "1ª", "²", "m²",
       "\u00e9", "e\u0301", "\u0301", "caf\u00e9", ".", ".", ".", "..", "...", "....", "…",
       "40-50", "1.000", "3,5", "12-3,5", "1.000.000-2", "4x4", "B52b", "abc123", "x2y",
       "\u0663", "a\u0663", "\u0663a", "\u216b", "x_1", "1_x",
       "dímelo", "García", "señor", "hola", "al", "del", "niño-prodigio", "-",
       "ελ", "汉字", "🙂", "¿", "¡", "?", "!", ",", ";", ":", "«", "»", "—", "'",
       '"', "_", "€", "%", "(", ")", "İ"]
)
_SEPARATORS = ["", "", "", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2009"]

_USER_ABBREVIATIONS = frozenset({
    "Sr.", "kg.", "Ud.", "etc.", "ª.", "\u0301.", "e\u0301.", "A4.", "40-50.", "dímelo.",
})


def _text(rng, max_pieces):
    parts = []
    for _ in range(rng.randrange(max_pieces + 1)):
        parts.append(rng.choice(_SEPARATORS))
        parts.append(rng.choice(_PIECES))
    parts.append(rng.choice(_SEPARATORS))
    return "".join(parts)


def test_single_pass_matches_three_pass_reference():
    rng = random.Random(20261018)
    for _ in range(30000):
        text = _text(rng, 8)
        for abbreviations in (None, _USER_ABBREVIATIONS, frozenset()):
            assert tokenize(text, abbreviations) == reference_tokenize(text, abbreviations), (
                text, abbreviations)


def test_tokenize_peak_memory_is_close_to_its_result():
    rng = random.Random(11)
    chunks = []
    size = 0
    while size < 150_000:
        chunks.append(_text(rng, 40) + ". ")
        size += len(chunks[-1].encode("utf-8"))
    text = "".join(chunks)
    abbreviations = default_abbreviations()
    tokenize("Sr. García llega.", abbreviations)  # warm the regex and caches

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tokens = tokenize(text, abbreviations)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokens) > 20_000
    assert peak - base <= 1.25 * (held - base), (peak - base, held - base)
