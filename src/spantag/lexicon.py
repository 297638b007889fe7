"""Wordform lexicon: ambiguity classes and unknown-word guessing.

A lexicon maps case-preserved wordforms to the set of registry tags they
may bear.  A built-in seed covering the closed-class example forms from
the tag registry (articles, pronouns, demonstratives, quantifiers,
conjunctions, relatives, interrogatives, adverbs, portmanteaux, the se
particle, titles and units) is merged beneath user entries; merging is
always a union, so loading more data never removes a reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ._core import Tag, parse_tag, table_columns
from .errors import EmptyInput, LexiconParseError, UnknownTag, content_lines, parse_file

# Registry categories whose example forms seed the built-in lexicon.
SEED_CATEGORIES = frozenset({
    "article", "pronoun", "demonstrative", "quantifier", "conjunction",
    "relative", "interrogative", "adverb", "portmanteau", "se-particle",
    "title-noun", "unit-of-measure",
})

# Closed categories that the unknown-word guesser must never emit.
CLOSED_CATEGORIES = frozenset({
    "article", "pronoun", "conjunction", "preposition", "demonstrative",
    "relative", "interrogative", "quantifier", "se-particle", "portmanteau",
})


@dataclass(frozen=True)
class AmbiguityClass:
    """Non-empty set of admissible tags for a wordform."""

    tags: frozenset[Tag]
    # the members in registry order, fixed when the class is built
    _ordered: tuple[Tag, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.tags:
            raise ValueError("ambiguity class must not be empty")
        index = table_columns().index
        object.__setattr__(self, "_ordered", tuple(sorted(self.tags, key=lambda t: index[t.code])))

    @classmethod
    def of(cls, *codes: str) -> "AmbiguityClass":
        return cls(frozenset(map(parse_tag, codes)))

    def sorted_tags(self) -> tuple[Tag, ...]:
        """Members in registry order (the canonical ordering)."""
        return self._ordered

    def codes(self) -> tuple[str, ...]:
        return tuple(t.code for t in self.sorted_tags())

    def signature(self) -> str:
        return ",".join(self.codes())

    def __iter__(self):
        return iter(self.sorted_tags())

    def __len__(self) -> int:
        return len(self.tags)

    def __contains__(self, tag: Tag) -> bool:
        return tag in self.tags


class Lexicon:
    """Immutable wordform -> AmbiguityClass mapping.

    Lookup is case sensitive with a one-step lowercase fallback, which
    covers sentence-initial capitalization.
    """

    def __init__(self, entries: dict[str, AmbiguityClass]):
        self._entries = dict(entries)
        # `lookup` finds no string longer than this: `str.lower` never shortens one
        self.longest = max(map(len, self._entries), default=0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, wordform: str) -> bool:
        return self.lookup(wordform) is not None

    def lookup(self, wordform: str) -> AmbiguityClass | None:
        cls = self._entries.get(wordform)
        if cls is not None:
            return cls
        return self._entries.get(wordform.lower())

    def items(self):
        return self._entries.items()


@lru_cache(maxsize=1)
def seed_lexicon() -> Lexicon:
    """Built-in closed-class lexicon from the registry example forms."""
    entries: dict[str, AmbiguityClass] = {}
    columns = table_columns()
    for code, category, examples in zip(columns.codes, columns.category, columns.examples):
        if category in SEED_CATEGORIES:
            for form in examples:
                _add(entries, form, frozenset({parse_tag(code)}))
    return Lexicon(entries)


def _add(entries: dict[str, AmbiguityClass], form: str, tags: frozenset[Tag]):
    existing = entries.get(form)
    entries[form] = AmbiguityClass(existing.tags | tags) if existing else AmbiguityClass(tags)


def parse_lexicon(text: str, include_seed: bool = True) -> Lexicon:
    """Parse lexicon text: one ``wordform<TAB>TAG1,TAG2,...`` entry per line.

    Lines starting with ``#`` and blank lines are ignored.  Duplicate
    wordforms are unioned; the built-in seed is merged beneath the parsed
    entries unless `include_seed` is false.
    """
    entries: dict[str, AmbiguityClass] = (
        dict(seed_lexicon().items()) if include_seed else {}
    )
    for line_no, line in content_lines(text):
        cells = line.split("\t")
        if len(cells) != 2:
            raise LexiconParseError("expected 'wordform<TAB>TAGS'", line_no)
        wordform, tag_field = cells
        if not wordform or not tag_field:
            raise LexiconParseError("empty wordform or tag list", line_no)
        tags = set()
        for code in tag_field.split(","):
            code = code.strip()
            if not code:
                raise LexiconParseError("empty tag code in list", line_no)
            try:
                tags.add(parse_tag(code))
            except UnknownTag:
                raise UnknownTag(code, line_no) from None
        _add(entries, wordform, frozenset(tags))
    return Lexicon(entries)


def load_lexicon(path: str | Path) -> Lexicon:
    """A lexicon file's entries with the built-in seed merged beneath them."""
    return parse_file(path, parse_lexicon)


# Ordered suffix rules for open-class guessing.  First match wins; a rule
# fires only on a proper suffix (non-empty stem).
SUFFIX_RULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("mente", ("ADVN",)),
    ("ísimos", ("ADJSMP",)),
    ("ísimas", ("ADJSFP",)),
    ("ísimo", ("ADJSMS",)),
    ("ísima", ("ADJSFS",)),
    ("ciones", ("NCFP",)),
    ("siones", ("NCFP",)),
    ("ción", ("NCFS",)),
    ("sión", ("NCFS",)),
    ("ar", ("VLINF",)),
    ("er", ("VLINF",)),
    ("ir", ("VLINF",)),
    ("ando", ("VLGER",)),
    ("iendo", ("VLGER",)),
    ("ados", ("VLPXMP",)),
    ("adas", ("VLPXFP",)),
    ("ado", ("VLPXMS",)),
    ("ada", ("VLPXFS",)),
    ("idos", ("VLPXMP",)),
    ("idas", ("VLPXFP",)),
    ("ido", ("VLPXMS",)),
    ("ida", ("VLPXFS",)),
    ("os", ("NCMP", "ADJGMP")),
    ("as", ("NCFP", "ADJGFP")),
    ("o", ("NCMS", "ADJGMS")),
    ("a", ("NCFS", "ADJGFS")),
    ("es", ("NCMP", "NCFP")),
)

FALLBACK_GUESS = ("NCMS", "NCFS", "ADJGMS", "ADJGFS")
PROPER_GUESS = ("NPAXX", "NPTOS")


# Keyed by a rule's (or the fallback's) codes, with or without the proper
# readings, so it holds at most this many classes.
@lru_cache(maxsize=2 * (len(SUFFIX_RULES) + 1))
def _guess_class(codes: tuple[str, ...]) -> AmbiguityClass:
    return AmbiguityClass.of(*codes)


def guess_unknown(wordform: str, sentence_initial: bool = False) -> AmbiguityClass:
    """Open-class candidates for a wordform absent from the lexicon.

    A deterministic suffix cascade; falls back to generic noun/adjective
    readings.  Capitalized forms that are not sentence initial also get
    the underspecified proper-noun readings.  Closed-class tags are never
    produced.
    """
    if not wordform:
        raise EmptyInput("cannot guess tags for an empty wordform")
    lowered = wordform.lower()
    codes: tuple[str, ...] = FALLBACK_GUESS
    for suffix, suffix_codes in SUFFIX_RULES:
        if len(lowered) > len(suffix) and lowered.endswith(suffix):
            codes = suffix_codes
            break
    if wordform[:1].isupper() and not sentence_initial:
        codes += PROPER_GUESS
    return _guess_class(codes)


def ambiguity_report(lexicon: Lexicon) -> list[tuple[str, int, tuple[str, ...]]]:
    """Group wordforms by identical tag set.

    Returns (class signature, member count, up to five example forms)
    rows sorted by descending member count, then signature.
    """
    groups: dict[str, list[str]] = {}
    for form, cls in lexicon.items():
        groups.setdefault(cls.signature(), []).append(form)
    report = [
        (signature, len(forms), tuple(sorted(forms)[:5]))
        for signature, forms in groups.items()
    ]
    report.sort(key=lambda row: (-row[1], row[0]))
    return report
