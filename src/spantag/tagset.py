"""Canonical registry of Spanish morphosyntactic tags.

The registry is a closed inventory: every tag code, its feature bundle,
an English description and example wordforms, loaded from an embedded
table (`_tagset_data`).  Tag names are mnemonic but irregular, so the
table is the sole source of truth; nothing here derives features from
the shape of a code.

The table is read at two depths.  `table_columns()` (in `_core`, with
`Tag`, `parse_tag` and the column layout, and re-exported here) reads
the codes, in registry order, and the few columns that tagging needs
(category, mood, examples); it checks the header, each row's width, the
entry count and that no code repeats.  `load_registry()`, in this
module, builds a `FeatureBundle` for every row on top of that read,
checking each value's spelling and that no two tags share a bundle; only
the feature API (`decompose`, `compose`, `format_features`, `list_by`,
`export_tsv` and the `tagset` command) needs it, so only it compiles
this module.

All values are immutable once read and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable, Iterator

# the tag table's reader; `tagset.X` is `_core.X` for each of these names
from ._core import (
    _COLUMNS, _FEATURE_COLUMNS, _TAGS, _UNMARKED_MOOD, REGISTRY_SIZE, Tag, TableColumns,
    _table_rows, parse_tag, table_columns,
)
from .errors import NoSuchTag, RegistryError, UnknownTag

CATEGORIES = frozenset({
    "punctuation", "adjective", "adverb", "alphabet-letter", "article",
    "cardinal", "conjunction", "code", "demonstrative", "formula",
    "interjection", "interrogative", "negation", "noun", "ordinal",
    "portmanteau", "foreign-word", "unclassified", "pronoun", "preposition",
    "quantifier", "relative", "se-particle", "title-noun",
    "unit-of-measure", "verb",
})
GENDERS = frozenset({"masculine", "feminine", "neuter", "underspecified"})
NUMBERS = frozenset({"singular", "plural", "underspecified"})
PERSONS = frozenset({"first", "second", "third", "underspecified"})
DEGREES = frozenset({"positive", "comparative", "superlative", "underspecified"})
VERB_CLASSES = frozenset({"estar", "haber", "ser", "lexical", "modal", "none"})
TENSES = frozenset({"present", "imperfect", "future", "conditional", "preterite", "none"})
MOODS = frozenset({
    "indicative", "subjunctive", "imperative", "gerund", "infinitive",
    "past-participle", "present-participle", "none",
})
DEIXES = frozenset({"proximal", "distal", "remote", "underspecified", "none"})
DIRECTIONALITIES = frozenset({"static", "dynamic", "underspecified", "none"})
POLARITIES = frozenset({"negative", "neutral"})
PRONOMINAL_FUNCTIONS = frozenset({
    "pronominal", "capable-of-pronominal", "non-pronominal", "underspecified",
})
ANIMACIES = frozenset({"animate", "inanimate", "underspecified"})
CASE_ROLES = frozenset({
    "nominative", "oblique", "nominative-or-oblique", "direct-object",
    "direct-or-indirect-object", "none",
})
POLITENESS_VALUES = frozenset({"polite", "neutral"})
POSSESSIVE_POSITIONS = frozenset({"prenominal", "full-form", "none"})


@dataclass(frozen=True)
class FeatureBundle:
    """Attribute-value decomposition of one tag.

    Every attribute always holds a concrete enum value; the per-attribute
    defaults below mean "not marked" and are what `format_features` omits.
    `subcategory` is free-form per category (None where inapplicable).
    """

    category: str
    subcategory: str | None = None
    gender: str = "underspecified"
    number: str = "underspecified"
    person: str = "underspecified"
    degree: str = "underspecified"
    verb_class: str = "none"
    tense: str = "none"
    mood: str = _UNMARKED_MOOD
    deixis: str = "none"
    directionality: str = "none"
    polarity: str = "neutral"
    pronominal_function: str = "underspecified"
    animacy: str = "underspecified"
    case_role: str = "none"
    politeness: str = "neutral"
    existential: bool = False
    possessive_position: str = "none"


@dataclass(frozen=True)
class RegistryEntry:
    tag: Tag
    features: FeatureBundle
    description: str
    examples: tuple[str, ...]
    notes: str = ""


# (bundle field, table column, external attribute name, allowed values) of
# each feature column, in the table's order (`_core._FEATURE_COLUMNS`);
# None allows any text (subcategory is free-form per category).
_FEATURE_SPEC = tuple(
    (field_name, column, ext, allowed)
    for column, (field_name, ext, allowed) in zip(_FEATURE_COLUMNS, (
        ("category", "category", CATEGORIES),
        ("subcategory", "subcategory", None),
        ("gender", "gender", GENDERS),
        ("number", "number", NUMBERS),
        ("person", "person", PERSONS),
        ("degree", "degree", DEGREES),
        ("verb_class", "verb-class", VERB_CLASSES),
        ("tense", "tense", TENSES),
        ("mood", "mood", MOODS),
        ("deixis", "deixis", DEIXES),
        ("directionality", "directionality", DIRECTIONALITIES),
        ("polarity", "polarity", POLARITIES),
        ("pronominal_function", "pronominal-function", PRONOMINAL_FUNCTIONS),
        ("animacy", "animacy", ANIMACIES),
        ("case_role", "case-role", CASE_ROLES),
        ("politeness", "politeness", POLITENESS_VALUES),
        ("existential", "existential", frozenset({False, True})),
        ("possessive_position", "possessive-position", POSSESSIVE_POSITIONS),
    ), strict=True)
)

_EXTERNAL_TO_FIELD = {ext: f for f, _c, ext, _v in _FEATURE_SPEC}
_DEFAULTS = {f.name: f.default for f in fields(FeatureBundle)}


def _spell(value: str | bool) -> str:
    """Text of a feature value: booleans are ``true``/``false``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


# attribute -> {spelling: value} for every attribute with a closed value set
_SPELLINGS = {
    ext: {_spell(v): v for v in allowed}
    for _f, _c, ext, allowed in _FEATURE_SPEC if allowed is not None
}


def _read_value(attribute: str, text: str) -> str | bool:
    """The value spelled `text`; ValueError unless the attribute allows it."""
    spellings = _SPELLINGS.get(attribute)
    if spellings is None:
        return text
    try:
        return spellings[text]
    except KeyError:
        raise ValueError(f"bad {attribute} value {text!r}") from None


def parse_feature(clause: str) -> tuple[str, str | bool]:
    """Split an ``attr=value`` clause into a FeatureBundle field name and
    its value.  ValueError for a missing ``=``, an unknown attribute or a
    value outside the attribute's set."""
    name, sep, text = clause.partition("=")
    if not sep:
        raise ValueError(f"missing '=' in feature clause {clause!r}")
    field_name = _EXTERNAL_TO_FIELD.get(name)
    if field_name is None:
        raise ValueError(f"unknown feature attribute {name!r}")
    return field_name, _read_value(name, text)


def _cell(bundle: FeatureBundle, field_name: str) -> str:
    """Text of one bundle field, ``-`` when it holds its default value."""
    value = getattr(bundle, field_name)
    return "-" if value == _DEFAULTS[field_name] else _spell(value)


def _parse_row(line_no: int, cells: list[str], examples: tuple[str, ...]) -> RegistryEntry:
    row = dict(zip(_COLUMNS, cells))
    try:
        kwargs = {
            field_name: _read_value(ext, row[column])
            for field_name, column, ext, _v in _FEATURE_SPEC if row[column] != "-"
        }
    except ValueError as exc:
        raise RegistryError(f"table row {line_no}: {exc}") from None
    notes = "" if row["NOTES"] == "-" else row["NOTES"]
    return RegistryEntry(
        tag=parse_tag(row["TAG"]),
        features=FeatureBundle(**kwargs),
        description=row["DESCRIPTION"],
        examples=examples,
        notes=notes,
    )


class Registry:
    """Immutable, ordered collection of all registry entries."""

    def __init__(self, entries: tuple[RegistryEntry, ...]):
        self.entries = entries
        self._by_code = {e.tag.code: e for e in entries}
        self._by_bundle = {e.features: e for e in entries}
        if len(self._by_code) != len(entries):
            raise RegistryError("duplicate tag codes in embedded table")
        if len(self._by_bundle) != len(entries):
            raise RegistryError("two tags share a feature bundle")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[RegistryEntry]:
        return iter(self.entries)

    def __contains__(self, code: str) -> bool:
        return code in self._by_code

    def entry(self, tag: Tag | str) -> RegistryEntry:
        code = tag.code if isinstance(tag, Tag) else tag
        try:
            return self._by_code[code]
        except KeyError:
            raise UnknownTag(code) from None

    def index(self, tag: Tag | str) -> int:
        """Position of the tag in registry order, which is table order
        (used for tie-breaking)."""
        code = tag.code if isinstance(tag, Tag) else tag
        if code not in self._by_code:
            raise UnknownTag(code)
        return table_columns().index[code]

    def codes(self) -> tuple[str, ...]:
        return tuple(self._by_code)


@lru_cache(maxsize=1)
def load_registry() -> Registry:
    """Build every entry's feature bundle on top of `table_columns`.
    Idempotent; cached after first call."""
    columns = table_columns()  # header, row widths, entry count and unique codes
    return Registry(tuple(
        _parse_row(line_no, cells, examples)
        for (line_no, cells), examples in zip(_table_rows(), columns.examples)
    ))


def decompose(tag: Tag) -> FeatureBundle:
    """Feature bundle recorded for a registry tag."""
    return load_registry().entry(tag).features


def compose(bundle: FeatureBundle) -> Tag:
    """Inverse of decompose: the unique tag carrying `bundle`."""
    entry = load_registry()._by_bundle.get(bundle)
    if entry is None:
        raise NoSuchTag(f"no registry tag has bundle {bundle!r}")
    return entry.tag


def format_features(tag: Tag) -> str:
    """Canonical ``attr=value|...`` text for a tag's bundle.

    Category comes first, the remaining attributes follow alphabetically
    by their external (hyphenated) names; attributes left at their
    default value are omitted.
    """
    bundle = decompose(tag)
    rest = sorted(
        (ext, _cell(bundle, field_name))
        for field_name, _c, ext, _v in _FEATURE_SPEC if field_name != "category"
    )
    return "|".join(
        f"{ext}={text}" for ext, text in [("category", bundle.category), *rest] if text != "-"
    )


def parse_features(text: str) -> FeatureBundle:
    """Parse `format_features` output back into a bundle.  ValueError for
    a clause `parse_feature` rejects, a repeated attribute or a missing
    category."""
    kwargs = {}
    for clause in text.split("|"):
        field_name, value = parse_feature(clause)
        if field_name in kwargs:
            raise ValueError(f"repeated feature attribute {clause.partition('=')[0]!r}")
        kwargs[field_name] = value
    if "category" not in kwargs:
        raise ValueError("feature text lacks a category attribute")
    return FeatureBundle(**kwargs)


def list_by(predicate: Callable[[FeatureBundle], bool]) -> list[Tag]:
    """All tags whose bundle satisfies `predicate`, in registry order."""
    return [e.tag for e in load_registry() if predicate(e.features)]


def export_tsv(entries: Iterable[RegistryEntry] | None = None) -> str:
    """Dump of `entries` (default: the whole registry, in order) in the
    fixed TSV interchange layout.

    One row per tag; ``-`` for attributes at their default value; UTF-8
    text with LF line endings and a header row.  The possessive-position
    attribute is internal to the bundle and not part of this layout.
    """
    layout = [(f, c) for f, c, _e, _v in _FEATURE_SPEC if c != "POSSPOS"]
    out = ["\t".join(["TAG", *(c for _f, c in layout), "DESCRIPTION", "EXAMPLES"])]
    for e in load_registry() if entries is None else entries:
        cells = [e.tag.code, *(_cell(e.features, f) for f, _c in layout), e.description]
        cells.append(",".join(e.examples) if e.examples else "-")
        out.append("\t".join(cells))
    return "\n".join(out) + "\n"
