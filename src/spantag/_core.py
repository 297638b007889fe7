"""The tag table's codes and the token record, which every command reads.

`Tag`, `parse_tag` and `table_columns` read the codes and the few columns
that tagging needs from the embedded table (`_tagset_data`); `Token` and
the `KIND_*` constants describe one textword.  The feature registry built
on the same table lives in `tagset`, the tokenizer in `tokenizer`; both
re-export these names, which are the same objects there.
"""

from __future__ import annotations

import unicodedata
from collections.abc import Iterator
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
from typing import NamedTuple

from . import _tagset_data
from .errors import RegistryError, UnknownTag, split_lines

# Column layout of `_tagset_data.TABLE`: the code, one column per feature
# (`tagset` reads them in this order), then the free text.
_FEATURE_COLUMNS = (
    "CATEGORY", "SUBCATEGORY", "GENDER", "NUMBER", "PERSON", "DEGREE", "VERBCLASS", "TENSE",
    "MOOD", "DEIXIS", "DIRECTIONALITY", "POLARITY", "PRONFN", "ANIMACY", "CASE", "POLITENESS",
    "EXISTENTIAL", "POSSPOS",
)
_COLUMNS = ("TAG", *_FEATURE_COLUMNS, "DESCRIPTION", "EXAMPLES", "NOTES")

# The mood an unmarked (``-``) MOOD cell stands for; it is also the default
# of `tagset.FeatureBundle.mood`.
_UNMARKED_MOOD = "none"


@dataclass(frozen=True)
class Tag:
    """A validated tag code from the closed registry.

    Construction checks membership in `table_columns().index`, so holding
    a Tag guarantees registry validity and making one never builds the
    registry.  Comparison is exact and case sensitive.
    """

    code: str

    def __post_init__(self):
        if self.code not in table_columns().index:
            raise UnknownTag(self.code)

    def __str__(self) -> str:
        return self.code


def _table_rows() -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each row of the embedded table, after
    checking the header and the row's width."""
    lines = split_lines(_tagset_data.TABLE)
    if not lines or lines[0].split("\t") != list(_COLUMNS):
        raise RegistryError("embedded table header does not match the column layout")
    for line_no, line in enumerate(lines, start=1):
        if line_no > 1 and line:
            cells = line.split("\t")
            if len(cells) != len(_COLUMNS):
                raise RegistryError(f"table row {line_no}: expected {len(_COLUMNS)} columns")
            yield line_no, cells


class TableColumns(NamedTuple):
    """The table columns that tagging reads.  `category`, `mood` and
    `examples` run parallel to `codes`; an unmarked mood is ``none``.
    One instance is shared by every caller, so `index` is read only."""

    codes: tuple[str, ...]  # registry order
    index: dict[str, int]  # code -> position in `codes`
    category: tuple[str, ...]
    mood: tuple[str, ...]
    examples: tuple[tuple[str, ...], ...]


# Checked size of the closed inventory; the loader refuses a table that
# does not contain exactly this many entries.
REGISTRY_SIZE = 492

_CATEGORY, _MOOD, _EXAMPLES = (_COLUMNS.index(c) for c in ("CATEGORY", "MOOD", "EXAMPLES"))


@lru_cache(maxsize=1)
def table_columns() -> TableColumns:
    """Read the codes and the columns tagging needs, without building a
    feature bundle.  Checks the header, each row's width, the entry
    count and that no code repeats; `tagset.load_registry` checks the
    rest."""
    codes, category, mood, examples = [], [], [], []
    for _line_no, cells in _table_rows():
        codes.append(cells[0])
        category.append(cells[_CATEGORY])
        mood.append(_UNMARKED_MOOD if cells[_MOOD] == "-" else cells[_MOOD])
        examples.append(() if cells[_EXAMPLES] == "-" else tuple(cells[_EXAMPLES].split(",")))
    if len(codes) != REGISTRY_SIZE:
        raise RegistryError(f"embedded table has {len(codes)} entries, expected {REGISTRY_SIZE}")
    index = {code: i for i, code in enumerate(codes)}
    if len(index) != len(codes):
        raise RegistryError("duplicate tag codes in embedded table")
    return TableColumns(tuple(codes), index, tuple(category), tuple(mood), tuple(examples))


# code -> the one shared Tag; filled only after `Tag` has validated the
# code, so it never holds more than the registry's codes.
_TAGS: dict[str, Tag] = {}


def parse_tag(code: str) -> Tag:
    """Return the registry tag for `code`, the same object on every call;
    raise UnknownTag otherwise."""
    tag = _TAGS.get(code)
    if tag is None:
        # setdefault keeps one object per code when two threads race here
        tag = _TAGS.setdefault(code, Tag(code))
    return tag


KIND_WORD = "word"
KIND_PUNCTUATION = "punctuation"
KIND_NUMBER = "number"
KIND_CODE = "code"
KIND_ABBREVIATION = "abbreviation"
KIND_PORTMANTEAU_PART = "portmanteau-part"
KIND_ENCLITIC_PART = "enclitic-part"


@dataclass(frozen=True, slots=True)
class Token:
    """One textword.

    `span` is a (byte-start, byte-end) pair into the UTF-8 encoding of
    the source text.  Tokens produced by splitting one orthographic word
    share the parent's span and carry `origin` = (parent surface, part
    index).  `candidates` is an optional tag attachment set by the
    splitting pipeline.

    A token has slots and no `__dict__`, so `vars(token)` raises; read
    the fields, or `dataclasses.asdict`.
    """

    surface: str
    span: tuple[int, int]
    kind: str
    origin: tuple[str, int] | None = None
    candidates: frozenset[Tag] | None = None

    # The generated frozen `__init__` sets each field through
    # `object.__setattr__`; writing the slots through their descriptors
    # costs about half as much, and one is made per textword.
    def __init__(self, surface: str, span: tuple[int, int], kind: str,
                 origin: tuple[str, int] | None = None,
                 candidates: frozenset[Tag] | None = None):
        _set_surface(self, surface)
        _set_span(self, span)
        _set_kind(self, kind)
        _set_origin(self, origin)
        _set_candidates(self, candidates)


# `slots=True` makes a new class, so the slot descriptors are read from it
_set_surface, _set_span, _set_kind, _set_origin, _set_candidates = (
    Token.__dict__[name].__set__ for name in Token.__slots__
)


# The frozen `__setattr__` and `__delattr__` that `slots=True` carries over
# still name the class it replaced, so for a name that is no field they
# raise TypeError from `super()` (CPython 3.10-3.13).  These raise
# FrozenInstanceError for every name, as the class without slots did.
def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


Token.__setattr__, Token.__delattr__ = _refuse_assignment, _refuse_deletion


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")
