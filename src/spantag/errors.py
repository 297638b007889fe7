"""Exception types shared across the toolkit, and the one file reader
that turns undecodable input into them.

Errors that originate from a line-oriented input (lexicon files, rules
files, vertical corpora) carry the 1-based line number that triggered
them so callers can report addressable diagnostics.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class TaggingError(Exception):
    """Base class for all toolkit errors."""


class RegistryError(TaggingError):
    """The embedded tag table is corrupt or inconsistent."""


class UnknownTag(TaggingError):
    """A tag code is not part of the closed registry."""

    def __init__(self, code: str, line: int | None = None):
        self.code = code
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}unknown tag {code!r}")


class NoSuchTag(TaggingError):
    """No registry tag carries the requested feature bundle."""


class LexiconParseError(TaggingError):
    """A lexicon file line does not match the expected format."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyInput(TaggingError):
    """An operation that needs a non-empty wordform got an empty one."""


class RuleSyntaxError(TaggingError):
    """A bias rules line is not a FORBID/REQUIRE directive."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class BadPattern(TaggingError):
    """A tag pattern is malformed (e.g. a non-final ``*``)."""

    def __init__(self, pattern: str, message: str, line: int | None = None):
        self.pattern = pattern
        self.message = message
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}bad pattern {pattern!r}: {message}")


class EmptyCorpus(TaggingError):
    """Training was requested on an empty corpus."""


class NoValidPath(TaggingError):
    """The bias rules eliminated every candidate tag path for a sentence."""

    def __init__(self, position: int, sentence_index: int | None = None):
        self.position = position
        self.sentence_index = sentence_index
        where = "" if sentence_index is None else f"sentence {sentence_index}, "
        super().__init__(
            f"{where}token {position}: constraints eliminated every tag path"
        )


class ModelFormatError(TaggingError):
    """A model file is malformed or fails normalization checks."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class SmoothingError(TaggingError, ValueError):
    """A smoothing constant is not a finite number above 0; also a ValueError."""


class VerticalFormatError(TaggingError):
    """A vertical corpus line does not match ``token<TAB>TAG``."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AlignmentError(TaggingError):
    """Gold and predicted token streams differ."""

    def __init__(self, position: int, message: str = ""):
        self.position = position
        detail = f": {message}" if message else ""
        super().__init__(f"token streams diverge at position {position}{detail}")


@contextmanager
def utf8_decoding(name: str):
    """Turn a UTF-8 decode failure inside the block into a TaggingError
    that names the input and the 1-based line of the first bad byte."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise TaggingError(f"{name} is not valid UTF-8 at line {line}: {exc}") from None


def read_utf8(path: str | Path) -> str:
    """A file's text, decoded as strict UTF-8.  Every input file goes
    through here, so bytes that are not UTF-8 raise a TaggingError naming
    the file."""
    with utf8_decoding(str(path)):
        return Path(path).read_text(encoding="utf-8")


def parse_file(path: str | Path, parse: Callable[[str], T]) -> T:
    """`parse` applied to a file's text, read through `read_utf8`.  A
    TaggingError that `parse` raises gets ``<path>: `` in front of its
    message and keeps its type and attributes (such as ``.line``)."""
    text = read_utf8(path)
    try:
        return parse(text)
    except TaggingError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
