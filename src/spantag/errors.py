"""Exception types shared across the toolkit, and the one way to read a
line-oriented input file.

`parse_file` reads every input file as strict UTF-8 and puts the file
name in front of the errors its parser raises.  Parsers cut the text
with `split_lines`, where only ``\\n`` (or ``\\r\\n``) ends a line, and the
formats with comments skip what `content_lines` skips: blank lines and
lines led by ``#``.  An error about one line keeps its 1-based number as
``.line``, and `TaggingError` alone writes it into the message, so every
report reads ``<file>: line N: <message>``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")


class TaggingError(Exception):
    """Base class for all toolkit errors.  `line` is the 1-based input
    line at fault, if any; it is kept as ``.line`` and put in front of
    the message as ``line N: ``."""

    def __init__(self, message: str = "", line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class RegistryError(TaggingError):
    """The embedded tag table is corrupt or inconsistent."""


class UnknownTag(TaggingError):
    """A tag code is not part of the closed registry."""

    def __init__(self, code: str, line: int | None = None):
        self.code = code
        super().__init__(f"unknown tag {code!r}", line)


class NoSuchTag(TaggingError):
    """No registry tag carries the requested feature bundle."""


class LexiconParseError(TaggingError):
    """A lexicon file line does not match the expected format."""


class EmptyInput(TaggingError):
    """An operation that needs a non-empty wordform got an empty one."""


class RuleSyntaxError(TaggingError):
    """A bias rules line is not a FORBID/REQUIRE directive."""


class BadPattern(TaggingError):
    """A tag pattern is malformed (e.g. a non-final ``*``)."""

    def __init__(self, pattern: str, message: str, line: int | None = None):
        self.pattern = pattern
        self.message = message
        super().__init__(f"bad pattern {pattern!r}: {message}", line)


class EmptyCorpus(TaggingError):
    """Training was requested on an empty corpus."""


class NoValidPath(TaggingError):
    """The bias rules eliminated every candidate tag path for a sentence."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"token {position}: constraints eliminated every tag path")


class ModelFormatError(TaggingError):
    """A model file is malformed or fails normalization checks."""


class SmoothingError(TaggingError, ValueError):
    """A smoothing constant is not a finite number above 0; also a ValueError."""


class VerticalFormatError(TaggingError):
    """A vertical corpus line does not match ``token<TAB>TAG``."""


class AlignmentError(TaggingError):
    """Gold and predicted token streams differ."""

    def __init__(self, position: int, message: str = ""):
        self.position = position
        detail = f": {message}" if message else ""
        super().__init__(f"token streams diverge at position {position}{detail}")


def decode_utf8(data: bytes, name: str) -> str:
    """`data` as strict UTF-8, else a TaggingError that names the input
    and the 1-based line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TaggingError(f"{name} is not valid UTF-8 at line {line}: {exc}") from None


def read_utf8(path: str | Path) -> str:
    """A file's text, decoded as strict UTF-8 with its line ends as they
    are (no newline translation: `split_lines` reads them).  Every input
    file goes through here, so bytes that are not UTF-8 raise a
    TaggingError naming the file."""
    return decode_utf8(Path(path).read_bytes(), str(path))


def split_lines(text: str) -> list[str]:
    """`text` cut at each ``\\n``, with one ``\\r`` before it dropped, so a
    CRLF file reads as its LF copy.  No other character ends a line, as in
    `decode_utf8` and unlike `str.splitlines`; a final ``\\n`` is
    followed by one last, empty line."""
    return text.replace("\r\n", "\n").split("\n")


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of `text` that is neither
    blank nor led by ``#`` (after leading blanks): the comment rule of
    the lexicon, rules, abbreviation and multiword formats."""
    for line_no, line in enumerate(split_lines(text), start=1):
        stripped = line.lstrip()
        if stripped and not stripped.startswith("#"):
            yield line_no, line


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
