"""Exception types shared across the toolkit, and the one way to read a
line-oriented input file.

`parse_file` reads every input file as strict UTF-8 and puts the file
name in front of the errors its parser raises.  Parsers cut the text
with `split_lines`, where only ``\\n`` (or ``\\r\\n``) ends a line, and the
formats with comments skip what `content_lines` skips: blank lines and
lines led by ``#``.  `file_lines` gives a file's lines by the same rule
one at a time, reading and decoding it in chunks, for the readers that
stream a file.  An error about one line keeps its 1-based number as
``.line``, and `TaggingError` alone writes it into the message, so every
report reads ``<file>: line N: <message>``.
"""

from __future__ import annotations

import codecs
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

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
        raise _not_utf8(name, data.count(b"\n", 0, exc.start) + 1, exc, 0) from None


def _not_utf8(name: str, line: int, exc: UnicodeDecodeError, offset: int) -> TaggingError:
    """The error for `exc`, raised on bytes that start at byte `offset` of
    the input, with its byte positions counted from the input's start."""
    head, at, tail = str(exc).partition(" in position ")
    positions, colon, reason = tail.partition(":")
    positions = "-".join(str(int(p) + offset) for p in positions.split("-"))
    detail = f"{head}{at}{positions}{colon}{reason}"
    return TaggingError(f"{name} is not valid UTF-8 at line {line}: {detail}")


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


_CHUNK_BYTES = 1 << 14  # what `file_lines` reads and decodes at a time


def file_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a file, cut as `split_lines`
    cuts its text, read and decoded as strict UTF-8 a chunk at a time: the
    memory it holds is a chunk and the line that runs past it, whatever the
    file's size.  A byte that is not UTF-8 raises the TaggingError that
    `read_utf8` raises for the whole file, once the lines before it have
    been given, so a fault in an earlier line is met first at any chunk
    size."""
    # Each chunk's lines are numbered and chained in C: yielding them one by
    # one from a generator cost 0.2 ms of the 7.5 ms that reading the 7.7k
    # lines of the news-stream gold takes (2 vCPUs, CPython 3.11).
    return chain.from_iterable(_numbered_chunks(path))


def _numbered_chunks(path: str | Path) -> Iterator[Iterable[tuple[int, str]]]:
    """The numbered lines of `file_lines`, one iterable per chunk."""
    name = str(path)
    decoder = codecs.getincrementaldecoder("utf-8")()
    line_no = read = 0
    rest: list[str] = []  # the text of the line not yet ended
    with open(path, "rb") as file:
        while True:
            chunk = file.read(_CHUNK_BYTES)
            read += len(chunk)
            error = None
            try:
                text = decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # `exc.object` is the chunk after the bytes the decoder held back
                error, offset = exc, read - len(exc.object)
                text = exc.object[:exc.start].decode("utf-8")
            if "\n" in text:
                # a "\r\n" split across chunks meets again in the joined text
                lines = split_lines("".join([*rest, text]))
                rest = [lines.pop()]
                yield enumerate(lines, start=line_no + 1)
                line_no += len(lines)
            else:
                rest.append(text)
            if error is not None:
                raise _not_utf8(name, line_no + 1, error, offset)
            if not chunk:
                yield ((line_no + 1, "".join(rest)),)
                return


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
