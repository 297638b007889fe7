"""Exception types shared across the toolkit, and the one way to read an
input.

`decoded` is the only code that turns input bytes into text: it reads a
binary file a chunk at a time and decodes it as strict UTF-8, and a bad
byte raises a TaggingError that names the input and the line of the
byte.  `read_utf8` joins its text for a whole file (standard input is
joined the same way by the CLI), and `parse_file` reads a whole file
through it and puts the file name in front of the errors its parser
raises.  Parsers cut the text with `split_lines`, where only
``\\n`` (or ``\\r\\n``) ends a line, and the formats with comments skip
what `content_lines` skips: blank lines and lines led by ``#``.
`file_lines` cuts `decoded`'s chunks into lines by the same rule one at
a time, for the readers that stream a file.  An error about one line
keeps its 1-based number as ``.line``, and `TaggingError` alone writes
it into the message, so every report reads ``<file>: line N: <message>``.
"""

from __future__ import annotations

import codecs
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

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


_CHUNK_BYTES = 1 << 14  # what `decoded` reads and decodes at a time


def decoded(file: BinaryIO, name: str) -> Iterator[str]:
    """The text of the binary `file`, decoded as strict UTF-8 a chunk at
    a time and given as it comes, with its line ends as they are (no
    newline translation: `split_lines` reads them).  This is the only
    decoder: every input file and standard input goes through it.  At a
    byte that is not UTF-8 it first gives the text before that byte, then
    raises a TaggingError naming `name`, the 1-based line of the byte,
    and its byte positions counted from the start of the input."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    line = 1
    read = 0
    while True:
        chunk = file.read(_CHUNK_BYTES)
        read += len(chunk)
        try:
            text = decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            # `exc.object` is this chunk after the bytes the decoder held
            # back from the last one, which hold no line end
            data, start = exc.object, exc.start
            yield data[:start].decode("utf-8")
            head, at, tail = str(exc).partition(" in position ")
            positions, colon, reason = tail.partition(":")
            positions = "-".join(str(int(p) + read - len(data)) for p in positions.split("-"))
            line += data.count(b"\n", 0, start)
            raise TaggingError(f"{name} is not valid UTF-8 at line {line}: "
                               f"{head}{at}{positions}{colon}{reason}") from None
        if not chunk:
            return
        yield text
        line += chunk.count(b"\n")


def read_utf8(path: str | Path) -> str:
    """A file's text, joined from what `decoded` gives.  Every input
    file goes through here or `file_lines`, so bytes that are not UTF-8
    raise a TaggingError naming the file."""
    with open(path, "rb") as file:
        return "".join(decoded(file, str(path)))


def split_lines(text: str) -> list[str]:
    """`text` cut at each ``\\n``, with one ``\\r`` before it dropped, so a
    CRLF file reads as its LF copy.  No other character ends a line, as in
    `decoded`'s line numbers and unlike `str.splitlines`; a final ``\\n``
    is followed by one last, empty line."""
    return text.replace("\r\n", "\n").split("\n")


def file_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of a file, cut as `split_lines`
    cuts its text from the chunks `decoded` gives: the memory it holds is a
    chunk and the line that runs past it, whatever the file's size.  A byte
    that is not UTF-8 raises `decoded`'s TaggingError once the lines before
    it have been given, so a fault in an earlier line is met first at any
    chunk size."""
    # Each chunk's lines are numbered and chained in C: yielding them one by
    # one from a generator cost 0.2 ms of the 7.5 ms that reading the 7.7k
    # lines of the news-stream gold takes (2 vCPUs, CPython 3.11).
    return chain.from_iterable(_numbered_chunks(path))


def _numbered_chunks(path: str | Path) -> Iterator[Iterable[tuple[int, str]]]:
    """The numbered lines of `file_lines`, one iterable per chunk."""
    line_no = 0
    rest: list[str] = []  # the text of the line not yet ended
    with open(path, "rb") as file:
        for text in decoded(file, str(path)):
            if "\n" in text:
                # a "\r\n" split across chunks meets again in the joined text
                lines = split_lines("".join([*rest, text]))
                rest = [lines.pop()]
                yield enumerate(lines, start=line_no + 1)
                line_no += len(lines)
            else:
                rest.append(text)
    yield ((line_no + 1, "".join(rest)),)


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
