"""One way to read an input line and report a bad one, for every loader:
the error type, its ``.line``, the CLI message, and what a line is."""

import io
import random
import sys

import pytest

from spantag import errors
from spantag.bias import load_rules
from spantag.cli import main
from spantag.corpus_io import read_vertical
from spantag.errors import (
    BadPattern,
    LexiconParseError,
    ModelFormatError,
    RuleSyntaxError,
    TaggingError,
    UnknownTag,
    VerticalFormatError,
    decoded,
    file_lines,
    read_utf8,
    split_lines,
)
from spantag.lexicon import load_lexicon
from spantag.tagger import load_model, model_to_text, train
from spantag.tokenizer import load_abbreviations, load_multiwords

from conftest import sentence
from v1_writer import v1_text

TEXT = "La Sra. mesa, sin embargo, come bien.\n¿Dónde está la mano grande?\n"


def toy_model():
    return train([
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("la", "ARTDFS"), ("mano", "NCFS"), ("grande", "ADJGFS"), (".", ".")),
    ])


def edited_model(writer, edit):
    """A model file with its first ``<s>`` row edited, or its ``kt`` row
    given a second value, and the number of the line at fault."""
    lines = writer(toy_model()).split("\n")
    first = "kt\t" if edit == "meta" else "<s>\t"
    i = next(i for i, line in enumerate(lines) if line.startswith(first))
    row = lines[i]
    if edit == "context":
        lines[i] = "BOGUS" + row[len("<s>"):]
    elif edit == "count":
        lines[i] = row.rsplit("\t", 1)[0] + "\tx"
    else:  # the same pair twice, or the same META key
        lines.insert(i + 1, "kt\t0.9" if edit == "meta" else row)
        i += 1
    return "\n".join(lines), i + 1


# kind -> (library loader, CLI arguments around the file)
LOADERS = {
    "lexicon": (load_lexicon, lambda f, src, model: ["tag", src, "--model", model, "--lexicon", f]),
    "rules": (load_rules, lambda f, src, model: ["tag", src, "--model", model, "--rules", f]),
    "vertical": (read_vertical, lambda f, src, model: ["train", "--corpus", f, "--model", model]),
    "model": (load_model, lambda f, src, model: ["tag", src, "--model", f]),
    "abbreviations": (load_abbreviations, lambda f, src, model: ["tokenize", src, "--abbrev", f]),
    "multiwords": (load_multiwords, lambda f, src, model: ["tokenize", src, "--multiwords", f]),
}

# id -> (loader kind, file text, line at fault, error type, message after the line)
CASES = {
    "lexicon": ("lexicon", "# forms\nmesa\tNCFS\nsilla NCFS\n", 3, LexiconParseError,
                "expected 'wordform<TAB>TAGS'"),
    "lexicon-tag": ("lexicon", "mesa\tNCFS\n\nsilla\tBOGUS\n", 3, UnknownTag,
                    "unknown tag 'BOGUS'"),
    "rules": ("rules", "# rules\nFORBID ARTDFS NCMP\nBLOCK ARTDFS NCFS\n", 3, RuleSyntaxError,
              "unknown directive 'BLOCK'"),
    "rules-pattern": ("rules", "\nFORBID ARTDFS NCMPP\n", 2, BadPattern,
                      "bad pattern 'NCMPP': matches no registry tag"),
    "vertical": ("vertical", "la\tARTDFS\n\nmesa NCFS\n", 3, VerticalFormatError,
                 "expected exactly one tab per line"),
    "vertical-tag": ("vertical", "# gold\nla\tARTDFS\nmesa\tNCFZ\n", 3, UnknownTag,
                     "unknown tag 'NCFZ'"),
    "v1-context": ("model", *edited_model(v1_text, "context"), ModelFormatError,
                   "transition context 'BOGUS' is neither <s> nor a registry tag"),
    "v1-repeated-row": ("model", *edited_model(v1_text, "repeat"), ModelFormatError,
                        "second TRANSITIONS row for '<s>' "),
    "counts-count": ("model", *edited_model(model_to_text, "count"), ModelFormatError,
                     "count 'x' is not a positive integer"),
    "counts-context": ("model", *edited_model(model_to_text, "context"), ModelFormatError,
                       "transition context 'BOGUS' is neither <s> nor a registry tag"),
    "counts-repeated-row": ("model", *edited_model(model_to_text, "repeat"),
                            ModelFormatError, "second TRANSITIONS row for '<s>' "),
    "v1-repeated-meta": ("model", *edited_model(v1_text, "meta"), ModelFormatError,
                         "second META row for 'kt'"),
    "counts-repeated-meta": ("model", *edited_model(model_to_text, "meta"),
                             ModelFormatError, "second META row for 'kt'"),
    "abbreviations": ("abbreviations", "# mine\nSra.\netc\n", 3, TaggingError,
                      "abbreviation 'etc' is not one word followed by '.'"),
    "multiwords": ("multiwords", "# mine\nsin embargo\n\nembargo\n", 4, TaggingError,
                   "multiword 'embargo': needs two or more words"),
}


def case_file(tmp_path, case):
    """The loader kind, the bad file, its error type and the start of the
    report: ``<file>: line N: <message>``."""
    kind, body, line, error, message = CASES[case]
    path = tmp_path / f"bad-{kind}.txt"
    path.write_text(body, encoding="utf-8")
    return kind, path, line, error, f"{path}: line {line}: {message}"


@pytest.mark.parametrize("case", CASES)
def test_loader_error_carries_its_line(tmp_path, case):
    kind, path, line, error, report = case_file(tmp_path, case)
    with pytest.raises(TaggingError) as err:
        LOADERS[kind][0](path)
    assert type(err.value) is error
    assert err.value.line == line
    assert str(err.value).startswith(report)


@pytest.mark.parametrize("case", CASES)
def test_cli_reports_file_and_line_and_exits_2(tmp_path, capsys, case):
    kind, path, _line, _error, report = case_file(tmp_path, case)
    src, model = tmp_path / "in.txt", tmp_path / "toy.model"
    src.write_text(TEXT, encoding="utf-8")
    model.write_text(model_to_text(toy_model()), encoding="utf-8")
    assert main(LOADERS[kind][1](str(path), str(src), str(model))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spantag: {report}")


# ----------------------------------------------------------- what a line is

# Characters `str.splitlines` also breaks at; none of them ends a line.
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("kind, first, second, error", [
    pytest.param("lexicon", "mesa\tNCFS", "x\tBADTAG", UnknownTag, id="lexicon"),
    pytest.param("rules", "FORBID ARTDFS NCMP", "BLOCK ARTDFS NCFS", RuleSyntaxError, id="rules"),
])
def test_only_newline_ends_a_line(tmp_path, kind, first, second, error, char):
    """The line of a parse error is the line of a bad UTF-8 byte at the
    same place, as an editor counts it."""
    path = tmp_path / f"{kind}.txt"
    path.write_text(f"{first}{char}\n{second}\n", encoding="utf-8")
    with pytest.raises(error) as err:
        LOADERS[kind][0](path)
    assert err.value.line == 2
    path.write_bytes(f"{first}{char}\n".encode("utf-8") + b"\xff\n")
    with pytest.raises(TaggingError, match="not valid UTF-8 at line 2:"):
        LOADERS[kind][0](path)


def test_a_lone_carriage_return_does_not_end_a_line(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("mesa\tNCFS\rsilla\tNCFS\n", encoding="utf-8")
    with pytest.raises(LexiconParseError) as err:
        load_lexicon(path)
    assert err.value.line == 1


@pytest.mark.parametrize("writer", [model_to_text, v1_text], ids=["counts", "v1"])
def test_crlf_files_give_the_same_output(tmp_path, capsys, writer):
    """Every input file with CRLF line ends reads as its LF copy."""
    files = {
        "lexicon": "# forms\nmesa\tNCFS\nmano\tNCFS,VLPI3S\ngrande\tADJGFS\n",
        "rules": "# rules\nFORBID ARTDFS VL*\nREQUIRE ART?FS NC?S\n",
        "abbrev": "# abbreviations\nSra.\n",
        "multiwords": "# multiwords\nsin embargo\n",
        "model": writer(toy_model()),
        "vertical": "# gold\nla\tARTDFS\nmesa\tNCFZ\n.\t.\n\n#FALLBACK\nla\tARTDFS\ncome\tVLPI3S\n\n",
    }
    outputs = []
    for ending in ("\n", "\r\n"):
        paths = {}
        for name, text in {**files, "text": TEXT}.items():
            paths[name] = str(tmp_path / f"{name}-{len(ending)}.txt")
            with open(paths[name], "w", encoding="utf-8", newline="") as f:
                f.write(text.replace("\n", ending))
        tag = main(["tag", paths["text"], "--model", paths["model"], "--lexicon", paths["lexicon"],
                    "--rules", paths["rules"], "--abbrev", paths["abbrev"],
                    "--multiwords", paths["multiwords"]])
        tagged = capsys.readouterr().out
        validate = main(["validate", paths["vertical"], "--rules", paths["rules"]])
        outputs.append((tag, tagged, validate, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2] == 1
    assert "line 3: unknown tag 'NCFZ'" in outputs[0][3]
    assert "violates rule at line 2" in outputs[0][3]


# ------------------------------------------------------ a file read in chunks

CHUNK_SIZES = [1, 2, 3, 7, errors._CHUNK_BYTES]
PIECES = ["la", "mesa\tNCFS", " ", "\n", "\n\n", "\r\n", "\r", "\r\r\n", "é", "€", "𝄞",
          *NOT_LINE_ENDS]


def seeded_texts(seed: int, count: int = 60) -> list[str]:
    """Texts of line ends, lone CRs, the characters that end no line and
    characters of two to four bytes, with or without a final newline."""
    rng = random.Random(seed)
    return ["", "\n", "\r", "\r\n", "\r\r\n", "la\r", *(
        "".join(rng.choice(PIECES) for _ in range(rng.randrange(1, 40))) for _ in range(count)
    )]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_file_lines_cuts_as_split_lines_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    path = tmp_path / "text.txt"
    for seed in (1, 2):
        for text in seeded_texts(seed):
            if chunk == errors._CHUNK_BYTES:  # long enough to cross a default chunk
                text *= chunk // max(len(text), 1) + 2
            path.write_bytes(text.encode("utf-8"))
            assert list(file_lines(path)) == list(enumerate(split_lines(text), start=1)), text


def reference_decode(data: bytes, name: str) -> str:
    """`data` as strict UTF-8, else the TaggingError every input reader
    raised when each decoded its whole input at once.  The decoder of that
    time is kept here, so the oracle does not follow `errors.decoded`; with
    the whole input in one buffer, its byte positions need no shift."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TaggingError(f"{name} is not valid UTF-8 at line {line}: {exc}") from None


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_every_reader_decodes_as_the_whole_buffer_does(tmp_path, monkeypatch, chunk):
    """`read_utf8`, and `decoded` on a stream as standard input is read,
    give the text of the whole buffer at any chunk size, with a CRLF or a
    character of two to four bytes cut across two chunks; each piece
    `decoded` gives is one chunk and the at most 3 bytes held back before it."""
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    path = tmp_path / "text.txt"
    for text in seeded_texts(3):
        if chunk == errors._CHUNK_BYTES:
            text *= chunk // max(len(text), 1) + 2
        data = text.encode("utf-8")
        path.write_bytes(data)
        assert read_utf8(path) == reference_decode(data, str(path)) == text
        pieces = list(decoded(io.BytesIO(data), "standard input"))
        assert "".join(pieces) == text
        assert all(len(piece.encode("utf-8")) <= chunk + 3 for piece in pieces)


# Bytes no UTF-8 text holds here: a stray or invalid lead byte, a sequence cut
# short by ASCII, a bad second byte, an encoded surrogate, a lone lead at the end.
BAD_BYTES = [b"\xff", b"\x80", b"\xe2\x82", b"\xf0\x80\x80", b"\xed\xa0\x80", b"\xc3"]


def bad_inputs(chunk: int):
    """Inputs with each of `BAD_BYTES` at and around the first three chunk
    boundaries, at the start and at the end."""
    unit = "la\r\nmesa é€𝄞\n".encode("utf-8")
    good = unit * (3 * chunk // len(unit) + 2)
    places = {k * chunk + d for k in (1, 2, 3) for d in (-2, -1, 0, 1)} | {0, len(good)}
    for bad in BAD_BYTES:
        for at in sorted(p for p in places if 0 <= p <= len(good)):
            yield good[:at] + bad + good[at:]


def text_before_the_bad_byte(data: bytes) -> str:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data[:exc.start].decode("utf-8")
    raise AssertionError("no bad byte")


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_file_lines_reports_a_bad_byte_as_the_whole_file_does(tmp_path, monkeypatch, chunk):
    """At and around each chunk boundary, and at the end, a bad byte gives
    the message, line and byte position `reference_decode` gives for the
    whole file, after the lines before its own."""
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    path = tmp_path / "bad.txt"
    for data in bad_inputs(chunk):
        with pytest.raises(TaggingError) as whole:
            reference_decode(data, str(path))
        before = split_lines(text_before_the_bad_byte(data))[:-1]
        path.write_bytes(data)
        read = []
        with pytest.raises(TaggingError) as streamed:
            read.extend(file_lines(path))
        assert str(streamed.value) == str(whole.value), data
        assert read == list(enumerate(before, start=1)), data


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_decoded_gives_the_text_before_a_bad_byte_then_raises(monkeypatch, chunk):
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    for data in bad_inputs(chunk):
        with pytest.raises(TaggingError) as whole:
            reference_decode(data, "standard input")
        read = []
        with pytest.raises(TaggingError) as streamed:
            read.extend(decoded(io.BytesIO(data), "standard input"))
        assert str(streamed.value) == str(whole.value), data
        assert "".join(read) == text_before_the_bad_byte(data), data


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("source", ["read_utf8", "tokenize -", "tag -"])
def test_a_bad_byte_in_a_whole_input_reads_as_the_reference(
        tmp_path, monkeypatch, capsys, source, chunk):
    """A file read whole, and the text of `tokenize -` and `tag -` read from
    standard input, report a bad byte with the message, line and byte
    positions of `reference_decode`, and the commands write nothing."""
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    path, model = tmp_path / "bad.txt", tmp_path / "toy.model"
    model.write_text(model_to_text(toy_model()), encoding="utf-8")
    argv = {"tokenize -": ["tokenize", "-"], "tag -": ["tag", "-", "--model", str(model)]}
    for data in bad_inputs(chunk):
        name = str(path) if source == "read_utf8" else "standard input"
        with pytest.raises(TaggingError) as whole:
            reference_decode(data, name)
        if source == "read_utf8":
            path.write_bytes(data)
            with pytest.raises(TaggingError) as read:
                read_utf8(path)
            assert str(read.value) == str(whole.value), data
            continue
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(argv[source]) == 2
        assert capsys.readouterr() == ("", f"spantag: {whole.value}\n"), data


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_a_bad_line_before_a_bad_byte_is_reported_first(tmp_path, monkeypatch, chunk):
    """A vertical file is parsed as it is decoded, so of a bad line and a
    later bad byte the line is reported, whatever the chunk size."""
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    path = tmp_path / "gold.vrt"
    path.write_bytes(b"la\tARTDFS\nmesa NCFS\n.\t.\n\n\xff\tNCFS\n")
    with pytest.raises(VerticalFormatError) as err:
        read_vertical(path)
    assert err.value.line == 2
    assert str(err.value) == f"{path}: line 2: expected exactly one tab per line"
