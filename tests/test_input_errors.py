"""One way to read an input line and report a bad one, for every loader:
the error type, its ``.line``, the CLI message, and what a line is."""

import pytest

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
)
from spantag.lexicon import load_lexicon
from spantag.tagger import load_model, model_to_counts_text, model_to_text, train
from spantag.tokenizer import load_abbreviations, load_multiwords

from conftest import sentence

TEXT = "La Sra. mesa, sin embargo, come bien.\n¿Dónde está la mano grande?\n"


def toy_model():
    return train([
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("la", "ARTDFS"), ("mano", "NCFS"), ("grande", "ADJGFS"), (".", ".")),
    ])


def edited_model(writer, edit):
    """A model file with its first ``<s>`` row edited, and the number of
    the line at fault."""
    lines = writer(toy_model()).split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("<s>\t"))
    row = lines[i]
    if edit == "context":
        lines[i] = "BOGUS" + row[len("<s>"):]
    elif edit == "count":
        lines[i] = row.rsplit("\t", 1)[0] + "\tx"
    else:  # the same pair twice
        lines.insert(i + 1, row)
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
    "v1-context": ("model", *edited_model(model_to_text, "context"), ModelFormatError,
                   "transition context 'BOGUS' is neither <s> nor a registry tag"),
    "v1-repeated-row": ("model", *edited_model(model_to_text, "repeat"), ModelFormatError,
                        "second TRANSITIONS row for '<s>' "),
    "counts-count": ("model", *edited_model(model_to_counts_text, "count"), ModelFormatError,
                     "count 'x' is not a positive integer"),
    "counts-context": ("model", *edited_model(model_to_counts_text, "context"), ModelFormatError,
                       "transition context 'BOGUS' is neither <s> nor a registry tag"),
    "counts-repeated-row": ("model", *edited_model(model_to_counts_text, "repeat"),
                            ModelFormatError, "second TRANSITIONS row for '<s>' "),
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
    model.write_text(model_to_counts_text(toy_model()), encoding="utf-8")
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


@pytest.mark.parametrize("writer", [model_to_counts_text, model_to_text])
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
