"""Differential oracle for the counts loader's section-at-a-time path.

`model_from_text` reads a counts file in `save_model`'s layout a section
at a time (`_model_reader._sections`) and any other file with the row
scanner (`_data_rows`).  On every input both must end alike: the same
model, re-saved to the same bytes, or the same exception type, message
and line.  The inputs are the seeded counts mutants of
`test_reader_mutations.py` and hand-made files that leave the layout or
hold a fault; the bench models must take the section path.
"""

import random
from pathlib import Path

import pytest

from spantag import _model_reader, corpus_io
from spantag.errors import ModelFormatError
from spantag.tagger import model_from_text, model_to_text, save_model, train

from test_model_counts import BAD_LINES, toy_counts_lines
from test_reader_mutations import FORMATS, MODEL, MUTANTS, SEED, mutate

import synth

TEXT = model_to_text(MODEL)


def edit(old: str, new: str):
    """An edit that replaces the first `old` in the toy counts text."""
    def apply(text: str) -> str:
        assert old in text, old
        return text.replace(old, new, 1)
    return apply


def move(row: str, after: str):
    """An edit that moves the line `row` to just after the line `after`."""
    return lambda text: edit(f"{after}\n", f"{after}\n{row}\n")(edit(f"{row}\n", "")(text))


def reorder(text: str, *sections: str) -> str:
    """`text` with its sections in the order given after the COUNTS line."""
    starts = sorted(text.index(f"\n{name}\n") + 1 for name in sections)
    ends = [*starts[1:], len(text)]
    blocks = {text[start:].split("\n", 1)[0]: text[start:end] for start, end in zip(starts, ends)}
    return text[:starts[0]] + "".join(blocks[name] for name in sections)


# name: (edit of the toy counts text, whether `_sections` reads the result)
CASES = {
    "CRLF line ends": (lambda text: text.replace("\n", "\r\n"), False),
    "a CR in a form": (edit("NCFS\tmesa", "NCFS\tme\rsa"), False),
    "a blank line in TRANSITIONS": (edit("\n.\t</s>", "\n\n.\t</s>"), False),
    "a blank line in EMISSIONS": (edit("\nNCFS\tmesa", "\n\nNCFS\tmesa"), False),
    "a blank line in META": (edit("\nkt\t", "\n\nkt\t"), False),
    "a blank line before META": (edit("\nMETA\n", "\n\nMETA\n"), False),
    "blanks with two tabs in EMISSIONS": (edit("\nNCFS\tmesa", "\n \t \t \nNCFS\tmesa"), False),
    "blanks with a tab in META": (edit("\nkt\t", "\n \t \nkt\t"), False),
    "blank lines at the end": (lambda text: text + "\n\n", False),
    "no final line end": (lambda text: text.rstrip("\n"), False),
    "a transition context in two runs": (move("<s>\tVLPM2S\t1", "VLPM2S\tPPO3XS\t1"), False),
    "an emission tag in two runs": (move("NCFS\tmesa\t1", "VLPM2S\tDime\t1"), False),
    "a context's rows in another order": (move("NCFS\t.\t1", "NCFS\tADJGFS\t1"), True),
    "count 0": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t0"), False),
    "count 01": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t01"), False),
    "count 00": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t00"), False),
    "an empty count": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t"), False),
    "count +1": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t+1"), False),
    "count 1 after a blank": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t 1"), False),
    "count 1_0": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t1_0"), False),
    "a fullwidth digit": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t１"), False),
    "a superscript digit": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t²"), False),
    "a count of 19 digits": (edit("PPO3XS\tlo\t1", f"PPO3XS\tlo\t{10**18}"), True),
    "count 2**63 - 1": (edit("PPO3XS\tlo\t1", f"PPO3XS\tlo\t{2**63 - 1}"), True),
    "count 2**63": (edit("PPO3XS\tlo\t1", f"PPO3XS\tlo\t{2**63}"), False),
    "a count of 20 digits": (edit("PPO3XS\tlo\t1", f"PPO3XS\tlo\t{10**19}"), False),
    "a count of 5000 digits": (edit("PPO3XS\tlo\t1", "PPO3XS\tlo\t" + "9" * 5000), False),
    "an <unk> emission": (edit("NCFS\tmesa", "NCFS\t<unk>"), False),
    "a form that starts with 0": (edit("NCFS\tmesa", "NCFS\t0mesa"), True),
    "the form 0": (edit("NCFS\tmesa", "NCFS\t0"), True),
    "a missing cell": (edit("NCFS\tmesa\t1", "NCFS\tmesa"), False),
    "an extra cell": (edit("NCFS\tmesa\t1", "NCFS\tmesa\t1\t1"), False),
    "a missing cell, then an extra one": (
        edit("NCFS\tmano\t1\nNCFS\tmesa\t1", "NCFS\tmano\nNCFS\tmesa\t1\t1"), False),
    "a duplicate pair": (edit("NCFS\tmesa\t1\n", "NCFS\tmesa\t1\nNCFS\tmesa\t1\n"), False),
    "an unknown transition context": (edit("NCFS\t.\t1", "XYZ\t.\t1"), False),
    "an unknown transition outcome": (edit("NCFS\t.\t1", "NCFS\tXYZ\t1"), False),
    "</s> as a transition context": (edit(".\t</s>\t3", "</s>\t.\t3"), False),
    "<s> as an emission tag": (edit("NCFS\tmesa", "<s>\tmesa"), False),
    "an unknown emission tag": (edit("NCFS\tmesa", "XYZ\tmesa"), False),
    "META before the data": (lambda text: reorder(text, "META", "TRANSITIONS", "EMISSIONS"), False),
    "EMISSIONS before TRANSITIONS": (
        lambda text: reorder(text, "EMISSIONS", "TRANSITIONS", "META"), False),
    "a second TRANSITIONS header": (edit("\n.\t</s>", "\nTRANSITIONS\n.\t</s>"), False),
    "a second META header": (lambda text: text + "META\n", False),
    "a COUNTS line in the data": (edit("\nEMISSIONS\n", "\nCOUNTS\nEMISSIONS\n"), False),
    "data before TRANSITIONS": (edit("COUNTS\n", "COUNTS\n<s>\tARTDFS\t2\n"), False),
    "no TRANSITIONS header": (edit("TRANSITIONS\n", ""), False),
    "no EMISSIONS header": (edit("EMISSIONS\n", ""), False),
    "no META header": (edit("META\n", ""), False),
    "a duplicate META key": (edit("kt\t0.5\n", "kt\t0.5\nkt\t0.5\n"), False),
    "a META row of three cells": (edit("kt\t0.5", "kt\t0.5\tx"), False),
    "a META row of one cell": (edit("kt\t0.5", "kt"), False),
    "a BOM": (lambda text: "\ufeff" + text, False),
}


def ending(text: str, tmp_path: Path):
    """The bytes a model loaded from `text` re-saves to, or its error's
    type, message and line."""
    try:
        model = model_from_text(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    save_model(model, tmp_path / "resaved.model")
    return (tmp_path / "resaved.model").read_bytes()


def both_endings(text: str, tmp_path: Path, monkeypatch) -> tuple:
    """`text`'s ending through `model_from_text`, and through the row
    scanner alone."""
    default = ending(text, tmp_path)
    with monkeypatch.context() as patched:
        patched.setattr(_model_reader, "_sections", lambda _text: None)
        return default, ending(text, tmp_path)


@pytest.mark.parametrize("name", CASES)
def test_a_hand_made_case_ends_as_through_the_row_scanner(name, tmp_path, monkeypatch):
    change, read = CASES[name]
    text = change(TEXT)
    assert text != TEXT
    default, scanned = both_endings(text, tmp_path, monkeypatch)
    assert default == scanned
    assert (_model_reader._sections(text) is not None) == read


def test_layout_changes_alone_give_the_toy_model(tmp_path, monkeypatch):
    """A file that leaves the layout but holds no fault loads the model
    the layout holds."""
    assert _model_reader._sections(TEXT) is not None
    saved = TEXT.encode("utf-8")
    for name in ("CRLF line ends", "a blank line in EMISSIONS", "a transition context in two runs",
                 "an emission tag in two runs", "META before the data",
                 "a context's rows in another order"):
        assert both_endings(CASES[name][0](TEXT), tmp_path, monkeypatch) == (saved, saved), name


def test_every_counts_mutant_ends_as_through_the_row_scanner(tmp_path, monkeypatch):
    text, sep, _read, _use = FORMATS["counts model"]
    rng = random.Random(f"counts model:{SEED}")  # the mutants of test_reader_mutations
    read = 0
    for index in range(MUTANTS):
        mutant = mutate(text, sep, rng)
        default, scanned = both_endings(mutant, tmp_path, monkeypatch)
        assert default == scanned, (index, mutant)
        read += _model_reader._sections(mutant) is not None
    assert 0 < read < MUTANTS  # both paths are met


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["news-stream", "long-sentence"])
def test_bench_models_are_read_a_section_at_a_time(workload, seed, monkeypatch):
    gold = synth.generate(workload, seed).files["gold.vrt"]
    text = model_to_text(train(corpus_io.parse_vertical(gold).sentences))

    def no_row_scan(*_args):
        raise AssertionError("the row scanner ran")

    monkeypatch.setattr(_model_reader, "_data_rows", no_row_scan)
    assert model_to_text(model_from_text(text)) == text


def test_the_row_scanner_runs_on_a_layout_file_only_when_it_fails(toy_corpus, monkeypatch):
    """`_sections` numbers no line.  A file in the layout that loads is
    never scanned row by row; one whose tables disagree is scanned once,
    and the line of its fault comes from the row scanner's records: of
    the first transition into the tag, or of the META row."""
    calls = []
    data_rows = _model_reader._data_rows

    def counted(*args):
        calls.append(args)
        return data_rows(*args)

    monkeypatch.setattr(_model_reader, "_data_rows", counted)
    gold = synth.generate("news-stream", 1).files["gold.vrt"]
    for text in (TEXT, model_to_text(train(corpus_io.parse_vertical(gold).sentences))):
        model_from_text(text)
    assert calls == []
    for name in ("incoming-not-emitted", "emitted-not-count"):
        line_no, replacement, error_line = BAD_LINES[name]
        lines = toy_counts_lines(toy_corpus)
        lines[line_no - 1] = replacement
        text = "\n".join(lines) + "\n"
        assert _model_reader._sections(text) is not None, name
        calls.clear()
        with pytest.raises(ModelFormatError) as err:
            model_from_text(text)
        assert (len(calls), err.value.line) == (1, error_line), name
