"""Vertical format reading/writing and evaluation."""

import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from spantag import errors
from spantag.corpus_io import (
    FALLBACK_MARK,
    VerticalDocument,
    evaluate,
    format_report,
    format_vertical,
    iter_vertical,
    parse_vertical,
    punctuationish,
    read_vertical,
    write_vertical,
)
from spantag.errors import AlignmentError, UnknownTag, VerticalFormatError
from spantag.lexicon import parse_lexicon
from spantag.tagger import TaggedSentence
from spantag.tagset import Tag, parse_tag
from spantag.tokenizer import KIND_PUNCTUATION, KIND_WORD, Token

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

TWO_SENTENCES = "la\tARTDFS\nmesa\tNCFS\n.\t.\n\nel\tARTDMS\nlibro\tNCMS\n.\t.\n\n"


def test_read_two_sentences():
    doc = parse_vertical(TWO_SENTENCES)
    assert len(doc) == len(doc.sentences) == 2
    assert doc.token_count() == 6
    assert [t.surface for t, _tag in doc.sentences[0].pairs] == ["la", "mesa", "."]
    assert [tag.code for _t, tag in doc.sentences[1].pairs] == ["ARTDMS", "NCMS", "."]


def test_space_instead_of_tab():
    with pytest.raises(VerticalFormatError) as err:
        parse_vertical("mesa NCFS\n")
    assert err.value.line == 1


def test_too_many_tabs():
    with pytest.raises(VerticalFormatError):
        parse_vertical("mesa\tNCFS\textra\n")


def test_strict_rejects_unknown_tag():
    with pytest.raises(UnknownTag) as err:
        parse_vertical("mesa\tNCFS\nx\tBADTAG\n", strict=True)
    assert err.value.line == 2


def test_lenient_flags_unknown_tag():
    doc = parse_vertical("mesa\tNCFS\nx\tBADTAG\n", strict=False)
    assert doc.stand_ins == ((2, "BADTAG", 0, 1),)
    assert doc.sentences[0].pairs[1][1].code == "PNC"


def test_roundtrip_byte_identical(tmp_path):
    path = tmp_path / "canonical.vrt"
    path.write_bytes(TWO_SENTENCES.encode("utf-8"))
    doc = read_vertical(path)
    out = tmp_path / "rewritten.vrt"
    write_vertical(doc, out)
    assert out.read_bytes() == path.read_bytes()


def test_write_read_write_stable():
    # write . read . write == write on any readable input
    messy = "la\tARTDFS\nmesa\tNCFS\n\n\n.\t.\n"
    once = format_vertical(parse_vertical(messy))
    twice = format_vertical(parse_vertical(once))
    assert once == twice


def test_empty_document_is_empty_file():
    assert format_vertical(VerticalDocument(sentences=[])) == ""
    assert parse_vertical("").sentences == []


def test_fallback_mark_roundtrip():
    doc = parse_vertical(TWO_SENTENCES)
    flagged = VerticalDocument(sentences=[
        TaggedSentence(pairs=doc.sentences[0].pairs, fallback=True),
        doc.sentences[1],
    ])
    text = format_vertical(flagged)
    assert text.startswith("#FALLBACK\n")
    again = parse_vertical(text)
    assert again.sentences[0].fallback is True
    assert again.sentences[1].fallback is False
    assert format_vertical(again) == text


def test_fallback_mark_before_a_blank_line_flags_the_next_sentence():
    doc = parse_vertical("#FALLBACK\n\nla\tARTDFS\n\n")
    assert [s.fallback for s in doc.sentences] == [True]
    assert format_vertical(doc) == "#FALLBACK\nla\tARTDFS\n\n"
    inside = parse_vertical("la\tARTDFS\n#FALLBACK\nmesa\tNCFS\n\nel\tARTDMS\n\n")
    assert [s.fallback for s in inside.sentences] == [True, False]


def test_comment_lines_ignored():
    doc = parse_vertical("# corpus header\nla\tARTDFS\n")
    assert doc.token_count() == 1


def test_hash_token_roundtrips():
    text = "#\tPNC\nla\tARTDFS\n\n"
    doc = parse_vertical(text)
    assert doc.sentences[0].pairs[0][0].surface == "#"
    assert format_vertical(doc) == text


# ---------------------------------------------------------------- evaluate

def test_evaluate_identity():
    for text, tokens in [(TWO_SENTENCES, 6), ("", 0)]:
        doc = parse_vertical(text)
        report = evaluate(doc, parse_vertical(text))
        assert report.accuracy == 1.0
        assert report.token_count == tokens
        assert report.correct == tokens
        assert sum(report.confusion.values()) == report.token_count


def make_ten_token_pair():
    gold_lines = [f"w{i}\tNCFS" for i in range(10)]
    pred_lines = list(gold_lines)
    pred_lines[3] = "w3\tNCMS"
    gold = parse_vertical("\n".join(gold_lines) + "\n")
    pred = parse_vertical("\n".join(pred_lines) + "\n")
    return gold, pred


def test_evaluate_one_of_ten():
    gold, pred = make_ten_token_pair()
    report = evaluate(gold, pred)
    assert report.accuracy == 0.9
    assert report.confusion[("NCFS", "NCMS")] == 1
    assert report.confusion[("NCFS", "NCFS")] == 9


def vertical(surfaces, breaks=()):
    """One NCFS token per surface, with a sentence break after each
    position in `breaks`."""
    return parse_vertical("".join(
        f"{s}\tNCFS\n" + ("\n" if i in breaks else "") for i, s in enumerate(surfaces)
    ))


def test_evaluate_alignment_error_position():
    for gold, pred, position, detail in [
        ("abcd", "abcX", 3, "'d' vs 'X'"),
        # mid-stream, in another sentence, and before the lengths differ
        ("abcdef", "abXdefgh", 2, "'c' vs 'X'"),
    ]:
        with pytest.raises(AlignmentError) as err:
            evaluate(vertical(gold, breaks={1}), vertical(pred, breaks={0, 4}))
        assert err.value.position == position
        assert str(err.value) == f"token streams diverge at position {position}: {detail}"


def test_evaluate_length_mismatch():
    for gold, pred in [("ab", "a"), ("a", "ab"), ("abc", ""), ("", "abc")]:
        with pytest.raises(AlignmentError) as err:
            evaluate(vertical(gold, breaks={0}), vertical(pred))
        position = min(len(gold), len(pred))
        assert err.value.position == position
        assert str(err.value) == (
            f"token streams diverge at position {position}: token streams have different lengths"
        )


def test_evaluate_holds_no_token_stream():
    """The documents are walked side by side: on about 29k tokens the
    peak stays far below what whole-corpus (surface, code) lists of both
    cost (about 3.7 MB), and the report is the one they give."""
    text = synth.generate("news-stream", 1).files["gold.vrt"] * 4
    gold, pred = parse_vertical(text), parse_vertical(text.replace("\tNCFS\n", "\tNCMS\n"))
    lex = parse_lexicon("la\tARTDFS\n")
    evaluate(gold, pred, lex)  # warm the lexicon's lookups
    tracemalloc.start()
    try:
        report = evaluate(gold, pred, lex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
    rows = [(token.surface, g.code, p.code) for s, t in zip(gold.sentences, pred.sentences)
            for (token, g), (_token, p) in zip(s.pairs, t.pairs)]
    unknown = [g == p for surface, g, p in rows if lex.lookup(surface) is None]
    assert report.token_count == len(rows) == gold.token_count()
    assert report.confusion == dict(Counter((g, p) for _surface, g, p in rows))
    assert report.correct == sum(g == p for _surface, g, p in rows) < len(rows)
    assert (report.unknown_count, report.unknown_correct) == (len(unknown), sum(unknown))


def test_confusion_transposes_when_swapped():
    gold, pred = make_ten_token_pair()
    ab = evaluate(gold, pred).confusion
    ba = evaluate(pred, gold).confusion
    assert {(g, p): n for (p, g), n in ba.items()} == ab


def test_accuracy_bounds_random():
    rng = random.Random(77)
    codes = ["NCFS", "NCMS", "ADVN", "VLINF"]
    for _ in range(20):
        n = rng.randrange(1, 30)
        gold_lines = [f"w{i}\t{rng.choice(codes)}" for i in range(n)]
        pred_lines = [f"w{i}\t{rng.choice(codes)}" for i in range(n)]
        report = evaluate(
            parse_vertical("\n".join(gold_lines) + "\n"),
            parse_vertical("\n".join(pred_lines) + "\n"),
        )
        assert 0.0 <= report.accuracy <= 1.0
        assert sum(report.confusion.values()) == n


def test_unknown_token_accuracy():
    lex = parse_lexicon("la\tARTDFS\nmesa\tNCFS\n", include_seed=False)
    gold = parse_vertical("la\tARTDFS\nmesa\tNCFS\nrara\tADJGFS\notra\tADJGFS\n")
    pred = parse_vertical("la\tARTDFS\nmesa\tNCFS\nrara\tADJGFS\notra\tNCFS\n")
    report = evaluate(gold, pred, lexicon=lex)
    assert report.unknown_count == 2  # rara, otra
    assert report.unknown_correct == 1
    assert report.unknown_accuracy == 0.5
    assert report.accuracy == 0.75


def test_format_report_layout():
    gold, pred = make_ten_token_pair()
    text = format_report(evaluate(gold, pred))
    lines = text.splitlines()
    assert lines[0] == "tokens\t10"
    assert lines[2] == "accuracy\t0.900000"
    assert "GOLD\tPREDICTED\tCOUNT" in lines
    assert "NCFS\tNCMS\t1" in lines


# ------------------------------------------------------ shared value objects

def reference_parse(text, strict=True):
    """`parse_vertical` with a new Token and a new Tag built for every line."""
    sentences, pairs, stand_ins, fallback = [], [], [], False
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            if pairs:
                sentences.append(TaggedSentence(pairs=tuple(pairs), fallback=fallback))
                pairs, fallback = [], False
        elif raw.strip() == FALLBACK_MARK:
            fallback = True
        elif not (raw.startswith("#") and "\t" not in raw):
            surface, code = raw.split("\t")
            try:
                tag = Tag(code)
            except UnknownTag:
                assert not strict
                stand_ins.append((line_no, code, len(sentences), len(pairs)))
                tag = Tag("PNC")
            kind = KIND_PUNCTUATION if punctuationish(surface) else KIND_WORD
            pairs.append((Token(surface, (-1, -1), kind), tag))
    if pairs:
        sentences.append(TaggedSentence(pairs=tuple(pairs), fallback=fallback))
    return VerticalDocument(sentences=sentences, stand_ins=tuple(stand_ins))


def assert_one_object_per_value(doc):
    tokens = {}
    for s in doc.sentences:
        for token, tag in s.pairs:
            assert tokens.setdefault(token.surface, token) is token
            assert tag is parse_tag(tag.code)


def _lenient_copy(gold, seed):
    """`gold` with about one tag in twenty replaced by a non-registry code,
    some sentences flagged #FALLBACK and some comment lines."""
    rng = random.Random(seed)
    out = []
    for line in gold.split("\n"):
        if not line:
            if rng.random() < 0.1:
                out += ["", FALLBACK_MARK if rng.random() < 0.5 else "# a comment"]
                continue
        elif rng.random() < 0.05:
            surface, code = line.split("\t")
            line = f"{surface}\t{code}Z{rng.randrange(3)}"
        out.append(line)
    return "\n".join(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_parse_vertical_equals_a_per_line_build(seed):
    gold = synth.generate("news-stream", seed).files["gold.vrt"]
    doc = parse_vertical(gold)
    assert doc == reference_parse(gold)
    assert_one_object_per_value(doc)

    lenient = _lenient_copy(gold, seed)
    doc = parse_vertical(lenient, strict=False)
    assert doc.stand_ins and any(s.fallback for s in doc.sentences)
    assert doc == reference_parse(lenient, strict=False)
    assert_one_object_per_value(doc)


def _parse_peak(text):
    """tracemalloc peak of parsing `text`, the document included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_vertical(text)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_parse_vertical_memory_per_repeated_line():
    """A repeated line costs its line string while parsing, a pair and a
    slot in its sentence: about 135 bytes on CPython 3.11, against about
    410 when each line built its own Token and Tag."""
    gold = synth.generate("news-stream", 1).files["gold.vrt"]
    lines = gold.count("\n")
    _parse_peak(gold)  # warm the tag table
    once, four_times = _parse_peak(gold), _parse_peak(gold * 4)
    per_line = (four_times - once) / (3 * lines)
    assert per_line <= 200, per_line


@pytest.mark.parametrize("chunk", [1, 7, errors._CHUNK_BYTES])
def test_a_file_streams_as_its_text_parses(tmp_path, monkeypatch, chunk):
    """`iter_vertical` reads a file, at any chunk size, into the sentences
    and stand-ins `parse_vertical` gives for its text, one at a time."""
    monkeypatch.setattr(errors, "_CHUNK_BYTES", chunk)
    text = _lenient_copy(synth.generate("news-stream", 1).files["gold.vrt"], 1)
    if chunk == 1:
        text = text[:2000]  # byte by byte, a few sentences are enough
    path = tmp_path / "gold.vrt"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    doc = parse_vertical(text, strict=False)
    assert doc.stand_ins and read_vertical(path, strict=False) == doc
    streamed = list(iter_vertical(path, strict=False))
    assert [sentence for sentence, _ in streamed] == doc.sentences
    assert [
        (line_no, code, s_index, position)
        for s_index, (_, stand_ins) in enumerate(streamed)
        for line_no, code, position in stand_ins
    ] == list(doc.stand_ins)


def _stream_peak(path):
    """tracemalloc peak of reading `path` with `iter_vertical`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _sentence in iter_vertical(path):
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_iter_vertical_memory_does_not_grow_with_the_file(tmp_path):
    """Reading the gold corpus eight times over peaks at most 64 KiB above
    reading it once (8-24 KiB on CPython 3.10-3.13; a whole-file read cost
    about 7.5 MiB more): what is held is a chunk, one sentence and the
    distinct surfaces, plus what the interpreter keeps in its capped tuple
    free lists."""
    gold = synth.generate("news-stream", 1).files["gold.vrt"]
    once, eight_times = tmp_path / "once.vrt", tmp_path / "eight.vrt"
    once.write_text(gold, encoding="utf-8")
    eight_times.write_text(gold * 8, encoding="utf-8")
    _stream_peak(once)  # warm the tag table
    assert _stream_peak(eight_times) - _stream_peak(once) <= 64 * 1024
