"""What a lenient stand-in means to each reader of a corpus, and `eval`
reading gold and pred in step."""

import tracemalloc

import pytest

from spantag.corpus_io import (
    evaluate, evaluate_sentences, iter_vertical, read_vertical, runs,
)

import synth
from test_corpus_io import _lenient_copy


def reference_runs(sentence, stand_ins):
    """`runs` as ``(offset, pairs)``, built a pair at a time."""
    stood_in = {position for _line_no, _code, position in stand_ins}
    found, run, offset = [], [], 0
    for position, pair in enumerate(sentence.pairs):
        if position in stood_in:
            if run:
                found.append((offset, run))
            run = []
        else:
            if not run:
                offset = position
            run.append(pair)
    if run:
        found.append((offset, run))
    return found


def check_runs(sentences):
    for sentence, stand_ins in sentences:
        got = [(offset, list(run.pairs)) for offset, run in runs(sentence, stand_ins)]
        assert got == reference_runs(sentence, stand_ins)


@pytest.mark.parametrize("text", [
    "a\tXXX\nb\tARTDFS\nc\tYYY\nd\tZZZ\ne\tNCFS\nf\t.\ng\tQQQ\n",
    "a\tXXX\n",
    "a\tARTDFS\nb\tNCFS\n",
    "a\tARTDFS\nb\tXXX\n",
])
def test_runs_are_the_pairs_between_stand_ins(tmp_path, text):
    path = tmp_path / "in.vrt"
    path.write_text(text, encoding="utf-8")
    check_runs(iter_vertical(path, strict=False))


def test_runs_of_a_lenient_workload_are_the_pairs_between_stand_ins(tmp_path):
    path = tmp_path / "gold.vrt"
    path.write_text(_lenient_copy(synth.generate("news-stream", 1).files["gold.vrt"], 1),
                    encoding="utf-8")
    sentences = list(iter_vertical(path, strict=False))
    assert sum(bool(stand_ins) for _sentence, stand_ins in sentences) > 100
    check_runs(sentences)


@pytest.mark.parametrize("workload", ["news-stream", "long-sentence"])
def test_evaluate_of_files_in_step_is_evaluate_of_the_documents(tmp_path, workload):
    gold_text = synth.generate(workload, 1).files["gold.vrt"]
    pred_text = _lenient_copy(gold_text, 2)
    gold, pred = tmp_path / "gold.vrt", tmp_path / "pred.vrt"
    gold.write_text(_lenient_copy(gold_text, 1), encoding="utf-8")
    pred.write_text(pred_text, encoding="utf-8")
    report = evaluate_sentences(iter_vertical(gold, strict=False), iter_vertical(pred, strict=False))
    assert report == evaluate(read_vertical(gold, strict=False), read_vertical(pred, strict=False))
    assert 0.8 < report.accuracy < 1


def _eval_peak(path):
    """tracemalloc peak of scoring `path` against itself, read in step."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_sentences(iter_vertical(path), iter_vertical(path))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_eval_memory_does_not_grow_with_the_files(tmp_path):
    """Scoring the gold corpus eight times over against itself peaks at most
    64 KiB above scoring it once: what is held is a chunk and a sentence of
    each file, their distinct surfaces and the confusion counts."""
    gold = synth.generate("news-stream", 1).files["gold.vrt"]
    once, eight_times = tmp_path / "once.vrt", tmp_path / "eight.vrt"
    once.write_text(gold, encoding="utf-8")
    eight_times.write_text(gold * 8, encoding="utf-8")
    _eval_peak(once)  # warm the tag table
    assert _eval_peak(eight_times) - _eval_peak(once) <= 64 * 1024
