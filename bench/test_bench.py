"""Tests of the benchmark itself: a seeded generator, and checks that
reject deliberately corrupted outputs.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import synth  # noqa: E402
from spantag import bias, corpus_io, lexicon, tagger, tokenizer  # noqa: E402
from spantag.errors import NoValidPath  # noqa: E402
from spantag.tagset import parse_tag  # noqa: E402

N_SENTENCES = 40


@pytest.fixture(scope="module")
def t():
    """The first sentences of a news-stream workload, tagged in process."""
    wl = synth.generate("news-stream", 3)
    with_range_pair = [s for s in wl.sentences if _has_range_pair(s)]
    sentences = with_range_pair[:2] + wl.sentences[:N_SENTENCES]
    text = synth.render(sentences, random.Random(0))
    lex = lexicon.parse_lexicon(wl.files["lexicon.tsv"])
    ruleset = bias.parse_rules(wl.files["rules.txt"])
    model = tagger.train(corpus_io.parse_vertical(wl.files["gold.vrt"]).sentences)
    abbreviations = tokenizer.default_abbreviations() | frozenset(synth.USER_ABBREVIATIONS)
    out = tagger.tag_text(model, lex, ruleset, text, abbreviations=abbreviations,
                          multiwords=wl.multiwords)
    return SimpleNamespace(wl=wl, sentences=sentences, text=text, out=out, model=model,
                           lex=lex, ruleset=ruleset, rules=oracles.Rules(wl.files["rules.txt"]))


def replace_pair(out, s_index, t_index, token=None, tag=None):
    """A copy of `out` with one (token, tag) pair swapped."""
    sentence = out[s_index]
    pairs = list(sentence.pairs)
    old_token, old_tag = pairs[t_index]
    pairs[t_index] = (token or old_token, tag or old_tag)
    copy = list(out)
    copy[s_index] = dataclasses.replace(sentence, pairs=tuple(pairs))
    return copy


def find(out, predicate):
    for s_index, sentence in enumerate(out):
        for t_index, (token, tag) in enumerate(sentence.pairs):
            if predicate(token, tag):
                return s_index, t_index
    raise AssertionError("no such token in the test input")


@pytest.mark.parametrize("name", synth.WORKLOADS)
def test_generator_is_byte_identical_for_a_seed(name):
    first = synth.generate(name, 11)
    assert first.files == synth.generate(name, 11).files
    assert first.files["input.txt"] != synth.generate(name, 12).files["input.txt"]


def test_workload_sizes_do_not_depend_on_the_seed():
    for name in ("news-stream", "long-sentence"):
        a, b = synth.generate(name, 1), synth.generate(name, 2)
        counts = [oracles.gold_counts(w.gold) for w in (a, b)]
        assert len(counts[0][2]) == len(counts[1][2])  # tags seen
        assert len({f for _t, f in counts[0][1]}) == len({f for _t, f in counts[1][1]})
    assert [len(s) for s in a.sentences] == [len(s) for s in b.sentences] \
        == [n for n in synth.LADDER]


def test_checks_pass_on_correct_output(t):
    assert oracles.check_spans(t.text, t.out) == []
    assert oracles.check_tags(t.sentences, t.out) == []
    assert oracles.check_rules(t.sentences, t.out, t.rules) == []
    assert oracles.check_probabilities([("trained", t.model)], t.wl.gold, 3, samples=40) == []
    assert any(s.fallback for s in t.out), "the input should exercise #FALLBACK"
    assert any(tok.kind == "enclitic-part" for s in t.out for tok in s.tokens)


def test_shifted_span_is_rejected(t):
    s_index, t_index = find(t.out, lambda tok, _tag: tok.origin is None and tok.span[0] > 0)
    token = t.out[s_index].pairs[t_index][0]
    shifted = dataclasses.replace(token, span=(token.span[0] + 1, token.span[1] + 1))
    assert oracles.check_spans(t.text, replace_pair(t.out, s_index, t_index, token=shifted))


def test_misspelled_split_part_is_rejected(t):
    s_index, t_index = find(t.out, lambda tok, _tag: tok.kind == "enclitic-part")
    token = t.out[s_index].pairs[t_index][0]
    wrong = dataclasses.replace(token, surface=token.surface + "s")
    assert oracles.check_spans(t.text, replace_pair(t.out, s_index, t_index, token=wrong))


def test_swapped_tag_is_rejected(t):
    s_index, t_index = find(t.out, lambda tok, tag: tok.kind == "word" and tag.code != "SE")
    corrupted = replace_pair(t.out, s_index, t_index, tag=parse_tag("SE"))
    assert oracles.check_tags(t.sentences, corrupted)


def test_unsplit_clitic_group_is_rejected(t):
    s_index, t_index = find(t.out, lambda tok, _tag: tok.kind == "enclitic-part")
    token = t.out[s_index].pairs[t_index][0]
    whole = dataclasses.replace(token, kind="word", origin=None)
    assert oracles.check_tags(t.sentences, replace_pair(t.out, s_index, t_index, token=whole))


def test_banned_pair_and_needless_fallback_are_rejected(t):
    s_index, t_index = next((i, k) for i, s in enumerate(t.out)
                            for k in range(len(s.pairs) - 1) if s.tags[k].code == "CARDXP")
    # A range after a plain number is the pair the rules file bans.
    banned = replace_pair(t.out, s_index, t_index + 1, tag=parse_tag("CARDGU"))
    banned[s_index] = dataclasses.replace(banned[s_index], fallback=False)
    assert oracles.check_rules(t.sentences, banned, t.rules)
    feasible = next(i for i, s in enumerate(t.out) if not s.fallback)
    flagged = list(t.out)
    flagged[feasible] = dataclasses.replace(t.out[feasible], fallback=True)
    assert oracles.check_rules(t.sentences, flagged, t.rules)


def test_perturbed_score_and_worse_path_are_rejected(t):
    index = next(i for i, s in enumerate(t.out) if not s.fallback and len(s.pairs) > 3)
    prep = tagger.prepare_sentence(_source_tokens(t.out[index]), t.model, t.lex)
    path, score = tagger.viterbi_decode(t.model, t.ruleset, prep)
    codes = [tag.code for tag in path]
    assert oracles.check_score(t.model, prep, t.rules, codes, score, True) == []
    assert oracles.check_score(t.model, prep, t.rules, codes, score + 1e-6, True)
    assert oracles.check_score(t.model, prep, t.rules, codes, score, False)
    emits = tagger.emission_scores(t.model, prep)
    k = next(i for i, row in enumerate(emits) if len(row) > 1)
    other = [*codes]
    other[k] = next(c for c in emits[k] if c != codes[k])
    assert oracles.check_score(t.model, prep, t.rules, other, score, True)


def test_infeasible_sentence_is_scored_without_rules(t):
    index = next(i for i, s in enumerate(t.out) if s.fallback)
    prep = tagger.prepare_sentence(_source_tokens(t.out[index]), t.model, t.lex)
    with pytest.raises(NoValidPath):
        tagger.viterbi_decode(t.model, t.ruleset, prep)
    path, score = tagger.viterbi_decode(t.model, None, prep)
    codes = [tag.code for tag in path]
    assert oracles.check_score(t.model, prep, t.rules, codes, score, False) == []


def test_perturbed_probability_is_rejected(t):
    model = t.model

    class Skewed:
        def transition_logp(self, prev, nxt):
            return model.transition_logp(prev, nxt) + 1e-6

        emission_logp = staticmethod(model.emission_logp)

    assert oracles.check_probabilities([("skewed", Skewed())], t.wl.gold, 3, samples=40)


def test_validate_and_train_summary_expectations(t):
    text = corpus_io.format_vertical(corpus_io.VerticalDocument(sentences=t.out))
    stdout, code = oracles.expected_validate(text, t.rules)
    fallback_pairs = sum(t.rules.banned(a.code, b.code)
                         for s in t.out if s.fallback for a, b in zip(s.tags, s.tags[1:]))
    assert code == (1 if fallback_pairs else 0)
    assert len(stdout.splitlines()) == fallback_pairs
    assert "CARDXP CARDGU' violates rule at line 2" in stdout
    _trans, emit, tags = oracles.gold_counts(t.wl.gold)
    good = (f"sentences\t{len(t.wl.gold)}\ntokens\t{sum(tags.values())}\n"
            f"vocabulary\t{len({f for _t, f in emit})}\ntags-seen\t{len(tags)}\n")
    assert oracles.check_train_summary(good, t.wl.gold) == []
    assert oracles.check_train_summary(good.replace("sentences\t", "sentences\t9"), t.wl.gold)


def test_timed_samples_are_scaled_by_the_nearby_calibrations():
    bench = run.Run()
    ref = run.CALIBRATION_REF_S
    # The machine ran at half the reference speed around the first
    # sample and at the reference speed around the second, far away.
    bench.calibrations = [(10.0, 2 * ref), (11.5, 2 * ref), (100.0, ref), (101.0, ref)]
    bench.timed = {"op_s": [(11.0, 1.0, None), (100.5, 0.5, None)],
                   "rate": [(11.0, 1.0, 1000)]}
    bench.finish_timed()
    assert bench.samples["op_s"] == pytest.approx([0.5, 0.5])
    assert bench.samples["rate"] == pytest.approx([2000.0])


def _source_tokens(sentence):
    """The tokenizer's tokens of a tagged sentence: split parts folded
    back into their parent word."""
    out = []
    for token in sentence.tokens:
        if token.origin is None:
            out.append(token)
        elif token.origin[1] == 0:
            out.append(dataclasses.replace(token, surface=token.origin[0], kind="word",
                                           origin=None, candidates=None))
    return out


def _has_range_pair(items):
    """Does the sentence hold the banned number-before-range pair?"""
    return any(a.parts[0].allowed == {"CARDXP"} and b.parts[0].allowed == {"CARDGU"}
               for a, b in zip(items, items[1:]))
