"""`tag_text` resolves each word type once per call: it must tag exactly as
a pipeline that resolves every token afresh, and keep nothing afterwards."""

import copy

import pytest

from spantag import tokenizer as tok
from spantag.bias import parse_rules
from spantag.corpus_io import parse_vertical
from spantag.errors import NoValidPath
from spantag.lexicon import parse_lexicon, seed_lexicon
from spantag.tagger import (
    TaggedSentence, candidates, prepare_sentence, tag_text, train, viterbi_decode,
)

from conftest import sentence
import synth


def reference_prepare(sentence_tokens, model, lexicon, enclitic_split=True):
    """Split and candidate resolution of every token on its own."""
    first_wordish = next(
        (i for i, t in enumerate(sentence_tokens) if t.kind != tok.KIND_PUNCTUATION), None
    )
    prepared = []
    for i, token in enumerate(sentence_tokens):
        parts = [token]
        decision = tok.split_portmanteau(token)
        if decision is not None:
            parts = tok.expand_token(token, decision)
        elif enclitic_split:
            decision = tok.split_enclitics(token, lexicon)
            if decision is not None:
                parts = tok.expand_token(token, decision)
        prepared += [
            (part, candidates(model, lexicon, part, sentence_initial=i == first_wordish))
            for part in parts
        ]
    return prepared


def reference_tag(model, lexicon, ruleset, text, enclitic_split=True,
                  abbreviations=None, multiwords=()):
    """Tokenize, then resolve and decode each sentence on its own."""
    tokens = tok.tokenize(text, abbreviations)
    if multiwords:
        tokens = tok.merge_multiwords(tokens, text, multiwords)
    tagged = []
    for sentence_tokens in tok.sentence_split(tokens):
        prep = reference_prepare(sentence_tokens, model, lexicon, enclitic_split)
        assert prepare_sentence(sentence_tokens, model, lexicon, enclitic_split) == prep
        try:
            tags, _score = viterbi_decode(model, ruleset, prep)
            flagged = False
        except NoValidPath:
            tags, _score = viterbi_decode(model, None, prep)
            flagged = True
        tagged.append(TaggedSentence(
            pairs=tuple((token, tag) for (token, _cls), tag in zip(prep, tags)),
            fallback=flagged,
        ))
    return tagged


def assert_same_tagging(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g.fallback == e.fallback
        assert [(t.surface, t.span, t.kind, t.origin, t.candidates, tag.code)
                for t, tag in g.pairs] == \
               [(t.surface, t.span, t.kind, t.origin, t.candidates, tag.code)
                for t, tag in e.pairs]


@pytest.fixture(scope="module", params=[
    (name, seed) for name in ("news-stream", "long-sentence") for seed in (1, 2, 3)
], ids=lambda p: f"{p[0]}-{p[1]}")
def workload(request, tmp_path_factory):
    wl = synth.generate(*request.param)
    directory = tmp_path_factory.mktemp(f"{wl.name}-{wl.seed}")
    (directory / "abbrev.txt").write_text(wl.files["abbrev.txt"], encoding="utf-8")
    return dict(
        model=train(parse_vertical(wl.files["gold.vrt"]).sentences),
        lexicon=parse_lexicon(wl.files["lexicon.tsv"]),
        ruleset=parse_rules(wl.files["rules.txt"]),
        abbreviations=tok.load_abbreviations(directory / "abbrev.txt"),
        multiwords=wl.multiwords,
        text=wl.text,
    )


@pytest.mark.parametrize("flags", [True, False], ids=["default", "no-split-no-multiwords"])
def test_tag_text_equals_per_token_reference_on_workloads(workload, flags):
    w = workload
    args = (w["model"], w["lexicon"], w["ruleset"], w["text"])
    kwargs = dict(enclitic_split=flags, abbreviations=w["abbreviations"],
                  multiwords=w["multiwords"] if flags else ())
    assert_same_tagging(tag_text(*args, **kwargs), reference_tag(*args, **kwargs))


@pytest.fixture
def model():
    return train([
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("voy", "VLPI1S"), ("al", "PAL"), ("mercado", "NCMS"), (".", ".")),
        sentence(("Pedro", "NPAXX"), ("come", "VLPI3S"), (".", ".")),
        sentence(("come", "VLPI3S"), ("Pedro", "NPAXX"), (".", ".")),
    ])


def test_capitalized_unknown_word_initial_and_inside(model):
    text = "Zorvan come . Come Zorvan y Zorvan ."
    got = tag_text(model, seed_lexicon(), None, text)
    assert_same_tagging(got, reference_tag(model, seed_lexicon(), None, text))
    # only the sentence-initial guess lacks the proper-noun readings
    assert [tag.code for s in got for t, tag in s.pairs if t.surface == "Zorvan"] == \
           ["NCFS", "NPAXX", "NPAXX"]


def test_repeated_token_object_is_initial_only_first(model):
    """One Token object at both ends of a sentence: only the first
    occurrence is sentence initial, so only the last one gets the
    proper-noun guesses."""
    t = tok.Token("Pérez", (-1, -1), tok.KIND_WORD)
    sentence_tokens = [t, tok.Token("vino", (-1, -1), tok.KIND_WORD), t]
    prep = prepare_sentence(sentence_tokens, model, seed_lexicon())
    assert prep == reference_prepare(sentence_tokens, model, seed_lexicon())
    assert [cls.codes() for _t, cls in prep][::2] == [
        ("ADJGFS", "ADJGMS", "NCFS", "NCMS"),
        ("ADJGFS", "ADJGMS", "NCFS", "NCMS", "NPAXX", "NPTOS"),
    ]


def test_al_and_capitalized_al(model):
    text = "Al final voy al mercado . Al salir , al fin AL ."
    got = tag_text(model, seed_lexicon(), None, text)
    assert_same_tagging(got, reference_tag(model, seed_lexicon(), None, text))
    kinds = {(t.surface, t.kind) for s in got for t, _tag in s.pairs}
    assert ("Al", tok.KIND_PORTMANTEAU_PART) in kinds
    assert ("al", tok.KIND_PORTMANTEAU_PART) in kinds
    assert ("AL", tok.KIND_WORD) in kinds


@pytest.mark.parametrize("enclitic_split", [True, False])
def test_enclitic_host_repeated(model, enclitic_split):
    lexicon = parse_lexicon("vender\tVLINF\n")
    text = "Venderlo ahora . Voy a venderlo y venderlo ."
    got = tag_text(model, lexicon, None, text, enclitic_split=enclitic_split)
    assert_same_tagging(got, reference_tag(model, lexicon, None, text, enclitic_split))
    parts = [t for s in got for t, _tag in s.pairs if t.origin == ("venderlo", 0)]
    if enclitic_split:
        # each occurrence's parts carry that occurrence's span
        starts = [text.index("venderlo"), text.rindex("venderlo")]
        assert [t.span for t in parts] == [(i, i + len("venderlo")) for i in starts]
    else:
        assert parts == []


def test_repeated_types_in_fallback_sentence(model):
    ruleset = parse_rules("FORBID CARDXP CARDGU\n")
    text = "12 3-5 y 12 3-5 . la mesa 12 ."
    got = tag_text(model, seed_lexicon(), ruleset, text)
    assert [s.fallback for s in got] == [True, False]
    assert_same_tagging(got, reference_tag(model, seed_lexicon(), ruleset, text))


def test_nothing_outlives_the_call(model):
    lexicon = parse_lexicon("vender\tVLINF\nmesa\tNCFS\n")
    ruleset = parse_rules("FORBID ARTDFS NCMS\nFORBID CARDXP CARDGU\n")
    before = [copy.deepcopy(vars(obj)) for obj in (model, lexicon, ruleset)]
    entries = len(lexicon)
    banned = dict(ruleset.banned)
    text = "Zorvan vino . Al venderlo , la mesa Zorvan . 12 3-5 12 ."
    first = tag_text(model, lexicon, ruleset, text)
    assert [copy.deepcopy(vars(obj)) for obj in (model, lexicon, ruleset)] == before
    assert len(lexicon) == entries
    assert ruleset.banned == banned
    assert tag_text(model, lexicon, ruleset, text) == first
