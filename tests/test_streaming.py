"""The streaming pipeline: `iter_tagged` yields one sentence at a time, so
tagging two texts one after the other must give what tagging their
concatenation gives, and memory must follow the longest sentence rather
than the input."""

import gc
import itertools
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from spantag import tokenizer as tok
from spantag.bias import parse_rules
from spantag.corpus_io import VerticalDocument, format_sentence, format_vertical, parse_vertical
from spantag.lexicon import parse_lexicon
from spantag.tagger import END, START, iter_tagged, load_model, save_model, tag_text, train
from spantag.tagset import table_columns

from conftest import sentence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

MULTIWORDS = ("sin embargo", "a pesar de", "por lo tanto", "de repente")
ABBREVIATIONS = tok.default_abbreviations() | {"etc."}


@pytest.fixture(scope="module")
def toy():
    model = train([
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("voy", "VLPI1S"), ("al", "PAL"), ("mercado", "NCMS"), (".", ".")),
        sentence(("Pedro", "NPAXX"), ("come", "VLPI3S"), ("12", "CARDXP"), (".", ".")),
        sentence(("sin embargo", "ADVL"), ("come", "VLPI3S"), ("Pedro", "NPAXX"), (".", ".")),
    ])
    lexicon = parse_lexicon(
        "mesa\tNCFS\nmercado\tNCMS\ncome\tVLPI3S\nvender\tVLINF\n"
        "sin embargo\tADVL,CC\na pesar de\tPREP\n"
    )
    ruleset = parse_rules("FORBID CARDXP CARDGU\nFORBID ARTDFS NCM?\n")
    return model, lexicon, ruleset


# Pieces of the generated texts: words known and unknown, capitalized and
# not, portmanteaux, enclitic groups, multiwords and their single words,
# abbreviations, numbers, ranges, codes, and punctuation, terminators included.
_PIECES = (
    "la", "La", "mesa", "mercado", "come", "Pedro", "Zorvan", "zorvan", "al", "Al", "del",
    "venderlo", "Venderlo", "sin", "embargo", "sin embargo", "a pesar de", "de repente",
    "por lo", "Sr.", "etc.", "Sr", "12", "3-5", "A4", ",", ";", "¿", "¡", "«", "»", "(",
    ".", "?", "!", "...", "…", "niño", "más", "tanto", "de", "a", "repente",
)
_SEPARATORS = (" ", " ", " ", "  ", "\t", "\n", "\u00a0", "")
_TERMINATORS = (".", "?", "!", "...", "…")
_SPACE = (" ", "\n", "  ", "\t", "\u2009")


def _pieces(rng, n):
    return "".join(rng.choice(_SEPARATORS) + rng.choice(_PIECES) for _ in range(n))


def _tagged_text(toy, text, **kwargs):
    model, lexicon, ruleset = toy
    return format_vertical(VerticalDocument(tag_text(model, lexicon, ruleset, text, **kwargs)))


def _ends_a_sentence(text, abbreviations):
    """`text` ends in whitespace after a token that ends a sentence."""
    tokens = tok.tokenize(text, abbreviations)
    return (text[-1:].isspace() and bool(tokens) and tokens[-1].kind == tok.KIND_PUNCTUATION
            and tokens[-1].surface in tok.SENTENCE_TERMINATORS)


@pytest.mark.parametrize("flags", [
    dict(abbreviations=ABBREVIATIONS, multiwords=MULTIWORDS),
    dict(enclitic_split=False),
], ids=["abbrev-multiwords", "no-enclitic-split"])
def test_tagging_a_concatenation_is_tagging_each_part(toy, flags):
    rng = random.Random(1318)
    checked = 0
    for _ in range(400):
        a = _pieces(rng, rng.randrange(6)) + rng.choice(_SEPARATORS) \
            + rng.choice(_TERMINATORS) + rng.choice(_SPACE)
        b = _pieces(rng, rng.randrange(8)) + rng.choice(("", " ", "."))
        if not _ends_a_sentence(a, flags.get("abbreviations")):
            continue  # say "Sr" + "." fold into one abbreviation
        checked += 1
        assert _tagged_text(toy, a + b, **flags) == \
            _tagged_text(toy, a, **flags) + _tagged_text(toy, b, **flags), (a, b)
    assert checked > 300


@pytest.fixture(scope="module")
def news():
    wl = synth.generate("news-stream", 1)
    return dict(
        model=train(parse_vertical(wl.files["gold.vrt"]).sentences),
        lexicon=parse_lexicon(wl.files["lexicon.tsv"]),
        ruleset=parse_rules(wl.files["rules.txt"]),
        abbreviations=tok.default_abbreviations() | set(wl.files["abbrev.txt"].split()),
        multiwords=wl.multiwords,
        text=wl.text,
    )


def _news_format(news, text):
    return format_vertical(VerticalDocument(tag_text(
        news["model"], news["lexicon"], news["ruleset"], text,
        abbreviations=news["abbreviations"], multiwords=news["multiwords"],
    )))


def test_workload_tags_the_same_cut_at_any_sentence_end(news):
    text = news["text"]
    rng = random.Random(7)
    cuts = [i + 1 for i in range(1, len(text) - 1)
            if text[i].isspace() and text[i - 1] in ".?!…"]
    cuts = [cut for cut in rng.sample(cuts, 8)
            if _ends_a_sentence(text[:cut], news["abbreviations"])]
    assert len(cuts) >= 4
    whole = _news_format(news, text)
    assert "#FALLBACK" in whole
    for cut in cuts:
        assert _news_format(news, text[:cut]) + _news_format(news, text[cut:]) == whole, cut


# ------------------------------------------------------------ multiwords

def reference_merge_multiwords(tokens, text, multiwords):
    """The whole-list merge that the streamed one replaced, kept verbatim."""
    if not multiwords:
        return list(tokens)
    by_first = {}
    for mw in multiwords:
        words = tuple(mw.split(" "))
        by_first.setdefault(words[0], []).append(words)
    for seqs in by_first.values():
        seqs.sort(key=len, reverse=True)

    data = text.encode("utf-8")
    out = []
    i = 0
    while i < len(tokens):
        tok_ = tokens[i]
        match_len = 0
        if tok_.kind == tok.KIND_WORD and tok_.surface in by_first:
            for words in by_first[tok_.surface]:
                n = len(words)
                if i + n > len(tokens):
                    continue
                window = tokens[i : i + n]
                if any(t.kind != tok.KIND_WORD for t in window):
                    continue
                if tuple(t.surface for t in window) != words:
                    continue
                gaps_ok = all(
                    data[window[k].span[1] : window[k + 1].span[0]] == b" "
                    for k in range(n - 1)
                )
                if gaps_ok:
                    match_len = n
                    break
        if match_len > 1:
            start = tok_.span[0]
            end = tokens[i + match_len - 1].span[1]
            out.append(tok.Token(
                surface=data[start:end].decode("utf-8"),
                span=(start, end),
                kind=tok.KIND_WORD,
            ))
            i += match_len
        else:
            out.append(tok_)
            i += 1
    return out


@pytest.mark.parametrize("text", [
    "Vino sin embargo. Sin embargo llueve.",
    "Vino, sin embargo. sin embargo llueve .",  # just before and just after a terminator
    "a pesar de. de repente ! a pesar de",
    "Llegó sin\tembargo y sin  embargo, a pesar  de todo.",  # a tab and two spaces
    "sin embargo\nsin embargo sin\u00a0embargo sin embargo",
    "sin embargo sin embargo. sin. embargo de repente de",
    "por lo tanto por lo por lo tanto. Sr. sin embargo etc. sin embargo",
    "sin", "sin embargo", "",
])
def test_streamed_merge_equals_the_whole_list_merge(text):
    tokens = tok.tokenize(text, ABBREVIATIONS)
    merged = reference_merge_multiwords(tokens, text, MULTIWORDS)
    assert tok.merge_multiwords(tokens, text, MULTIWORDS) == merged
    expected = tok.sentence_split(merged)
    assert list(tok.iter_sentences(text, ABBREVIATIONS, MULTIWORDS)) == expected
    # merging each sentence on its own gives the same tokens: a merge takes
    # word tokens only, and every sentence but the last ends in punctuation
    per_sentence = [tok.merge_multiwords(s, text, MULTIWORDS) for s in tok.sentence_split(tokens)]
    assert per_sentence == expected
    data = text.encode("utf-8")
    for token in merged:
        assert data[token.span[0]:token.span[1]].decode("utf-8") == token.surface


def test_multiword_gaps_other_than_one_space_do_not_merge():
    text = "sin\tembargo sin  embargo sin\u00a0embargo sin embargo."  # tab, 2 spaces, NBSP
    surfaces = [t.surface for s in tok.iter_sentences(text, None, MULTIWORDS) for t in s]
    assert surfaces == ["sin", "embargo", "sin", "embargo", "sin", "embargo", "sin embargo", "."]


def test_streamed_merge_equals_the_whole_list_merge_on_generated_texts():
    rng = random.Random(42)
    for _ in range(3000):
        text = _pieces(rng, rng.randrange(12))
        tokens = tok.tokenize(text, ABBREVIATIONS)
        # with no multiwords, `iter_sentences` skips the merge and splits
        # the scanned tokens directly
        for multiwords in (MULTIWORDS, ()):
            merged = reference_merge_multiwords(tokens, text, multiwords)
            assert tok.merge_multiwords(tokens, text, multiwords) == merged, text
            assert list(tok.iter_sentences(text, ABBREVIATIONS, multiwords)) == \
                tok.sentence_split(merged), text


# ---------------------------------------------------------------- memory

def _stream_peak(news, text):
    """tracemalloc peak of tagging `text` one sentence at a time, net of
    the text and of what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _sentence in iter_tagged(news["model"], news["lexicon"], news["ruleset"], text,
                                     abbreviations=news["abbreviations"],
                                     multiwords=news["multiwords"]):
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_stream_peak_memory_does_not_grow_with_the_input(news):
    once, eight_times = news["text"], news["text"] * 8
    # warm: the registry, the tag and guesser caches, the compiled rules
    _stream_peak(news, once)
    peak_1x = _stream_peak(news, once)
    peak_8x = _stream_peak(news, eight_times)
    # Holding the 8x text's tokens takes several MiB.  What does grow is
    # CPython's free lists of small tuples, whose length is capped.
    assert peak_8x <= 1.25 * peak_1x, (peak_1x, peak_8x)


def _tag_and_format_peak(model, lexicon, ruleset, text):
    """tracemalloc peak of tagging `text` and formatting each sentence as
    `spantag tag` writes it, net of the text and of what was allocated
    before; and the number of tokens tagged.  A full collection first
    empties CPython's free lists, which would otherwise hand out memory
    allocated before the start unseen, as many bytes as whatever ran
    before left there: so the figure is the same in any test order."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tokens = 0
        for tagged in iter_tagged(model, lexicon, ruleset, text):
            format_sentence(tagged)
            tokens += len(tagged.pairs)
        return tracemalloc.get_traced_memory()[1] - base, tokens
    finally:
        tracemalloc.stop()


# Bytes per token of tagging and formatting one terminator-free sentence of
# 4,000 tokens: 457, 459, 451 and 451 on CPython 3.10-3.13, against 579,
# 594, 578 and 578 when the lattice kept each state's score and rows, each
# line was formatted into a string of its own, and the sentence's working
# lists were held while it was formatted.
PEAK_BYTES_PER_TOKEN = 500


def test_per_token_memory_of_a_terminator_free_sentence():
    wl = synth.generate("long-sentence", 1)
    model = train(parse_vertical(wl.files["gold.vrt"]).sentences)
    lexicon, ruleset = parse_lexicon(wl.files["lexicon.tsv"]), parse_rules(wl.files["rules.txt"])
    last = list(tok.iter_sentences(wl.text))[-1]
    text = wl.text.encode("utf-8")[last[0].span[0]:].decode("utf-8")
    _tag_and_format_peak(model, lexicon, ruleset, text)  # warm the shared caches
    peak, tokens = _tag_and_format_peak(model, lexicon, ruleset, text)
    assert tokens > 4000
    assert peak <= PEAK_BYTES_PER_TOKEN * tokens, (peak, peak / tokens)


def _distinct_words(n):
    """`n` distinct lowercase words that no lexicon here lists."""
    syllables = ("ba", "ce", "di", "fo", "gu", "ja", "ke", "li", "mo", "nu",
                 "pa", "re", "si", "to", "vu", "za", "bre", "cli", "dro", "fla")
    return ["".join(p) + "x" for p in itertools.islice(itertools.product(syllables, repeat=4), n)]


def _sentences_of(words):
    """`words` in sentences of 20, each ended by a full stop."""
    return " ".join(w + (" ." if i % 20 == 19 else "") for i, w in enumerate(words)) + "\n"


# Bytes per distinct type that `iter_tagged` keeps until it is done: the
# key, its entry and the surface the key holds; unknown words of one class
# share their emission row.  230, 230, 222 and 222 on CPython 3.10-3.13 for
# 4,000 unknown words, 8 more than with no candidates in the key (550, 502,
# 494 and 494 with an emission row each).
CACHE_BYTES_PER_TYPE = 250


def test_type_cache_grows_with_types_not_tokens(toy):
    model, lexicon, ruleset = toy
    n = 4000
    distinct = _sentences_of(_distinct_words(n))
    one_type = _sentences_of(_distinct_words(1) * n)
    _tag_and_format_peak(model, lexicon, ruleset, distinct)  # warm the shared caches
    peak_distinct, tokens = _tag_and_format_peak(model, lexicon, ruleset, distinct)
    peak_one, tokens_one = _tag_and_format_peak(model, lexicon, ruleset, one_type)
    assert tokens == tokens_one == n + n // 20
    per_type = (peak_distinct - peak_one) / n
    assert per_type <= CACHE_BYTES_PER_TYPE, per_type
    # the same tokens with one type cost a sentence, not a cache entry each
    assert peak_one * 20 < peak_distinct, (peak_one, peak_distinct)


def _held_by_load(path):
    """The model `load_model` reads from `path`, and the tracemalloc bytes
    that the load allocated and still holds after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = load_model(path)
        gc.collect()
        return model, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_a_model_read_row_by_row_holds_the_registry_strings(news, tmp_path):
    """The file as saved is read a section at a time and its CRLF copy row
    by row (`_model_reader._data_rows`).  Both loads must hold the
    registry's own str for every transition context and outcome, not the
    file's copy per row, so the copy costs no more memory: 668,589 and
    668,580 bytes on CPython 3.11, against 890,882 for the copy when the
    row scanner kept the file's strings."""
    saved, crlf = tmp_path / "saved.model", tmp_path / "crlf.model"
    save_model(news["model"], saved)
    crlf.write_bytes(saved.read_bytes().replace(b"\n", b"\r\n"))
    registry = {code: code for code in table_columns().codes} | {START: START, END: END}
    held = {}
    for path in (saved, crlf):
        load_model(path)  # warm the registry and the tag table
        model, held[path.stem] = _held_by_load(path)
        assert all(c is registry[c] and o is registry[o] for c, o in model.transition_counts)
        for context, (_unseen, seen) in model._transitions.items():
            assert context is registry[context]
            assert all(outcome is registry[outcome] for outcome in seen)
    assert held["crlf"] <= held["saved"], held
