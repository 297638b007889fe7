"""HMM training, model IO, constrained Viterbi, and the pipeline."""

import itertools
import math
import random
import time

import pytest

from spantag import tokenizer as tok
from spantag.bias import parse_rules
from spantag.corpus_io import parse_vertical
from spantag.errors import EmptyCorpus, ModelFormatError, NoValidPath
from spantag.lexicon import AmbiguityClass, parse_lexicon, seed_lexicon
from spantag.tagger import (
    END,
    START,
    UNKNOWN,
    HmmModel,
    TaggedSentence,
    candidates,
    emission_scores,
    load_model,
    model_from_text,
    prepare_sentence,
    save_model,
    tag_text,
    train,
    viterbi_decode,
)
from spantag.tagset import load_registry, parse_tag
from spantag.tokenizer import KIND_NUMBER, KIND_PUNCTUATION, KIND_WORD, Token

from conftest import make_token, sentence
from v1_writer import v1_text
import synth


# ---------------------------------------------------------------- training

def test_toy_corpus_hand_counts():
    corpus = [
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
    ]
    model = train(corpus)
    assert model.transition_counts[("ARTDFS", "NCFS")] == 2
    assert model.transition_counts[(START, "ARTDFS")] == 2
    assert model.transition_counts[(".", END)] == 2
    assert model.emission_counts[("NCFS", "mesa")] == 2
    assert model.tag_counts == {"ARTDFS": 2, "NCFS": 2, ".": 2}
    assert model.token_count == 6
    assert model.vocab == frozenset({"la", "mesa", "."})


def test_single_token_sentence():
    model = train([sentence(("sí", "ADVN"))])
    assert model.transition_counts == {(START, "ADVN"): 1, ("ADVN", END): 1}


def test_zero_smoothing_rejected(toy_corpus):
    with pytest.raises(ValueError):
        train(toy_corpus, kt=0.0)
    with pytest.raises(ValueError):
        train(toy_corpus, ke=-1.0)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train([])


@pytest.mark.parametrize("corpus", [iter([]), (s for s in ())], ids=["iter", "generator"])
def test_empty_iterable_rejected(corpus):
    """An iterable that yields nothing is refused as an empty list is, not
    trained into a model that `load_model` would refuse."""
    with pytest.raises(EmptyCorpus):
        train(corpus)


def test_smoothed_rows_normalize(toy_corpus):
    model = train(toy_corpus)
    n = len(load_registry())
    for context, row in model.transitions.items():
        assert len(row) == n + 1
        assert abs(math.fsum(row.values()) - 1.0) <= 1e-9
    for tag_code, row in model.emissions.items():
        assert len(row) == len(model.vocab) + 1
        assert abs(math.fsum(row.values()) - 1.0) <= 1e-9


def test_training_deterministic(toy_corpus):
    m1 = train(toy_corpus)
    m2 = train(toy_corpus)
    assert m1.transitions == m2.transitions
    assert m1.emissions == m2.emissions


def test_tagged_sentence_must_not_be_empty():
    with pytest.raises(ValueError):
        TaggedSentence(pairs=())


# ---------------------------------------------------------------- model IO

def test_model_roundtrip(toy_corpus, tmp_path):
    model = train(toy_corpus, corpus_name="toy")
    path = tmp_path / "toy.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.corpus_name == "toy"
    assert loaded.token_count == model.token_count
    assert loaded.vocab == model.vocab
    assert loaded.tag_counts == model.tag_counts
    for context, row in model.transitions.items():
        for outcome, prob in row.items():
            assert loaded.transitions[context][outcome] == pytest.approx(prob, abs=1e-12)


def test_model_text_sections(toy_corpus):
    text = v1_text(train(toy_corpus))
    lines = text.splitlines()
    assert lines[0] == "TRANSITIONS"
    assert "EMISSIONS" in lines
    assert "META" in lines
    trans_rows = lines[1:lines.index("EMISSIONS")]
    assert all(len(r.split("\t")) == 3 for r in trans_rows)


def test_model_load_rejects_denormalized(toy_corpus, tmp_path):
    model = train(toy_corpus)
    text = v1_text(model)
    lines = text.splitlines()
    # double one stored probability: its row no longer sums to 1
    for i, line in enumerate(lines):
        cells = line.split("\t")
        if len(cells) == 3:
            cells[2] = repr(float(cells[2]) + 0.3010299956639812)  # +log10(2)
            lines[i] = "\t".join(cells)
            break
    with pytest.raises(ModelFormatError):
        model_from_text("\n".join(lines))


def _replace_line(text, prefix, replacement):
    """Replace the first line starting with `prefix`; return the text and
    the replaced line's number."""
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = replacement
    return "\n".join(lines) + "\n", index + 1


@pytest.mark.parametrize("logp", ["nan", "400"])
def test_model_load_rejects_nan_and_overflowing_logp(toy_corpus, logp):
    text = v1_text(train(toy_corpus))
    bad, line_no = _replace_line(text, "ARTDFS\tNCFS\t", "ARTDFS\tNCFS\t" + logp)
    with pytest.raises(ModelFormatError) as err:
        model_from_text(bad)
    assert err.value.line == line_no


def test_model_rejects_nan_row(toy_corpus):
    """A nan row sum is not within tolerance of 1."""
    model = train(toy_corpus)
    transitions = {c: dict(row) for c, row in model.transitions.items()}
    transitions["ARTDFS"]["NCFS"] = math.nan
    with pytest.raises(ModelFormatError):
        HmmModel(
            transitions=transitions, emissions=model.emissions,
            tag_counts=model.tag_counts, vocab=model.vocab,
            kt=model.kt, ke=model.ke,
        )


def test_model_load_rejects_minus_inf_in_normalized_row(toy_corpus):
    """A zero probability whose mass moved to another outcome keeps the
    row summing to 1; the entry itself must still be rejected."""
    model = train(toy_corpus)
    row = model.transitions["ARTDFS"]
    moved = repr(math.log10(row["NCFS"] + row["NCMS"]))
    text, _ = _replace_line(v1_text(model), "ARTDFS\tNCFS\t", "ARTDFS\tNCFS\t" + moved)
    bad, line_no = _replace_line(text, "ARTDFS\tNCMS\t", "ARTDFS\tNCMS\t-inf")
    with pytest.raises(ModelFormatError) as err:
        model_from_text(bad)
    assert err.value.line == line_no


@pytest.mark.parametrize("key, value", [
    ("count.ARTDFS", "x"), ("count.ARTDFS", "-1"), ("tokens", "1.5"),
    ("kt", "x"), ("ke", "nan"), ("kt", "0"),
])
def test_model_load_rejects_bad_meta_values(toy_corpus, key, value):
    bad, line_no = _replace_line(v1_text(train(toy_corpus)), f"{key}\t", f"{key}\t{value}")
    with pytest.raises(ModelFormatError) as err:
        model_from_text(bad)
    assert err.value.line == line_no


def test_model_load_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_text("TRANSITIONS\njust-one-field\n")
    with pytest.raises(ModelFormatError):
        model_from_text("<s>\tNCFS\t-0.5\n")  # data before any section


def test_model_rejects_unknown_tag_context(toy_corpus):
    model = train(toy_corpus)
    bad = dict(model.transitions)
    bad["BADTAG"] = next(iter(model.transitions.values()))
    with pytest.raises(ModelFormatError):
        HmmModel(
            transitions=bad, emissions=model.emissions,
            tag_counts=model.tag_counts, vocab=model.vocab,
            kt=model.kt, ke=model.ke,
        )


# -------------------------------------------------------------- candidates

def test_candidates_lexicon_and_punctuation(toy_corpus):
    model = train(toy_corpus)
    lex = seed_lexicon()
    assert candidates(model, lex, make_token("al", KIND_WORD)).codes() == ("CSUBI", "PAL")
    assert candidates(model, lex, make_token(",", KIND_PUNCTUATION)).codes() == (",",)
    assert candidates(model, lex, make_token("¿", KIND_PUNCTUATION)).codes() == ("IQUEST",)
    assert candidates(model, lex, make_token("rápidamente", KIND_WORD)).codes() == ("ADVN",)


def test_candidates_numbers_codes(toy_corpus):
    model = train(toy_corpus)
    lex = seed_lexicon()
    assert candidates(model, lex, Token("40-50", (0, 5), KIND_NUMBER)).codes() == ("CARDGU",)
    assert candidates(model, lex, Token("1990", (0, 4), KIND_NUMBER)).codes() == ("CARDXP",)
    assert candidates(model, lex, Token("B52", (0, 3), "code")).codes() == ("CODE",)


def test_candidates_attached_take_precedence(toy_corpus):
    model = train(toy_corpus)
    lex = seed_lexicon()
    tok = Token("di", (0, 2), "enclitic-part", origin=("dímelo", 0),
                candidates=frozenset({parse_tag("VLPM2S")}))
    assert candidates(model, lex, tok).codes() == ("VLPM2S",)


# ------------------------------------------------------------ oracle decode

TAG_POOL = ("ARTDFS", "NCFS", "NCMP", "ADJGFS", "VLPI3S", "PREP", "CC", "ADVN")
VOCAB_POOL = ("la", "mesa", "casa", "come", "y", "de", "bien", "rara")


def random_model(rng, vocab):
    registry = load_registry()
    outcomes = list(registry.codes()) + [END]
    transitions = {}
    for context in (START,) + TAG_POOL:
        weights = [rng.uniform(0.05, 1.0) for _ in outcomes]
        total = math.fsum(weights)
        transitions[context] = {o: w / total for o, w in zip(outcomes, weights)}
    emit_outcomes = sorted(vocab) + [UNKNOWN]
    emissions = {}
    for code in TAG_POOL:
        weights = [rng.uniform(0.05, 1.0) for _ in emit_outcomes]
        total = math.fsum(weights)
        emissions[code] = {o: w / total for o, w in zip(emit_outcomes, weights)}
    tag_counts = {code: rng.randrange(1, 9) for code in TAG_POOL}
    return HmmModel(
        transitions=transitions, emissions=emissions, tag_counts=tag_counts,
        vocab=frozenset(vocab), kt=0.5, ke=0.1,
    )


def random_instance(rng, model):
    n = rng.randrange(1, 7)
    sent = []
    for i in range(n):
        if rng.random() < 0.75:
            surface = rng.choice(VOCAB_POOL)
        else:
            surface = f"inventada{rng.randrange(40)}"  # unknown to the model
        width = rng.randrange(1, 5)
        codes = rng.sample(TAG_POOL, width)
        sent.append((
            Token(surface, (i, i + 1), KIND_WORD),
            AmbiguityClass(frozenset(parse_tag(c) for c in codes)),
        ))
    return sent


def random_ruleset(rng):
    if rng.random() < 0.25:
        return None
    lines = []
    for _ in range(rng.randrange(1, 4)):
        directive = rng.choice(["FORBID", "REQUIRE"])
        left = rng.choice(TAG_POOL)
        right = rng.choice(TAG_POOL)
        if rng.random() < 0.3:
            left = left[: rng.randrange(1, len(left))] + "*"
        if rng.random() < 0.3:
            right = right[: rng.randrange(1, len(right))] + "*"
        lines.append(f"{directive} {left} {right}")
    return parse_rules("\n".join(lines))


def brute_force_decode(model, ruleset, sent):
    """Exhaustive path enumeration; accumulates the score in the same
    left-to-right order as the decoder so floats are comparable exactly."""
    emits = emission_scores(model, sent)
    registry = load_registry()
    layers = [cls.sorted_tags() for _tok, cls in sent]
    best = None
    for combo in itertools.product(*layers):
        if ruleset is not None and any(
            not ruleset.allowed(a, b) for a, b in zip(combo, combo[1:])
        ):
            continue
        score = model.transition_logp(START, combo[0].code) + emits[0][combo[0].code]
        for i in range(1, len(combo)):
            score = score + model.transition_logp(combo[i - 1].code, combo[i].code) + emits[i][combo[i].code]
        score = score + model.transition_logp(combo[-1].code, END)
        key = tuple(registry.index(t) for t in combo)
        if best is None or score > best[0] or (score == best[0] and key < best[1]):
            best = (score, key, list(combo))
    return best


def test_viterbi_matches_brute_force_oracle():
    rng = random.Random(2025)
    checked = 0
    attempts = 0
    while checked < 60 and attempts < 400:
        attempts += 1
        model = random_model(rng, VOCAB_POOL)
        sent = random_instance(rng, model)
        ruleset = random_ruleset(rng)
        expected = brute_force_decode(model, ruleset, sent)
        if expected is None:
            with pytest.raises(NoValidPath):
                viterbi_decode(model, ruleset, sent)
            continue
        path, score = viterbi_decode(model, ruleset, sent)
        assert [t.code for t in path] == [t.code for t in expected[2]]
        assert abs(score - expected[0]) <= 1e-9
        checked += 1
    assert checked >= 60


def prefix_viterbi_decode(model, ruleset, sentence):
    """Reference: the decoder that keeps each state's whole path prefix and
    breaks exact ties by comparing prefixes of registry indices.  Quadratic
    in sentence length, but its tie-break is the definition."""
    if not sentence:
        return [], 0.0
    registry = load_registry()
    emits = emission_scores(model, sentence)
    layers = [cls.sorted_tags() for _tok, cls in sentence]
    best = {}
    for t in layers[0]:
        score = model.transition_logp(START, t.code) + emits[0][t.code]
        best[t.code] = (score, (registry.index(t),))
    for i in range(1, len(layers)):
        nxt = {}
        for t in layers[i]:
            emit_lp = emits[i][t.code]
            idx = registry.index(t)
            chosen = None
            for p in layers[i - 1]:
                prev_best = best.get(p.code)
                if prev_best is None:
                    continue
                if ruleset is not None and not ruleset.allowed(p, t):
                    continue
                score = prev_best[0] + model.transition_logp(p.code, t.code) + emit_lp
                prefix = prev_best[1] + (idx,)
                if (
                    chosen is None
                    or score > chosen[0]
                    or (score == chosen[0] and prefix < chosen[1])
                ):
                    chosen = (score, prefix)
            if chosen is not None:
                nxt[t.code] = chosen
        if not nxt:
            raise NoValidPath(i)
        best = nxt
    final = None
    for t in layers[-1]:
        state = best.get(t.code)
        if state is None:
            continue
        score = state[0] + model.transition_logp(t.code, END)
        if final is None or score > final[0] or (score == final[0] and state[1] < final[1]):
            final = (score, state[1])
    codes = registry.codes()
    return [parse_tag(codes[i]) for i in final[1]], final[0]


def tie_prone_model(rng):
    """Either every path ties (no stored rows: uniform everywhere), or
    add-k rows from a small corpus over part of the tag pool, where the
    unseen tags share identical rows and so tie exactly."""
    if rng.random() < 0.5:
        return HmmModel(
            transitions={}, emissions={}, tag_counts={},
            vocab=frozenset(VOCAB_POOL), kt=0.5, ke=0.1,
        )
    seen = rng.sample(TAG_POOL, 4)
    corpus = [
        TaggedSentence(pairs=tuple(
            (make_token(rng.choice(VOCAB_POOL)), parse_tag(rng.choice(seen)))
            for _ in range(rng.randrange(1, 5))
        ))
        for _ in range(rng.randrange(1, 4))
    ]
    return train(corpus, kt=1.0, ke=1.0)


def test_backpointer_decoder_matches_prefix_reference():
    rng = random.Random(31337)
    outcomes = {"path": 0, "long constrained path": 0, "NoValidPath": 0}
    for _ in range(200):
        model = tie_prone_model(rng)
        n = rng.choice([rng.randrange(1, 12), rng.randrange(12, 300)])
        sent = [
            (
                Token(rng.choice(VOCAB_POOL + ("inventada",)), (i, i + 1), KIND_WORD),
                AmbiguityClass(frozenset(
                    parse_tag(c) for c in rng.sample(TAG_POOL, rng.randrange(1, 5))
                )),
            )
            for i in range(n)
        ]
        if rng.random() < 0.6:
            ruleset = random_ruleset(rng)
        else:  # one FORBID pair: long lattices then mostly stay feasible
            ruleset = parse_rules(f"FORBID {rng.choice(TAG_POOL)} {rng.choice(TAG_POOL)}\n")
        try:
            expected = prefix_viterbi_decode(model, ruleset, sent)
        except NoValidPath as err:
            with pytest.raises(NoValidPath) as got:
                viterbi_decode(model, ruleset, sent)
            assert got.value.position == err.position
            outcomes["NoValidPath"] += 1
            continue
        path, score = viterbi_decode(model, ruleset, sent)
        assert [t.code for t in path] == [t.code for t in expected[0]]
        assert score == expected[1]  # bit-equal: same additions in the same order
        outcomes["path"] += 1
        outcomes["long constrained path"] += ruleset is not None and n >= 100
    assert min(outcomes.values()) >= 20, outcomes


def test_forced_path_ignores_model(toy_corpus):
    model = train(toy_corpus)
    sent = [
        (make_token("x"), AmbiguityClass.of("NCFS")),
        (make_token("y"), AmbiguityClass.of("VLPI3S")),
    ]
    path, _score = viterbi_decode(model, None, sent)
    assert [t.code for t in path] == ["NCFS", "VLPI3S"]


def test_saturated_forbid_raises(toy_corpus):
    model = train(toy_corpus)
    ruleset = parse_rules("FORBID NCFS VLPI3S\n")
    sent = [
        (make_token("x"), AmbiguityClass.of("NCFS")),
        (make_token("y"), AmbiguityClass.of("VLPI3S")),
    ]
    with pytest.raises(NoValidPath) as err:
        viterbi_decode(model, ruleset, sent)
    assert err.value.position == 1


def test_decoded_score_recomputes(toy_corpus):
    model = train(toy_corpus)
    sent = [
        (make_token("la"), AmbiguityClass.of("ARTDFS", "NCFS")),
        (make_token("mesa"), AmbiguityClass.of("NCFS", "ADJGFS")),
        (make_token("."), AmbiguityClass.of(".")),
    ]
    path, score = viterbi_decode(model, None, sent)
    emits = emission_scores(model, sent)
    recomputed = model.transition_logp(START, path[0].code) + emits[0][path[0].code]
    for i in range(1, len(path)):
        recomputed = recomputed + model.transition_logp(path[i - 1].code, path[i].code) + emits[i][path[i].code]
    recomputed = recomputed + model.transition_logp(path[-1].code, END)
    assert abs(score - recomputed) <= 1e-9


def test_empty_sentence_decodes_empty(toy_corpus):
    model = train(toy_corpus)
    assert viterbi_decode(model, None, []) == ([], 0.0)


def test_tie_break_prefers_registry_order():
    """With a perfectly uniform model every path ties; the decoder must
    pick the path that is lexicographically first in registry order at
    the earliest differing position."""
    registry = load_registry()
    outcomes = list(registry.codes()) + [END]
    uniform_t = {o: 1.0 / len(outcomes) for o in outcomes}
    vocab = ("w",)
    emit_outcomes = ["w", UNKNOWN]
    uniform_e = {o: 1.0 / 2 for o in emit_outcomes}
    model = HmmModel(
        transitions={c: dict(uniform_t) for c in (START, "ARTDFS", "NCFS", "NCMP", "ADJGFS")},
        emissions={c: dict(uniform_e) for c in ("ARTDFS", "NCFS", "NCMP", "ADJGFS")},
        tag_counts={}, vocab=frozenset(vocab), kt=0.5, ke=0.1,
    )
    sent = [
        (Token("w", (0, 1), KIND_WORD), AmbiguityClass.of("NCFS", "ARTDFS")),
        (Token("w", (1, 2), KIND_WORD), AmbiguityClass.of("NCMP", "ADJGFS")),
    ]
    path, _= viterbi_decode(model, None, sent)
    # ARTDFS < NCFS and ADJGFS < NCMP in registry order
    assert [t.code for t in path] == ["ARTDFS", "ADJGFS"]

    # forbidding the lexicographically best pair shifts the tie-break:
    # among remaining ties the earliest position still prefers ARTDFS
    ruleset = parse_rules("FORBID ARTDFS ADJGFS\n")
    path, _ = viterbi_decode(model, ruleset, sent)
    assert [t.code for t in path] == ["ARTDFS", "NCMP"]


def test_decoding_deterministic(toy_corpus):
    model = train(toy_corpus)
    sent = [
        (make_token("la"), AmbiguityClass.of("ARTDFS", "PPO3FS")),
        (make_token("mesa"), AmbiguityClass.of("NCFS", "ADJGFS")),
    ]
    results = {tuple(t.code for t in viterbi_decode(model, None, sent)[0]) for _ in range(5)}
    assert len(results) == 1


def test_decoding_cost_linear_in_length(toy_corpus):
    model = train(toy_corpus)
    cands = AmbiguityClass.of("ARTDFS", "NCFS", "ADJGFS")

    def build(n):
        return [(Token("la", (i, i + 1), KIND_WORD), cands) for i in range(n)]

    def measure(n, reps=20):
        sent = build(n)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                viterbi_decode(model, None, sent)
            best = min(best, time.perf_counter() - t0)
        return best

    short = measure(40)
    long = measure(320)
    # 8x the length: linear decoding stays near 8x; quadratic would be 64x
    assert long / short < 32, f"ratio {long / short:.1f}"


def test_decoding_cost_linear_at_larger_n(toy_corpus):
    """The per-layer rank keeps decoding linear where copying whole path
    prefixes would not: 8x the length must cost well under 16x."""
    model = train(toy_corpus)
    cands = AmbiguityClass.of("ARTDFS", "NCFS", "ADJGFS")
    # A base long enough (a few ms) that one slow spell on a busy host
    # cannot dominate it, and five interleaved repeats of each length.
    sentences = {
        n: [(Token("la", (i, i + 1), KIND_WORD), cands) for i in range(n)]
        for n in (2000, 16000)
    }
    best = {n: float("inf") for n in sentences}
    for _ in range(5):  # alternate lengths so a slow spell hits both
        for n, sent in sentences.items():
            t0 = time.perf_counter()
            viterbi_decode(model, None, sent)
            best[n] = min(best[n], time.perf_counter() - t0)
    ratio = best[16000] / best[2000]
    assert ratio < 16, f"ratio {ratio:.1f}"


# ----------------------------------------------------------------- pipeline

def test_tag_text_empty(toy_corpus):
    model = train(toy_corpus)
    assert tag_text(model, seed_lexicon(), None, "") == []


def test_tag_text_la_mesa(toy_corpus):
    model = train(toy_corpus)
    out = tag_text(model, seed_lexicon(), None, "La mesa .")
    assert len(out) == 1
    first_token, first_tag = out[0].pairs[0]
    assert first_token.surface == "La"
    assert first_tag.code in ("ARTDFS", "PPO3FS")
    assert out[0].pairs[-1][1].code == "."


def test_prepare_sentence_marks_only_the_first_position_initial(toy_corpus):
    """One Token object twice in a sentence, as `parse_vertical` shares
    them: only its first occurrence is sentence initial, so the later one
    keeps the proper-noun guesses."""
    t = Token("Pérez", (-1, -1), KIND_WORD)
    prepared = prepare_sentence([t, Token("vino", (-1, -1), KIND_WORD), t],
                                train(toy_corpus), seed_lexicon())
    proper = {parse_tag("NPAXX"), parse_tag("NPTOS")}
    assert not proper & prepared[0][1].tags
    assert proper <= prepared[2][1].tags


def test_prepare_sentence_is_idempotent_on_workloads():
    """Preparing a prepared sentence's tokens gives it back: split parts,
    which carry their candidates, resolve to their own class.  Every
    sentence of both workloads at seeds 1-3, so the parts of portmanteaux
    and clitic groups, also a part repeated within a sentence, go through
    the type cache keyed by their candidates."""
    sentences = repeated_parts = 0
    for name, seed in itertools.product(("news-stream", "long-sentence"), (1, 2, 3)):
        wl = synth.generate(name, seed)
        model = train(parse_vertical(wl.files["gold.vrt"]).sentences)
        lexicon = parse_lexicon(wl.files["lexicon.tsv"])
        abbreviations = tok.default_abbreviations() | set(wl.files["abbrev.txt"].split())
        for sentence_tokens in tok.iter_sentences(wl.text, abbreviations, wl.multiwords):
            prep = prepare_sentence(sentence_tokens, model, lexicon)
            assert prepare_sentence([t for t, _cls in prep], model, lexicon) == prep
            parts = [(t.surface, t.kind, t.candidates) for t, _cls in prep if t.candidates]
            sentences += 1
            repeated_parts += len(parts) - len(set(parts))
    assert sentences > 400 and repeated_parts > 100, (sentences, repeated_parts)


def test_tag_text_splits_portmanteau_and_enclitics():
    lex = parse_lexicon("vender\tVLINF\nvoy\tVLPI1S\ncasa\tNCFS\n")
    corpus = [sentence(("voy", "VLPI1S"), ("al", "PAL"), ("mercado", "NCMS"))]
    model = train(corpus)
    out = tag_text(model, lex, None, "Voy al mercado a venderlo .")
    tokens = [t for s in out for t, _tag in s.pairs]
    surfaces = [t.surface for t in tokens]
    assert "al" in surfaces
    assert "vender" in surfaces and "lo" in surfaces and "venderlo" not in surfaces
    al = tokens[surfaces.index("al")]
    assert al.kind == "portmanteau-part"
    vender = tokens[surfaces.index("vender")]
    assert vender.kind == "enclitic-part"
    assert vender.origin == ("venderlo", 0)
    lo = tokens[surfaces.index("lo")]
    assert lo.span == vender.span  # split parts share the parent span
    tagged = {t.surface: tag.code for s in out for t, tag in s.pairs}
    assert tagged["lo"] == "PPO3XS"


def test_tag_text_no_enclitic_split_flag():
    lex = parse_lexicon("vender\tVLINF\n")
    model = train([sentence(("casa", "NCFS"))])
    out = tag_text(model, lex, None, "venderlo", enclitic_split=False)
    surfaces = [t.surface for s in out for t, _tag in s.pairs]
    assert surfaces == ["venderlo"]


def test_tag_text_fallback_on_overconstrained(toy_corpus):
    model = train(toy_corpus)
    ruleset = parse_rules("FORBID * *\n")
    out = tag_text(model, seed_lexicon(), ruleset, "La mesa .")
    assert len(out) == 1
    assert out[0].fallback is True
    # single-token sentences have no pairs to constrain
    out2 = tag_text(model, seed_lexicon(), ruleset, "mesa")
    assert out2[0].fallback is False


def test_tag_text_constraint_soundness(toy_corpus):
    model = train(toy_corpus)
    ruleset = parse_rules("FORBID ARTDFS NCFS\nFORBID NC* ADJG?S\n")
    out = tag_text(model, seed_lexicon(), ruleset, "La mesa grande . El libro .")
    for s in out:
        if s.fallback:
            continue
        assert ruleset.validate_sequence(list(s.tags)) == []


def test_tag_text_jobs_deterministic(toy_corpus):
    model = train(toy_corpus)
    text = "La mesa . La mano grande . Come bien . Nada más ."
    seq = tag_text(model, seed_lexicon(), None, text, jobs=1)
    par = tag_text(model, seed_lexicon(), None, text, jobs=4)
    assert seq == par


def test_tag_text_repeated_runs_identical(toy_corpus):
    model = train(toy_corpus)
    text = "¿Dónde está Juan? La mesa ."
    a = tag_text(model, seed_lexicon(), None, text)
    b = tag_text(model, seed_lexicon(), None, text)
    assert a == b
