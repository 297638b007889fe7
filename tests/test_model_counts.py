"""The counts model file: exact round trip, v1 compatibility, loader checks."""

import math
import random

import pytest

from spantag.corpus_io import VerticalDocument, format_vertical
from spantag.errors import ModelFormatError, SmoothingError, TaggingError
from spantag.lexicon import seed_lexicon
from spantag.tagger import (
    COUNTS_MARKER,
    END,
    START,
    UNKNOWN,
    HmmModel,
    load_model,
    model_from_text,
    model_to_counts_text,
    model_to_text,
    save_model,
    tag_text,
    train,
)
from spantag.tagset import load_registry

from conftest import sentence

TAG_POOL = ("ARTDFS", "NCFS", "NCMP", "ADJGFS", "VLPI3S", "PREP", "CC", "ADVN", ".", ",")


def random_corpus(rng, n_sentences=60):
    forms = [f"w{i}" for i in range(40)] + ["la", "Mesa", "ñu", "é"]
    return [
        sentence(*((rng.choice(forms), rng.choice(TAG_POOL)) for _ in range(rng.randrange(1, 12))))
        for _ in range(n_sentences)
    ]


def assert_same_model(loaded, model):
    assert loaded.transitions == model.transitions
    assert loaded.emissions == model.emissions
    assert [list(r) for r in loaded.transitions.values()] == [list(r) for r in model.transitions.values()]
    assert [list(r) for r in loaded.emissions.values()] == [list(r) for r in model.emissions.values()]
    assert list(loaded.transitions) == list(model.transitions)
    assert list(loaded.emissions) == list(model.emissions)
    assert loaded.tag_counts == model.tag_counts
    assert loaded.vocab == model.vocab
    assert loaded.transition_counts == model.transition_counts
    assert loaded.emission_counts == model.emission_counts
    codes = load_registry().codes()
    assert [loaded.prior(c) for c in codes] == [model.prior(c) for c in codes]
    assert (loaded.kt, loaded.ke, loaded.corpus_name, loaded.token_count) == (
        model.kt, model.ke, model.corpus_name, model.token_count
    )


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_counts_round_trip_is_exact(toy_corpus, tmp_path, seed):
    corpus = toy_corpus if seed is None else random_corpus(random.Random(seed))
    model = train(corpus, kt=0.3, ke=0.07, corpus_name="toy")
    path = tmp_path / "m.model"
    save_model(model, path)
    assert path.read_text(encoding="utf-8").splitlines()[0] == COUNTS_MARKER
    assert_same_model(load_model(path), model)


def test_saved_model_holds_one_row_per_seen_pair(tmp_path):
    model = train(random_corpus(random.Random(4)))
    path = tmp_path / "m.model"
    save_model(model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if line.count("\t") == 2]
    assert len(rows) == len(model.transition_counts) + len(model.emission_counts)
    assert len(lines) == len(rows) + 4 + 4 + len(model.tag_counts)  # marker, headers, META
    assert all(int(row.split("\t")[2]) > 0 for row in rows)


def test_v1_file_still_loads_and_tags_alike(tmp_path):
    model = train(random_corpus(random.Random(5)) + [
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
    ])
    v1_path, counts_path = tmp_path / "v1.model", tmp_path / "counts.model"
    v1_path.write_text(model_to_text(model), encoding="utf-8")
    save_model(model, counts_path)
    from_v1, from_counts = load_model(v1_path), load_model(counts_path)
    assert from_v1.transition_counts == {}
    text = "La mesa w3 w7 . w1 , ñu é desconocida . Mesa w9 w2 w11 ."

    def tagged(m):
        return format_vertical(VerticalDocument(sentences=tag_text(m, seed_lexicon(), None, text)))

    assert tagged(from_v1) == tagged(from_counts) == tagged(model)


def test_save_model_from_rows_writes_v1(toy_corpus, tmp_path):
    trained = train(toy_corpus)
    model = HmmModel(
        transitions=trained.transitions, emissions=trained.emissions,
        tag_counts=trained.tag_counts, vocab=trained.vocab, kt=trained.kt, ke=trained.ke,
    )
    path = tmp_path / "rows.model"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert text == model_to_text(model)
    loaded = load_model(path)
    assert loaded.tag_counts == trained.tag_counts
    for context, row in trained.transitions.items():
        assert loaded.transitions[context] == pytest.approx(row, rel=1e-12)
    save_model(loaded, path)  # a model loaded from v1 has no counts either
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("seed", [1, 2])
def test_train_rows_are_the_add_k_formula(seed):
    """Every entry, seen or not, is the float (n + k) / (total + k * size),
    in registry (transitions) and sorted-form (emissions) order."""
    model = train(random_corpus(random.Random(seed)), kt=0.3, ke=0.07)
    codes = list(load_registry().codes())
    seen_tags = [c for c in codes if c in model.tag_counts]
    outcomes = codes + [END]
    for context in [START] + seen_tags:
        total = sum(n for (c, _o), n in model.transition_counts.items() if c == context)
        denom = total + 0.3 * len(outcomes)
        want = {o: (model.transition_counts.get((context, o), 0) + 0.3) / denom for o in outcomes}
        assert list(model.transitions[context].items()) == list(want.items())
    forms = sorted(model.vocab) + [UNKNOWN]
    for code in seen_tags:
        denom = model.tag_counts[code] + 0.07 * len(forms)
        want = {f: (model.emission_counts.get((code, f), 0) + 0.07) / denom for f in forms}
        assert list(model.emissions[code].items()) == list(want.items())
    assert list(model.transitions) == [START] + seen_tags
    assert list(model.emissions) == seen_tags


def test_train_rejects_the_unknown_symbol_as_a_form():
    with pytest.raises(TaggingError, match="reserved") as err:
        train([sentence(("la", "ARTDFS"), (UNKNOWN, "NCFS"), (".", "."))])
    assert UNKNOWN in str(err.value)


# ------------------------------------------------------- counts-loader checks

# The toy corpus's counts file, numbered:
#  1 COUNTS             9 EMISSIONS          17 tokens 10
#  2 TRANSITIONS       10 .  .  3            18 kt 0.5
#  3 <s> ARTDFS 3      11 ADJGFS grande 1    19 ke 0.1
#  4 . </s> 3          12 ARTDFS la 3        20 count.. 3
#  5 ADJGFS . 1        13 NCFS mano 1        21 count.ADJGFS 1
#  6 ARTDFS NCFS 3     14 NCFS mesa 2        22 count.ARTDFS 3
#  7 NCFS . 2          15 META               23 count.NCFS 3
#  8 NCFS ADJGFS 1     16 corpus

def toy_counts_lines(toy_corpus):
    lines = model_to_counts_text(train(toy_corpus)).splitlines()
    assert lines[5] == "ARTDFS\tNCFS\t3" and lines[22] == "count.NCFS\t3"
    return lines


BAD_LINES = {
    # check: (line number, replacement, expected error line)
    "two-cells": (6, "ARTDFS\tNCFS", 6),
    "four-cells": (6, "ARTDFS\tNCFS\t3\t1", 6),
    "count-zero": (6, "ARTDFS\tNCFS\t0", 6),
    "count-negative": (6, "ARTDFS\tNCFS\t-1", 6),
    "count-fraction": (6, "ARTDFS\tNCFS\t1.5", 6),
    "count-nan": (6, "ARTDFS\tNCFS\tnan", 6),
    "count-signed": (6, "ARTDFS\tNCFS\t+3", 6),
    "count-non-ascii-digit": (6, "ARTDFS\tNCFS\t\uff13", 6),
    "count-2**63": (6, "ARTDFS\tNCFS\t9999999999999999999", 6),
    "count-5000-digits": (6, "ARTDFS\tNCFS\t" + "9" * 5000, 6),
    "transition-context-unknown": (6, "BADTAG\tNCFS\t3", 6),
    "transition-context-end": (6, "</s>\tNCFS\t3", 6),
    "transition-outcome-unknown": (6, "ARTDFS\tBADTAG\t3", 6),
    "transition-outcome-start": (6, "ARTDFS\t<s>\t3", 6),
    "emission-tag-unknown": (12, "BADTAG\tla\t3", 12),
    "emission-tag-start": (12, "<s>\tla\t3", 12),
    "emission-form-unk": (12, f"ARTDFS\t{UNKNOWN}\t3", 12),
    "duplicate-transition": (7, "ARTDFS\tNCFS\t3", 7),
    "duplicate-emission": (13, "NCFS\tmesa\t1", 14),
    "outgoing-not-emitted": (8, "NCFS\tADJGFS\t2", 7),
    "emitted-not-count": (23, "count.NCFS\t4", 23),
    "emitting-tag-without-count": (21, "", 11),
    "starts-not-ends": (3, "<s>\tARTDFS\t4", 3),
    "tokens-not-tag-total": (17, "tokens\t11", 17),
    "kt-nan": (18, "kt\tnan", 18),
    "ke-zero": (19, "ke\t0", 19),
    "meta-count-not-integer": (22, "count.ARTDFS\tx", 22),
    "data-before-header": (2, "<s>\tARTDFS\t3", 2),
}


@pytest.mark.parametrize(
    "line_no, replacement, error_line", BAD_LINES.values(), ids=BAD_LINES.keys()
)
def test_counts_loader_rejects_bad_line(toy_corpus, line_no, replacement, error_line):
    lines = toy_counts_lines(toy_corpus)
    lines[line_no - 1] = replacement
    with pytest.raises(ModelFormatError) as err:
        model_from_text("\n".join(lines) + "\n")
    assert err.value.line == error_line


def test_counts_loader_requires_kt(toy_corpus):
    lines = toy_counts_lines(toy_corpus)
    lines[17] = ""
    with pytest.raises(ModelFormatError, match="'kt'"):
        model_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("writer", [model_to_text, model_to_counts_text])
def test_huge_meta_count_rejected(toy_corpus, writer):
    """A count too large to turn into a float is a format error in either
    format, not an OverflowError."""
    text = writer(train(toy_corpus))
    lines = text.splitlines()
    index = lines.index("count.NCFS\t3")
    lines[index] = "count.NCFS\t" + "9" * 400
    with pytest.raises(ModelFormatError) as err:
        model_from_text("\n".join(lines) + "\n")
    assert err.value.line == index + 1


def mutate(rng, lines):
    """One single-line edit of a counts file."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    cells = lines[i].split("\t")
    kind = rng.randrange(8)
    if kind == 0 and len(cells) > 1:
        del cells[rng.randrange(len(cells))]
    elif kind == 1:
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(["1", "x", "NCFS", ""]))
    elif kind == 2:
        digits = [k for k, ch in enumerate(lines[i]) if ch.isdigit()]
        if digits:
            k = rng.choice(digits)
            lines[i] = lines[i][:k] + rng.choice("0123456789") + lines[i][k + 1:]
            return lines
    elif kind == 3:
        cells[-1] = rng.choice(["0", "-1", "1.5", "nan"])
    elif kind == 4:
        cells[rng.randrange(len(cells))] = rng.choice(["BADTAG", "NCFQ", "<s>", "</s>", UNKNOWN])
    elif kind == 5:
        lines.insert(i, lines[i])
        return lines
    elif kind == 6:
        del lines[i]
        return lines
    else:
        cells[-1] = str(rng.randrange(1, 6))
    lines[i] = "\t".join(cells)
    return lines


def test_counts_loader_fuzz_fails_only_with_format_errors():
    rng = random.Random(7)
    model = train(random_corpus(random.Random(8), n_sentences=12))
    lines = model_to_counts_text(model).splitlines()
    loaded = rejected = 0
    for _ in range(600):
        text = "\n".join(mutate(rng, lines)) + "\n"
        try:
            reloaded = model_from_text(text)
        except ModelFormatError:
            rejected += 1
            continue
        loaded += 1
        assert_same_model(model_from_text(model_to_counts_text(reloaded)), reloaded)
    assert loaded > 20 and rejected > 300


# ------------------------------------------- the section scan of both formats

def scan_case(lines, case):
    """Edited lines, expected error line and message of one scan check."""
    header = lines.index("TRANSITIONS")
    row = header + 1
    kt = lines.index("kt\t0.5")

    def replaced(index, line):
        return lines[:index] + [line] + lines[index + 1:], index + 1

    edited, error_line = {
        "data-before-header": (lines[:header] + ["<s>\tARTDFS\t3"] + lines[header:], header + 1),
        "meta-one-cell": replaced(kt, "kt"),
        "meta-three-cells": replaced(kt, "kt\t0.5\t1"),
        "row-two-cells": replaced(row, lines[row].rsplit("\t", 1)[0]),
        "row-four-cells": replaced(row, lines[row] + "\t1"),
    }[case]
    message = {
        "data-before-header": "data before the first section header",
        "meta-one-cell": "META rows must be 'key<TAB>value'",
        "meta-three-cells": "META rows must be 'key<TAB>value'",
    }.get(case, "rows must be 'context<TAB>outcome<TAB>")
    return edited, error_line, message


@pytest.mark.parametrize("case", [
    "data-before-header", "meta-one-cell", "meta-three-cells", "row-two-cells", "row-four-cells",
])
@pytest.mark.parametrize("writer", [model_to_text, model_to_counts_text])
def test_section_scan_rejects_bad_layout(toy_corpus, writer, case):
    """Both formats go through one scan: the same error at the same line."""
    edited, error_line, message = scan_case(writer(train(toy_corpus)).splitlines(), case)
    with pytest.raises(ModelFormatError, match=message) as err:
        model_from_text("\n".join(edited) + "\n")
    assert err.value.line == error_line


@pytest.mark.parametrize("writer", [model_to_text, model_to_counts_text])
def test_section_scan_skips_blank_lines(toy_corpus, writer):
    lines = writer(train(toy_corpus, corpus_name="toy")).splitlines()
    spaced = [lines[0]] + [part for line in lines[1:] for part in ("", " \t", line)]
    assert_same_model(model_from_text("\n".join(spaced) + "\n"),
                      model_from_text("\n".join(lines) + "\n"))


def test_v1_loader_fuzz_fails_only_with_format_errors():
    """Single-line edits of a v1 file either load or raise ModelFormatError."""
    rng = random.Random(9)
    lines = model_to_text(train(random_corpus(random.Random(10), n_sentences=3))).splitlines()
    rejected = 0
    for _ in range(300):
        try:
            model_from_text("\n".join(mutate(rng, lines)) + "\n")
        except ModelFormatError:
            rejected += 1
    assert rejected > 150


# ------------------------------------------ zero or subnormal probabilities

@pytest.mark.parametrize("constant", ["kt", "ke"])
def test_train_rejects_a_constant_that_underflows(toy_corpus, constant):
    with pytest.raises(ModelFormatError, match=f"{constant} 1e-320 is too small"):
        train(toy_corpus, **{constant: 1e-320})


def test_counts_loader_rejects_a_kt_that_underflows(toy_corpus):
    lines = toy_counts_lines(toy_corpus)
    lines[17] = "kt\t1e-320"
    with pytest.raises(ModelFormatError, match="kt 1e-320 is too small"):
        model_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("constant", ["kt", "ke"])
def test_train_rejects_a_constant_that_overflows(toy_corpus, constant):
    with pytest.raises(ModelFormatError, match=rf"{constant} 1e\+308 is too large"):
        train(toy_corpus, **{constant: 1e308})


@pytest.mark.parametrize("constant", ["kt", "ke"])
def test_counts_loader_rejects_a_constant_that_overflows(toy_corpus, constant):
    lines = toy_counts_lines(toy_corpus)
    lines[lines.index(f"{constant}\t{0.5 if constant == 'kt' else 0.1}")] = f"{constant}\t1e308"
    with pytest.raises(ModelFormatError, match=rf"{constant} 1e\+308 is too large"):
        model_from_text("\n".join(lines) + "\n")


def test_large_constants_that_do_not_overflow_still_train(toy_corpus):
    model = train(toy_corpus, kt=1e300, ke=1e300)
    assert_same_model(model_from_text(model_to_counts_text(model)), model)
    assert math.isclose(model.prior("NCFS"), 1 / len(load_registry()))


# ----------------------------------------------------------- corpus names

@pytest.mark.parametrize("name", ["my\tcorpus", "my\ncorpus", "my\rcorpus", "my\udcffcorpus"])
def test_unstorable_corpus_name_is_rejected(toy_corpus, tmp_path, name):
    path = tmp_path / "toy.model"
    path.write_text("earlier model\n", encoding="utf-8")
    model = train(toy_corpus, corpus_name=name)
    for writer in (model_to_text, model_to_counts_text):
        with pytest.raises(TaggingError, match="corpus name"):
            writer(model)
    with pytest.raises(TaggingError, match="corpus name"):
        save_model(model, path)
    assert path.read_text(encoding="utf-8") == "earlier model\n"


@pytest.mark.parametrize("name", ["my\x0ccorpus", "my\u2028corpus"])
def test_corpus_name_with_other_line_breaks_round_trips(toy_corpus, name):
    """Only LF ends a model file line, so other `str.splitlines` breaks
    are stored and read back, in both formats."""
    model = train(toy_corpus, corpus_name=name)
    for writer in (model_to_text, model_to_counts_text):
        assert model_from_text(writer(model)).corpus_name == name


# ------------------------------------------------------ stored row form

def full_rows(rng, shape, contexts, outcomes):
    """Rows over `outcomes` that sum to 1: all values distinct, add-k shaped
    (one shared smallest value and a few larger ones), or with ties among
    the values above the smallest."""
    rows = {}
    for context in contexts:
        if shape == "distinct":
            weights = [rng.uniform(0.05, 1.0) for _ in outcomes]
        elif shape == "add-k":
            weights = [rng.randrange(1, 6) + 0.5 if rng.random() < 0.1 else 0.5 for _ in outcomes]
        else:
            weights = [rng.choice((1.0, 2.0, 2.0, 3.0)) for _ in outcomes]
        total = math.fsum(weights)
        rows[context] = {o: w / total for o, w in zip(outcomes, weights)}
    return rows


@pytest.mark.parametrize("shape", ["distinct", "add-k", "ties"])
def test_full_rows_come_back_unchanged(shape):
    """Rows given to HmmModel come back from `transitions`/`emissions` with
    the same floats in the same order, and survive a v1 text round trip."""
    rng = random.Random(shape)
    vocab = sorted({f"w{i}" for i in range(30)} | {"la", "Mesa", "ñu", "é"})
    transitions = full_rows(rng, shape, (START,) + TAG_POOL, list(load_registry().codes()) + [END])
    emissions = full_rows(rng, shape, TAG_POOL, vocab + [UNKNOWN])
    if shape == "ties":  # hundreds of outcomes over three values
        assert len(set(transitions[START].values())) == 3
    model = HmmModel(
        transitions=transitions, emissions=emissions, tag_counts={c: 2 for c in TAG_POOL},
        vocab=frozenset(vocab), kt=0.5, ke=0.1,
    )
    for got, want in ((model.transitions, transitions), (model.emissions, emissions)):
        assert [(c, list(row.items())) for c, row in got.items()] == [
            (c, list(row.items())) for c, row in want.items()
        ]
    text = model_to_text(model)
    assert model_to_text(model_from_text(text)) == text


@pytest.mark.parametrize("source", ["trained", "full-rows"])
def test_scores_read_the_stored_rows(source):
    """Every log-probability the decoder reads is the log10 of its row's
    value, seen or not; contexts without a row are uniform."""
    model = train(random_corpus(random.Random(12)), kt=0.3, ke=0.07)
    if source == "full-rows":
        rng = random.Random(13)
        model = HmmModel(
            transitions=full_rows(rng, "distinct", [START, "NCFS"], list(model.transitions[START])),
            emissions=full_rows(rng, "distinct", ["NCFS"], sorted(model.vocab) + [UNKNOWN]),
            tag_counts=model.tag_counts, vocab=model.vocab, kt=0.3, ke=0.07,
        )
    for context, row in model.transitions.items():
        assert [model.transition_logp(context, o) for o in row] == [math.log10(p) for p in row.values()]
    for code, row in model.emissions.items():
        assert [model.emission_logp(code, f) for f in row] == [math.log10(p) for p in row.values()]
        assert model.unknown_prob(code) == row[UNKNOWN]
    n_outcomes = len(load_registry()) + 1
    assert model.transition_logp("NCMS", END) == math.log10(1 / n_outcomes)
    assert model.unknown_prob("NCMS") == 1 / (len(model.vocab) + 1)


@pytest.mark.parametrize("value", [0.0, 1e-320])
def test_full_row_with_a_zero_or_subnormal_value_is_rejected(toy_corpus, value):
    """The row still sums to 1: the lost mass moved to another outcome."""
    model = train(toy_corpus)
    transitions = model.transitions
    row = transitions["ARTDFS"]
    row["NCFS"] += row["NCMS"] - value
    row["NCMS"] = value
    with pytest.raises(ModelFormatError, match="'ARTDFS' holds a zero or subnormal"):
        HmmModel(transitions=transitions, emissions=model.emissions, tag_counts=model.tag_counts,
                 vocab=model.vocab, kt=model.kt, ke=model.ke)


def test_counts_model_stores_only_seen_pairs():
    """A trained model keeps one probability per seen pair and one unseen
    value per row, however large the registry and the vocabulary."""
    model = train(random_corpus(random.Random(11)))
    stored = [seen for _unseen, seen in model._transitions.values()]
    assert sum(map(len, stored)) == len(model.transition_counts)
    stored = [seen for _unseen, seen in model._emissions.values()]
    assert sum(map(len, stored)) == len(model.emission_counts)


# ------------------------------------------------------- smoothing constants

@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("constant", ["kt", "ke"])
def test_train_and_constructor_reject_a_bad_constant(toy_corpus, constant, value):
    message = f"{constant} must be a finite number above 0"
    with pytest.raises(SmoothingError, match=message):
        train(toy_corpus, **{constant: value})
    with pytest.raises(SmoothingError, match=message):
        HmmModel(transitions={}, emissions={}, tag_counts={}, vocab=frozenset(),
                 **{"kt": 0.5, "ke": 0.1, constant: value})
