"""Lexicon, ambiguity classes and the unknown-word guesser."""

import random

import pytest

from spantag.errors import EmptyInput, LexiconParseError, UnknownTag
from spantag.lexicon import (
    CLOSED_CATEGORIES,
    AmbiguityClass,
    ambiguity_report,
    guess_unknown,
    load_lexicon,
    parse_lexicon,
    seed_lexicon,
)
from spantag.tagset import decompose, load_registry, parse_tag


def test_ambiguity_class_rejects_empty():
    with pytest.raises(ValueError):
        AmbiguityClass(frozenset())


def test_ambiguity_class_registry_order():
    cls = AmbiguityClass.of("PAL", "CSUBI")
    assert cls.codes() == ("CSUBI", "PAL")  # CSUBI precedes PAL in the listing
    assert cls.signature() == "CSUBI,PAL"
    assert parse_tag("PAL") in cls and parse_tag("NCFS") not in cls


def test_ambiguity_class_order_is_fixed_without_changing_equality():
    registry = load_registry()
    rng = random.Random(5)
    for _ in range(200):
        tags = frozenset(rng.sample([e.tag for e in registry], rng.randrange(1, 8)))
        cls = AmbiguityClass(tags)
        assert cls.sorted_tags() == tuple(sorted(tags, key=registry.index))
        assert tuple(cls) == cls.sorted_tags()
        same = AmbiguityClass(frozenset(reversed(cls.sorted_tags())))
        assert same == cls and hash(same) == hash(cls)
        assert repr(cls) == f"AmbiguityClass(tags={tags!r})"


def test_load_simple_entry(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("mesa\tNCFS\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.lookup("mesa").codes() == ("NCFS",)


def test_empty_file_gives_seed(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == len(seed_lexicon())
    assert lex.lookup("al") is not None


def test_unknown_tag_carries_line():
    with pytest.raises(UnknownTag) as err:
        parse_lexicon("mesa\tNCFS\nx\tBADTAG\n")
    assert err.value.line == 2
    assert err.value.code == "BADTAG"


def test_malformed_line():
    with pytest.raises(LexiconParseError) as err:
        parse_lexicon("mesa NCFS\n")  # space, no tab
    assert err.value.line == 1


def test_comments_and_blanks_ignored():
    lex = parse_lexicon("# header\n\nmesa\tNCFS\n", include_seed=False)
    assert len(lex) == 1


def test_duplicate_wordforms_unioned():
    lex = parse_lexicon("mesa\tNCFS\nmesa\tNCFP\n", include_seed=False)
    assert lex.lookup("mesa").codes() == ("NCFP", "NCFS")


def test_user_entries_union_with_seed():
    lex = parse_lexicon("la\tNCFS\n")
    assert set(lex.lookup("la").codes()) >= {"ARTDFS", "PPO3FS", "NCFS"}


def test_seed_closed_class_lookups():
    lex = seed_lexicon()
    assert lex.lookup("al").codes() == ("CSUBI", "PAL")
    assert set(lex.lookup("la").codes()) >= {"ARTDFS", "PPO3FS"}
    assert set(lex.lookup("lo").codes()) >= {"ARTDNS", "PPO3XS"}
    assert lex.lookup("se").codes() == ("SE",)
    assert lex.lookup("Sr.").codes() == ("TRATM",)
    assert lex.lookup("cada").codes() == ("QUDX",)
    assert lex.lookup("zzgrk") is None


def test_lookup_lowercase_fallback():
    lex = seed_lexicon()
    assert lex.lookup("La") == lex.lookup("la")
    assert "La" in lex and "zzgrk" not in lex
    assert lex.lookup("Dónde").codes() == ("ADVLIN",)


def test_seed_registry_closure():
    registry = load_registry()
    for _form, cls in seed_lexicon().items():
        for tag in cls:
            assert tag.code in registry


def test_merge_monotonicity():
    rng = random.Random(5)
    codes = ["NCFS", "NCFP", "NCMS", "ADJGFS", "VLINF", "ADVN"]
    base_lines = []
    extra_lines = []
    for i in range(60):
        form = f"palabra{rng.randrange(20)}"
        code = rng.choice(codes)
        (base_lines if i < 30 else extra_lines).append(f"{form}\t{code}")
    base = parse_lexicon("\n".join(base_lines), include_seed=False)
    merged = parse_lexicon("\n".join(base_lines + extra_lines), include_seed=False)
    for form, cls in base.items():
        assert cls.tags <= merged.lookup(form).tags


# ----------------------------------------------------------------- guesser

def test_guess_mente_adverb():
    assert guess_unknown("salvajemente").codes() == ("ADVN",)
    assert guess_unknown("rápidamente").codes() == ("ADVN",)


def test_guess_plural_es():
    assert "NCMP" in guess_unknown("ordenadores").codes()


def test_guess_superlative():
    assert guess_unknown("grandísimo").codes() == ("ADJSMS",)
    assert guess_unknown("grandísimas").codes() == ("ADJSFP",)


def test_guess_derivational_nouns():
    assert guess_unknown("confederación").codes() == ("NCFS",)
    assert guess_unknown("confederaciones").codes() == ("NCFP",)


def test_guess_verb_forms():
    assert guess_unknown("cantar").codes() == ("VLINF",)
    assert guess_unknown("comiendo").codes() == ("VLGER",)
    assert guess_unknown("compradas").codes() == ("VLPXFP",)


def test_guess_gender_number_endings():
    assert set(guess_unknown("libros").codes()) == {"NCMP", "ADJGMP"}
    assert set(guess_unknown("tienda").codes()) == {"NCFS", "ADJGFS"}


def test_guess_fallback():
    assert set(guess_unknown("xyzq").codes()) == {"NCMS", "NCFS", "ADJGMS", "ADJGFS"}


def test_guess_proper_noun_heuristic():
    mid = guess_unknown("Rodríguez", sentence_initial=False)
    assert {"NPAXX", "NPTOS"} <= set(mid.codes())
    initial = guess_unknown("Rodríguez", sentence_initial=True)
    assert "NPAXX" not in initial.codes()


def test_guess_empty_raises():
    with pytest.raises(EmptyInput):
        guess_unknown("")


def test_guess_soundness_closed_classes():
    """Guesses never land in closed categories, whatever the input."""
    rng = random.Random(31)
    alphabet = "abcdefghijklmnñopqrstuvwxyzáéíóú"
    for _ in range(400):
        n = rng.randrange(1, 12)
        form = "".join(rng.choice(alphabet) for _ in range(n))
        if rng.random() < 0.3:
            form = form.capitalize()
        cls = guess_unknown(form, sentence_initial=rng.random() < 0.5)
        for tag in cls:
            assert decompose(tag).category not in CLOSED_CATEGORIES


def test_guess_deterministic():
    for form in ("casa", "Grandes", "vivir"):
        assert guess_unknown(form).codes() == guess_unknown(form).codes()


# ------------------------------------------------------------------ report

def test_report_groups_seed_portmanteau():
    rows = ambiguity_report(seed_lexicon())
    by_signature = {sig: (count, forms) for sig, count, forms in rows}
    assert "CSUBI,PAL" in by_signature
    count, forms = by_signature["CSUBI,PAL"]
    assert "al" in forms


def test_report_single_entry():
    lex = parse_lexicon("mesa\tNCFS\n", include_seed=False)
    assert ambiguity_report(lex) == [("NCFS", 1, ("mesa",))]


def test_report_groups_shared_class():
    lex = parse_lexicon("mesa\tNCFS\nmano\tNCFS\nsol\tNCMS\n", include_seed=False)
    rows = ambiguity_report(lex)
    assert rows[0] == ("NCFS", 2, ("mano", "mesa"))
    assert rows[1] == ("NCMS", 1, ("sol",))


def test_report_sorted_by_count_then_signature():
    lex = parse_lexicon(
        "a1\tNCFS\nb1\tNCMS\na2\tNCFS\nb2\tNCMS\nc\tADVN\n", include_seed=False
    )
    rows = ambiguity_report(lex)
    assert [r[0] for r in rows] == ["NCFS", "NCMS", "ADVN"]
