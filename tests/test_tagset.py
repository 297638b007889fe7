"""Registry, codec and feature-export tests."""

import random
import string

import pytest

from spantag import tagset
from spantag.errors import NoSuchTag, UnknownTag
from spantag.tagset import (
    FeatureBundle,
    REGISTRY_SIZE,
    Registry,
    Tag,
    compose,
    decompose,
    export_tsv,
    format_features,
    list_by,
    load_registry,
    parse_features,
    parse_tag,
)


def test_registry_size_matches_checked_constant():
    registry = load_registry()
    assert len(registry) == REGISTRY_SIZE == 492


def test_load_registry_idempotent():
    assert load_registry() is load_registry()


def test_code_set_is_the_registry_codes():
    """`Tag` validates against a set read from the table apart from the
    registry build; both must see the same codes."""
    assert tagset._code_set() == frozenset(load_registry().codes())


SPOT_TAGS = [
    "IQUEST", "VHPI3E", "PAL", "PDEL", "SE", "CQUE", "QUDF", "CARDGU",
    "NPAXX", "VLPPFP", "PPXT2S", "UMFX",
]


@pytest.mark.parametrize("code", SPOT_TAGS)
def test_spot_tag_present(code):
    assert code in load_registry()


def test_descriptions_and_flags():
    registry = load_registry()
    assert "question mark (inverted)" in registry.entry("IQUEST").description
    assert registry.entry("VHPI3E").features.existential is True
    assert registry.entry("VHPI3S").features.existential is False


def test_codes_unique_and_ordered():
    registry = load_registry()
    codes = registry.codes()
    assert len(set(codes)) == len(codes)
    # punctuation block opens the listing
    assert codes[0] == "IQUEST"
    assert codes[1] == "IEXCL"
    assert registry.index("IQUEST") == 0


def test_parse_tag_known():
    assert parse_tag("NCFS").code == "NCFS"
    assert parse_tag("QUDF").code == "QUDF"
    assert parse_tag(",").code == ","


def test_parse_tag_unknown():
    with pytest.raises(UnknownTag) as err:
        parse_tag("XQ9")
    assert err.value.code == "XQ9"
    with pytest.raises(UnknownTag):
        Tag("ncfs")  # case sensitive


def test_parse_tag_fuzz_never_crashes():
    rng = random.Random(20240)
    alphabet = string.ascii_letters + string.digits + ".,;:!?()-\"' "
    registry = load_registry()
    for _ in range(2000):
        code = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 9)))
        try:
            tag = parse_tag(code)
        except UnknownTag:
            continue
        assert tag.code in registry


def test_decompose_examples():
    b = decompose(parse_tag("VLPI3S"))
    assert (b.category, b.verb_class, b.mood, b.tense, b.person, b.number) == (
        "verb", "lexical", "indicative", "present", "third", "singular"
    )

    b = decompose(parse_tag("DMRPNS"))
    assert b.category == "demonstrative"
    assert b.pronominal_function == "pronominal"
    assert (b.gender, b.number, b.deixis) == ("neuter", "singular", "remote")

    b = decompose(parse_tag("PREPN"))
    assert (b.category, b.polarity) == ("preposition", "negative")

    b = decompose(parse_tag("VHPI3E"))
    assert b.existential is True
    assert (b.verb_class, b.tense, b.mood, b.person, b.number) == (
        "haber", "present", "indicative", "third", "singular"
    )


def test_verb_invariants():
    for entry in load_registry():
        b = entry.features
        if b.category == "verb":
            assert b.verb_class != "none"
        else:
            assert b.verb_class == "none"
            assert b.tense == "none"


def test_compose_roundtrip_exhaustive():
    for entry in load_registry():
        assert compose(decompose(entry.tag)) == entry.tag


def test_compose_from_built_bundle():
    bundle = FeatureBundle(category="verb", verb_class="estar", mood="gerund")
    assert compose(bundle).code == "VEGER"


def test_compose_no_such_tag():
    # haber has no imperative cells anywhere in the inventory
    assert not list_by(
        lambda b: b.verb_class == "haber" and b.mood == "imperative"
    )
    bundle = FeatureBundle(
        category="verb", verb_class="haber", mood="imperative",
        person="second", number="singular",
    )
    with pytest.raises(NoSuchTag):
        compose(bundle)


def test_bundle_injectivity_exhaustive():
    seen = {}
    for entry in load_registry():
        assert entry.features not in seen, (
            f"{entry.tag.code} and {seen[entry.features]} share a bundle"
        )
        seen[entry.features] = entry.tag.code


def test_format_features_fixed_order():
    assert format_features(parse_tag("ARTDNS")) == (
        "category=article|gender=neuter|number=singular|subcategory=definite"
    )
    assert "existential=true" in format_features(parse_tag("VHPI3E"))
    # category always leads
    for code in ("NCFS", "VLGER", "PPOSPS", ","):
        assert format_features(parse_tag(code)).startswith("category=")


def test_format_features_roundtrip_all_tags():
    for entry in load_registry():
        text = format_features(entry.tag)
        assert parse_features(text) == entry.features


def test_parse_features_rejects_garbage():
    with pytest.raises(ValueError):
        parse_features("gender=neuter")  # no category
    with pytest.raises(ValueError):
        parse_features("category=article|nonsense")
    with pytest.raises(ValueError):
        parse_features("category=article|flavour=mint")


@pytest.mark.parametrize("text", [
    "category=bogus",
    "category=bogus|gender=x",
    "category=noun|gender=femenine",
    "category=noun|existential=yes",
    "category=noun|existential=True",
    "category=noun|verb-class=",
])
def test_parse_features_rejects_value_outside_its_set(text):
    with pytest.raises(ValueError):
        parse_features(text)


@pytest.mark.parametrize("text, attribute", [
    ("category=article|gender=feminine|gender=neuter|number=singular|subcategory=definite",
     "gender"),
    ("category=article|category=article|gender=feminine", "category"),
])
def test_parse_features_rejects_a_repeated_attribute(text, attribute):
    """`format_features` never writes an attribute twice, so a second
    clause is an error rather than a silent override."""
    with pytest.raises(ValueError, match=f"repeated feature attribute '{attribute}'"):
        parse_features(text)


def test_list_by():
    assert [t.code for t in list_by(lambda b: b.category == "portmanteau")] == ["PAL", "PDEL"]
    assert [t.code for t in list_by(lambda b: b.category == "title-noun")] == ["TRATF", "TRATM"]
    assert list_by(lambda b: b.category == "verb" and b.tense == "imperfect" and b.mood == "imperative") == []


# ---------------------------------------------------------------- paradigms

FINITE_CELLS = [
    (tense, "indicative")
    for tense in ("present", "imperfect", "future", "conditional", "preterite")
] + [(tense, "subjunctive") for tense in ("present", "imperfect", "future")]

PERSON_NUMBER = [
    (p, n) for p in ("first", "second", "third") for n in ("singular", "plural")
]


def expected_cells(verb_class):
    """Paradigm cells per verb class, derived from the inventory layout."""
    cells = set()
    for tense, mood in FINITE_CELLS:
        for person, number in PERSON_NUMBER:
            cells.add((tense, mood, person, number, "underspecified", False))
    if verb_class != "haber":
        for number in ("singular", "plural"):
            cells.add(("none", "imperative", "second", number, "underspecified", False))
    for mood in ("gerund", "infinitive"):
        cells.add(("none", mood, "underspecified", "underspecified", "underspecified", False))
    if verb_class in ("haber", "lexical"):
        for gender in ("feminine", "masculine"):
            for number in ("singular", "plural"):
                cells.add(("none", "past-participle", "underspecified", number, gender, False))
    else:
        cells.add(("none", "past-participle", "underspecified", "underspecified", "underspecified", False))
    if verb_class == "lexical":
        for gender in ("feminine", "masculine"):
            for number in ("singular", "plural"):
                cells.add(("none", "present-participle", "underspecified", number, gender, False))
    if verb_class == "haber":
        cells.add(("present", "indicative", "third", "singular", "underspecified", True))
    return cells


@pytest.mark.parametrize("verb_class", ["estar", "haber", "ser", "lexical", "modal"])
def test_verb_paradigm_regularity(verb_class):
    found = {
        (b.tense, b.mood, b.person, b.number, b.gender, b.existential)
        for b in (e.features for e in load_registry())
        if b.category == "verb" and b.verb_class == verb_class
    }
    assert found == expected_cells(verb_class)


# ------------------------------------------------- name-grammar cross-check
# Verb tag names follow V + class letter + form code.  The registry table
# is the source of truth; this grammar exists only to cross-check it.

CLASS_LETTER = {"E": "estar", "H": "haber", "S": "ser", "L": "lexical", "M": "modal"}
TENSE_LETTER = {"P": "present", "I": "imperfect", "F": "future", "C": "conditional", "X": "preterite"}
MOOD_LETTER = {"I": "indicative", "S": "subjunctive"}
PERSON_DIGIT = {"1": "first", "2": "second", "3": "third"}
NUMBER_LETTER = {"S": "singular", "P": "plural"}
GENDER_LETTER = {"F": "feminine", "M": "masculine"}


def bundle_from_name(code):
    verb_class = CLASS_LETTER[code[1]]
    rest = code[2:]
    base = dict(category="verb", verb_class=verb_class)
    if rest == "GER":
        return FeatureBundle(mood="gerund", **base)
    if rest == "INF":
        return FeatureBundle(mood="infinitive", **base)
    if rest == "PX":
        return FeatureBundle(mood="past-participle", **base)
    if len(rest) == 4 and rest[:2] == "PX":
        return FeatureBundle(
            mood="past-participle", gender=GENDER_LETTER[rest[2]],
            number=NUMBER_LETTER[rest[3]], **base,
        )
    if len(rest) == 4 and rest[:2] == "PP":
        return FeatureBundle(
            mood="present-participle", gender=GENDER_LETTER[rest[2]],
            number=NUMBER_LETTER[rest[3]], **base,
        )
    if len(rest) == 4 and rest[:2] == "PM":
        return FeatureBundle(
            mood="imperative", person=PERSON_DIGIT[rest[2]],
            number=NUMBER_LETTER[rest[3]], **base,
        )
    assert len(rest) == 4, code
    tense = TENSE_LETTER[rest[0]]
    mood = MOOD_LETTER[rest[1]]
    person = PERSON_DIGIT[rest[2]]
    if rest[3] == "E":
        return FeatureBundle(
            tense=tense, mood=mood, person=person, number="singular",
            existential=True, **base,
        )
    return FeatureBundle(
        tense=tense, mood=mood, person=person, number=NUMBER_LETTER[rest[3]], **base,
    )


def test_verb_name_grammar_cross_check():
    for entry in load_registry():
        if entry.features.category != "verb":
            continue
        predicted = bundle_from_name(entry.tag.code)
        assert predicted == entry.features, entry.tag.code
        assert compose(predicted) == entry.tag


# --------------------------------------------------------------------- TSV

def test_export_tsv_shape():
    text = export_tsv()
    lines = text.splitlines()
    assert len(lines) == REGISTRY_SIZE + 1
    assert lines[0].startswith("TAG\tCATEGORY\t")
    assert lines[0].split("\t")[-2:] == ["DESCRIPTION", "EXAMPLES"]
    assert text.endswith("\n")
    for line in lines[1:]:
        assert len(line.split("\t")) == 20


def test_export_tsv_matches_packaged_copy():
    from importlib import resources

    packaged = (
        resources.files("spantag").joinpath("data/tagset.tsv").read_text("utf-8")
    )
    assert packaged == export_tsv()


def test_export_tsv_of_given_entries():
    registry = load_registry()
    header, *rows = export_tsv().splitlines(keepends=True)
    assert export_tsv(registry) == export_tsv()
    assert export_tsv([]) == header
    picked = [registry.entry("PDEL"), registry.entry("VHPI3E")]
    assert export_tsv(picked) == header + rows[registry.index("PDEL")] + rows[registry.index("VHPI3E")]


def test_registry_rejects_duplicate_codes():
    registry = load_registry()
    entry = registry.entries[0]
    with pytest.raises(Exception):
        Registry((entry, entry))
