"""Tokenization, splitting and sentence segmentation tests."""

import random
import tracemalloc

import pytest

from spantag.errors import TaggingError
from spantag.lexicon import parse_lexicon, seed_lexicon
from spantag.tagset import parse_tag
from spantag.tokenizer import (
    _CLITICS_ORDERED,
    CLITIC_TAGS,
    KIND_ABBREVIATION,
    KIND_CODE,
    KIND_ENCLITIC_PART,
    KIND_NUMBER,
    KIND_PORTMANTEAU_PART,
    KIND_PUNCTUATION,
    KIND_WORD,
    SplitDecision,
    Token,
    _enclitic_host_codes,
    _host_tags,
    default_abbreviations,
    expand_token,
    load_abbreviations,
    load_multiwords,
    merge_multiwords,
    sentence_split,
    split_enclitics,
    split_portmanteau,
    tokenize,
)

import synth


def word(surface):
    return Token(surface=surface, span=(0, len(surface.encode()) ), kind=KIND_WORD)


def reconstruct(text, tokens):
    """Rebuild the input from spans; gaps must be pure whitespace."""
    data = text.encode("utf-8")
    pieces = []
    pos = 0
    for tok in tokens:
        start, end = tok.span
        assert start >= pos, "spans overlap or go backwards"
        gap = data[pos:start].decode("utf-8")
        assert gap.strip() == "", f"non-whitespace text lost: {gap!r}"
        assert data[start:end].decode("utf-8") == tok.surface
        pieces.append(gap)
        pieces.append(tok.surface)
        pos = end
    tail = data[pos:].decode("utf-8")
    assert tail.strip() == ""
    pieces.append(tail)
    return "".join(pieces)


def test_inverted_question():
    tokens = tokenize("¿Dónde está Juan?")
    assert [t.surface for t in tokens] == ["¿", "Dónde", "está", "Juan", "?"]
    assert tokens[0].kind == KIND_PUNCTUATION
    assert tokens[-1].kind == KIND_PUNCTUATION
    assert tokens[1].kind == KIND_WORD


def test_inverted_exclamation_and_ellipsis():
    tokens = tokenize("¡Espera... ya voy!")
    surfaces = [t.surface for t in tokens]
    assert surfaces == ["¡", "Espera", "...", "ya", "voy", "!"]
    assert tokens[2].kind == KIND_PUNCTUATION


def test_empty_input():
    assert tokenize("") == []


def test_hyphenated_cardinal():
    tokens = tokenize("40-50 hectáreas")
    assert tokens[0].surface == "40-50"
    assert tokens[0].kind == KIND_NUMBER
    assert tokens[1].surface == "hectáreas"


def test_plain_numbers_and_codes():
    tokens = tokenize("En 1990 vendió 3,5 unidades B52")
    by_surface = {t.surface: t.kind for t in tokens}
    assert by_surface["1990"] == KIND_NUMBER
    assert by_surface["3,5"] == KIND_NUMBER
    assert by_surface["B52"] == KIND_CODE


def test_abbreviation_keeps_period():
    tokens = tokenize("Sr. García vino.")
    assert tokens[0].surface == "Sr."
    assert tokens[0].kind == KIND_ABBREVIATION
    # the sentence-final period is its own token
    assert tokens[-1].surface == "."
    assert tokens[-1].kind == KIND_PUNCTUATION


def test_default_abbreviations_cover_titles_and_units():
    abbrevs = default_abbreviations()
    for form in ("Sr.", "D.", "Prof.", "Exmo.", "Sra.", "pta.", "cm."):
        assert form in abbrevs


def test_sentence_final_period_splits():
    tokens = tokenize("Hola. Adiós.")
    sentences = sentence_split(tokens)
    assert len(sentences) == 2
    assert [t.surface for t in sentences[0]] == ["Hola", "."]


def test_abbreviation_does_not_split_sentence():
    sentences = sentence_split(tokenize("Sr. García vino."))
    assert len(sentences) == 1


def test_sentence_split_trailing_material():
    sentences = sentence_split(tokenize("Hola. sin punto final"))
    assert len(sentences) == 2
    assert [t.surface for t in sentences[1]] == ["sin", "punto", "final"]


def test_sentence_split_empty():
    assert sentence_split([]) == []


def test_reconstruction_fixtures():
    fixtures = [
        "¿Dónde está Juan?",
        "Sr. García vino. ¡Qué bien!",
        "Los  espacios\tdobles\n\nse conservan.",
        "números 40-50, 1.000 y 3,5...",
        "díganselo (entre paréntesis) —dijo—",
        "",
        "   ",
        "a",
    ]
    for text in fixtures:
        assert reconstruct(text, tokenize(text)) == text


def test_reconstruction_fuzz():
    rng = random.Random(7)
    pool = (
        "abcdeABCDE áéíóúñÑüÜ 0123456789 .,;:!?¿¡\"()-… \t\n«»“”'"
        "€%+=_/\\[]{}@#£§ 汉字ελ🙂"
    )
    for _ in range(300):
        text = "".join(rng.choice(pool) for _ in range(rng.randrange(0, 60)))
        tokens = tokenize(text)
        assert reconstruct(text, tokens) == text


def test_determinism():
    text = "¿Va al mercado del Sr. García? 40-50 pta. ..."
    assert tokenize(text) == tokenize(text)


# ------------------------------------------------------------- portmanteaux

def test_portmanteau_al():
    decision = split_portmanteau(word("al"))
    assert decision.kind == KIND_PORTMANTEAU_PART
    assert len(decision.parts) == 1
    surface, tags = decision.parts[0]
    assert surface == "al"
    assert sorted(t.code for t in tags) == ["CSUBI", "PAL"]


def test_portmanteau_del():
    decision = split_portmanteau(word("del"))
    assert [sorted(t.code for t in tags) for _s, tags in decision.parts] == [["PDEL"]]


def test_portmanteau_case_folds_first_letter_only():
    assert split_portmanteau(word("Al")) is not None
    assert split_portmanteau(word("Del")) is not None
    assert split_portmanteau(word("AL")) is None
    assert split_portmanteau(word("dEl")) is None


def test_portmanteau_rejects_others():
    assert split_portmanteau(word("mal")) is None
    assert split_portmanteau(Token("al", (0, 2), KIND_NUMBER)) is None


# ---------------------------------------------------------------- enclitics

@pytest.fixture
def verb_lexicon():
    return parse_lexicon(
        "di\tVLPM2S\ncomer\tVLINF\ncomprando\tVLGER\ndiga\tVLPS3S\n",
        include_seed=True,
    )


def test_enclitic_dimelo(verb_lexicon):
    decision = split_enclitics(word("dímelo"), verb_lexicon)
    assert decision is not None
    assert decision.kind == KIND_ENCLITIC_PART
    parts = [(s, sorted(t.code for t in tags)) for s, tags in decision.parts]
    assert parts == [("di", ["VLPM2S"]), ("me", ["PPC1S"]), ("lo", ["PPO3XS"])]


def test_enclitic_comerse(verb_lexicon):
    decision = split_enclitics(word("comerse"), verb_lexicon)
    parts = [(s, sorted(t.code for t in tags)) for s, tags in decision.parts]
    assert parts == [("comer", ["VLINF"]), ("se", ["SE"])]


def test_enclitic_mesa_never_splits(verb_lexicon):
    assert split_enclitics(word("mesa"), verb_lexicon) is None
    assert split_enclitics(word("mesa"), seed_lexicon()) is None


def test_enclitic_needs_attested_stem(verb_lexicon):
    # "diga" is subjunctive in the lexicon: not an enclitic host mood
    assert split_enclitics(word("digale"), verb_lexicon) is None


def test_enclitic_gerund_host(verb_lexicon):
    decision = split_enclitics(word("comprándolo"), verb_lexicon)
    parts = [(s, sorted(t.code for t in tags)) for s, tags in decision.parts]
    assert parts == [("comprando", ["VLGER"]), ("lo", ["PPO3XS"])]


def test_enclitic_capitalized_stem(verb_lexicon):
    # accent removed, surface casing kept, attested via lowercase fallback
    decision = split_enclitics(word("Dímelo"), verb_lexicon)
    assert decision is not None
    assert decision.parts[0][0] == "Di"


def test_enclitic_soundness_and_closure(verb_lexicon):
    """Parts re-concatenate to the surface modulo one removed accent,
    and every clitic part is on the closed list."""
    rng = random.Random(99)
    stems = ["di", "comer", "comprando", "mesa", "casa", "dí"]
    clitics = list(CLITIC_TAGS)
    for _ in range(300):
        surface = rng.choice(stems) + "".join(
            rng.choice(clitics) for _ in range(rng.randrange(0, 3))
        )
        decision = split_enclitics(word(surface), verb_lexicon)
        if decision is None:
            continue
        assert 2 <= len(decision.parts) <= 3
        for part_surface, _tags in decision.parts[1:]:
            assert part_surface in CLITIC_TAGS
        glued = "".join(s for s, _t in decision.parts)
        assert glued == surface or _deaccented_matches(surface, glued)


def _deaccented_matches(surface, glued):
    plain = {"á": "a", "é": "e", "í": "i", "ó": "o", "ú": "u"}
    candidates = {
        surface[:i] + plain[c] + surface[i + 1:]
        for i, c in enumerate(surface)
        if c in plain
    }
    return glued in candidates


def test_enclitic_at_most_two(verb_lexicon):
    # three stacked clitics are rejected even with an attested stem
    assert split_enclitics(word("dímeselo"), verb_lexicon) is None


def test_expand_token_parts_take_the_decisions_kind_and_origin(verb_lexicon):
    for surface, decision in [("Al", split_portmanteau(word("Al"))),
                              ("dímelo", split_enclitics(word("dímelo"), verb_lexicon))]:
        token = Token(surface, (3, 3 + len(surface.encode())), KIND_WORD)
        parts = expand_token(token, decision)
        assert [(p.surface, p.candidates) for p in parts] == list(decision.parts)
        assert {p.kind for p in parts} == {decision.kind}
        assert [p.origin for p in parts] == [(surface, i) for i in range(len(parts))]
        assert {p.span for p in parts} == {token.span}


def reference_host_tags(stem, lexicon):
    """Reference: look up the stem as written, then with each one of its
    written accents removed, however long the stem."""
    plain = {"á": "a", "é": "e", "í": "i", "ó": "o", "ú": "u",
             "Á": "A", "É": "E", "Í": "I", "Ó": "O", "Ú": "U"}
    variants = [stem] + [stem[:i] + plain[c] + stem[i + 1:]
                         for i, c in enumerate(stem) if c in plain]
    for variant in variants:
        cls = lexicon.lookup(variant)
        hosts = frozenset(t for t in cls.tags if t.code in _enclitic_host_codes()) if cls else None
        if hosts:
            return variant, hosts
    return None


def test_host_search_skips_only_stems_longer_than_every_form():
    """Around the longest form's length, with and without accents, and
    with an "İ", whose lower() is longer than itself."""
    lexicon = parse_lexicon("comprando\tVLGER\ncómprando\tVLGER\ni\u0307r\tVLINF\n",
                            include_seed=False)
    assert lexicon.longest == len("comprando")
    stems = ["comprando", "cómprando", "cómpràndo", "COMPRÁNDO", "ír", "İr", "İR", "Ír"]
    stems += [s + tail for s in stems for tail in ("", "x", "á", "İ")]
    stems += [s[1:] for s in stems]
    for stem in stems:
        assert _host_tags(stem, lexicon) == reference_host_tags(stem, lexicon), stem
    assert _host_tags("comprando", lexicon) is not None
    assert _host_tags("comprandox", lexicon) is None


def test_enclitic_search_memory_is_linear_in_word_length(verb_lexicon):
    """A long accented word that ends with a clitic is not copied once per
    accent: about 64 MB when every accent variant of the stem was built."""
    token = word("á" * 8000 + "lo")
    split_enclitics(word("dímelo"), verb_lexicon)  # warm the caches
    tracemalloc.start()
    try:
        assert split_enclitics(token, verb_lexicon) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def exhaustive_split_enclitics(token, lexicon):
    """Reference: the unpruned search, which attempts every one of the
    121 ordered clitic pairs and then the 11 single clitics."""
    if token.kind != KIND_WORD:
        return None
    surface = token.surface
    lowered = surface.lower()

    def attempt(clitics):
        suffix_len = sum(len(c) for c in clitics)
        if len(surface) <= suffix_len:
            return None
        if not lowered.endswith("".join(clitics)):
            return None
        stem = surface[: len(surface) - suffix_len]
        hosted = _host_tags(stem, lexicon)
        if hosted is None:
            return None
        stem_form, host_tags = hosted
        parts = [(stem_form, host_tags)]
        parts.extend(
            (clitic, frozenset({parse_tag(CLITIC_TAGS[clitic])}))
            for clitic in clitics
        )
        return SplitDecision(parts=tuple(parts), kind=KIND_ENCLITIC_PART)

    for last in _CLITICS_ORDERED:
        for first in _CLITICS_ORDERED:
            decision = attempt((first, last))
            if decision is not None:
                return decision
    for last in _CLITICS_ORDERED:
        decision = attempt((last,))
        if decision is not None:
            return decision
    return None


_ACCENTED = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú"}


def _fuzz_surface(rng, host, group):
    """`host` + `group`, randomly given a written accent on the host,
    capitalized, upper-cased, or with an "İ", whose lower() is two code
    points long."""
    if rng.random() < 0.4:
        vowels = [i for i, c in enumerate(host) if c in _ACCENTED]
        if vowels:
            i = rng.choice(vowels)
            host = host[:i] + _ACCENTED[host[i]] + host[i + 1:]
    surface = host + "".join(group)
    roll = rng.random()
    if roll < 0.2:
        surface = surface[:1].upper() + surface[1:]
    elif roll < 0.3:
        surface = surface.upper()
    elif roll < 0.45:
        at = surface.find("i")
        if at < 0:
            at = rng.randrange(len(surface) + 1)
        surface = surface[:at] + "İ" + surface[at + 1:]
    return surface


def test_pruned_enclitic_search_matches_exhaustive_reference():
    lexicon = parse_lexicon(
        "di\tVLPM2S\nda\tVLPM2S\ndame\tVLPM2S\nve\tVLPM2S\nven\tVLPM2S\n"
        "vete\tVLPM2S\npon\tVLPM2S\ncomer\tVLINF\ndecir\tVLINF\ncomprando\tVLGER\n"
        "diciendo\tVLGER\ni\u0307r\tVLINF\ndiga\tVLPS3S\ncome\tVLPI3S,NCMS\n",
        include_seed=True,
    )
    # "ve"/"ven" make "venos" and "venoslo" split two ways, so the order in
    # which groups are tried decides the result
    hosts = [
        "di", "da", "dame", "ve", "ven", "vete", "pon", "comer", "decir",
        "comprando", "diciendo", "ir", "diga", "come", "mesa", "casa", "", "x",
    ]
    groups = [()] + [(c,) for c in CLITIC_TAGS]
    groups += [(a, b) for a in CLITIC_TAGS for b in CLITIC_TAGS]
    rng = random.Random(20261018)
    cases = [(host, group) for host in hosts for group in groups]
    cases += [(rng.choice(hosts), rng.choices(list(CLITIC_TAGS), k=3)) for _ in range(300)]
    assert len(cases) >= 2000
    splits = pairs = 0
    for host, group in cases:
        token = word(_fuzz_surface(rng, host, group) or "se")
        expected = exhaustive_split_enclitics(token, lexicon)
        assert split_enclitics(token, lexicon) == expected, token.surface
        if expected is not None:
            splits += 1
            pairs += len(expected.parts) == 3
    # the fuzz must reach both one- and two-clitic splits
    assert splits >= 300 and pairs >= 100, (splits, pairs)


def previous_split_enclitics(token, lexicon):
    """Reference: `split_enclitics` as it was before it returned early for
    a word that ends with no clitic."""
    if token.kind != KIND_WORD:
        return None
    surface = token.surface
    lowered = surface.lower()

    def attempt(clitics):
        suffix_len = sum(len(c) for c in clitics)
        if len(surface) <= suffix_len:
            return None
        stem = surface[: len(surface) - suffix_len]
        hosted = _host_tags(stem, lexicon)
        if hosted is None:
            return None
        stem_form, host_tags = hosted
        parts = [(stem_form, host_tags)]
        parts.extend(
            (clitic, frozenset({parse_tag(CLITIC_TAGS[clitic])}))
            for clitic in clitics
        )
        return SplitDecision(parts=tuple(parts), kind=KIND_ENCLITIC_PART)

    # Only groups that the lowered surface ends with are attempted, in the
    # fixed order: every (first, last) pair, then every single clitic.
    endings = [last for last in _CLITICS_ORDERED if lowered.endswith(last)]
    for last in endings:
        rest = lowered[: len(lowered) - len(last)]
        for first in _CLITICS_ORDERED:
            if rest.endswith(first):
                decision = attempt((first, last))
                if decision is not None:
                    return decision
    for last in endings:
        decision = attempt((last,))
        if decision is not None:
            return decision
    return None


def test_early_return_matches_the_previous_enclitic_search():
    """Every form of the generated lexicons and of the seed, each form
    with every clitic and with random clitic pairs after it, capitalized
    or not."""
    rng = random.Random(20261019)
    clitics = list(CLITIC_TAGS)
    splits = 0
    for workload in ("news-stream", "long-sentence"):
        lexicon = parse_lexicon(synth.generate(workload, 1).files["lexicon.tsv"])
        forms = [form for form, _cls in lexicon.items()]
        surfaces = set(forms)
        for form in forms:
            surfaces.update(form + c for c in clitics)
            surfaces.update(form + "".join(rng.sample(clitics, 2)) for _ in range(3))
        surfaces.update([s[:1].upper() + s[1:] for s in surfaces if rng.random() < 0.2])
        for surface in sorted(surfaces):
            token = word(surface)
            expected = previous_split_enclitics(token, lexicon)
            assert split_enclitics(token, lexicon) == expected, surface
            splits += expected is not None
    assert splits >= 100, splits


# --------------------------------------------------------------- resources

def test_load_abbreviations(tmp_path):
    path = tmp_path / "abbrev.txt"
    path.write_text("# comment\nUd.\n\nEtc.\n", encoding="utf-8")
    abbrevs = load_abbreviations(path)
    assert "Ud." in abbrevs and "Etc." in abbrevs
    assert "Sr." in abbrevs  # built-ins preserved
    tokens = tokenize("Ud. verá", abbrevs)
    assert tokens[0].surface == "Ud."
    assert tokens[0].kind == KIND_ABBREVIATION


def test_multiword_merge(tmp_path):
    path = tmp_path / "mw.txt"
    path.write_text("# fixed expressions\na pesar de\nsin embargo\n", encoding="utf-8")
    multiwords = load_multiwords(path)
    text = "Vino a pesar de todo."
    tokens = merge_multiwords(tokenize(text), text, multiwords)
    surfaces = [t.surface for t in tokens]
    assert "a pesar de" in surfaces
    assert reconstruct(text, tokens) == text


def test_multiword_requires_single_spaces():
    text = "a  pesar de"  # double space blocks the merge
    tokens = merge_multiwords(tokenize(text), text, ("a pesar de",))
    assert [t.surface for t in tokens] == ["a", "pesar", "de"]
    unmerged = merge_multiwords(tokens, text, ())
    assert unmerged == tokens and unmerged is not tokens


@pytest.mark.parametrize("entry", ["etc", "EE.UU.", "p.ej.", "...", ".", "2020.", "A4.", "a b."])
def test_load_abbreviations_rejects_an_entry_tokenizing_never_merges(tmp_path, entry):
    path = tmp_path / "abbrev.txt"
    path.write_text(f"# comment\nUd.\n\n{entry}\netc.\n", encoding="utf-8")
    with pytest.raises(TaggingError) as err:
        load_abbreviations(path)
    assert str(err.value).startswith(f"{path}: line 4: abbreviation {entry!r}")


@pytest.mark.parametrize("entry, bad", [
    ("en 2020", "2020"),
    ("al fin, y al cabo", "fin,"),
    ("Sr. López", "Sr."),
    ("modelo A4", "A4"),
    ("¿qué tal", "¿qué"),
    ("embargo", None),
])
def test_load_multiwords_rejects_an_entry_tokenizing_never_merges(tmp_path, entry, bad):
    path = tmp_path / "mw.txt"
    path.write_text(f"# fixed expressions\nsin embargo\n{entry}\n", encoding="utf-8")
    with pytest.raises(TaggingError) as err:
        load_multiwords(path)
    problem = f"{bad!r} is not one word" if bad else "needs two or more words"
    assert str(err.value) == f"{path}: line 3: multiword {entry!r}: {problem}"


def test_loaded_abbreviations_and_multiwords_all_apply(tmp_path):
    """Every entry the loaders accept changes how its text tokenizes."""
    abbrev_path = tmp_path / "abbrev.txt"
    abbrev_path.write_text("etc.\npág.\n  Núm.  \nbien-dicho.\n", encoding="utf-8")
    mw_path = tmp_path / "mw.txt"
    mw_path.write_text("sin  embargo\na pesar de\nbien-estar común\n", encoding="utf-8")
    abbrevs = load_abbreviations(abbrev_path)
    multiwords = load_multiwords(mw_path)
    assert abbrevs - default_abbreviations() == {"etc.", "pág.", "Núm.", "bien-dicho."}
    assert multiwords == ("sin embargo", "a pesar de", "bien-estar común")
    for entry in abbrevs - default_abbreviations():
        text = f"Vino {entry} y se fue"
        assert Token(entry, (5, 5 + len(entry.encode())), KIND_ABBREVIATION) in tokenize(
            text, abbrevs)
    for entry in multiwords:
        text = f"Vino {entry} ayer."
        merged = merge_multiwords(tokenize(text, abbrevs), text, multiwords)
        assert entry in [t.surface for t in merged]
