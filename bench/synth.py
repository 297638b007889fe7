"""Seeded synthetic Spanish inputs for the spantag benchmark.

Everything is built from what ships in the package: the tag registry
(codes, features and example forms), the closed-class seed forms, the
guesser's ``SUFFIX_RULES`` and the clitic table.  Nothing is read from
outside the checkout, and the same (workload, seed) pair always gives
byte-identical inputs.

Besides the files the tagger reads, a generated workload records what a
correct tagger must return for its text: the textwords of every
sentence, the tags each one may take, and the gold tag the generator
drew.  ``oracles.py`` compares program output against that record.
The expected textwords are derived here with the benchmark's own
reading of the documented tokenizer rules, never by calling the code
under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from spantag.lexicon import FALLBACK_GUESS, PROPER_GUESS, SEED_CATEGORIES, SUFFIX_RULES
from spantag.tagset import load_registry
from spantag.tokenizer import CLITIC_TAGS, default_abbreviations

WORKLOADS = ("news-stream", "long-sentence", "big-model")

# Decode-time ladder of the long-sentence workload: orthographic tokens
# per terminator-free sentence, doubling.  It stops at 4000, where one
# decode takes about 0.3 s at the seed commit (8000: 0.9 s, 16000: 3.8 s),
# so that a run still holds several rounds of every operation.
LADDER = (500, 1000, 2000, 4000)

_ONSETS = ("b", "c", "ch", "d", "f", "g", "l", "ll", "m", "n", "p", "r", "s",
           "t", "v", "br", "cr", "dr", "fl", "gr", "pl", "tr")
_VOWELS = ("a", "e", "i", "o", "u")
_CODAS = ("l", "n", "r", "z", "d", "j", "")
_ACUTE = {"a": "á", "e": "é", "i": "í", "o": "ó", "u": "ú"}
_PLAIN = {v: k for k, v in _ACUTE.items()}
_PLAIN.update({v.upper(): k.upper() for k, v in _ACUTE.items()})

# Documented stripping order: longest clitic first, then alphabetical.
CLITICS = tuple(sorted(CLITIC_TAGS, key=lambda c: (-len(c), c)))
_FIRST_CLITICS = ("me", "te", "se", "nos", "os", "le", "les")
_LAST_CLITICS = ("lo", "la", "los", "las")
HOST_MOODS = frozenset({"imperative", "infinitive", "gerund"})
_ATTEMPTS = tuple(
    (clitics, "".join(clitics))
    for clitics in [(first, last) for last in CLITICS for first in CLITICS]
    + [(last,) for last in CLITICS]
)

NUMBERS = ("2", "12", "40", "365", "1.500", "2,5", "1990", "7")
RANGES = ("3-5", "40-50", "1850-1990", "10-12")
CODES = ("A4", "3D", "B52", "MP3")
# Extra abbreviations the benchmark passes with --abbrev, with the
# lexicon classes it lists for them.
USER_ABBREVIATIONS = {"etc.": ("ADVL",), "pág.": ("NCFS",), "núm.": ("NCMS",)}
MULTIWORDS = {
    "sin embargo": ("ADVL", "CC"),
    "a menudo": ("ADVT",),
    "por lo tanto": ("ADVL",),
    "de repente": ("ADVT", "ADVL"),
    "a pesar de": ("PREP",),
    "en cuanto a": ("PREP",),
}
# Tags no bias rule names: a class holding one always leaves a path.
FREE_TAGS = ("ADVL", "ADVT", "ADVLE")
INNER_PUNCT = (",", ",", ",", ";", ":")
NO_SPACE_AFTER = frozenset({"¿", "¡", "(", "«"})
NO_SPACE_BEFORE = frozenset({",", ";", ":", ".", "?", "!", "...", ")", "»"})
PUNCT_TAGS = {"¿": "IQUEST", "¡": "IEXCL", "«": '"', "»": '"', "—": "-"}

# Bias rules shared by every workload.  No rule names an ADV* tag or a
# clitic tag, so an all-adverb path always survives and a verb host may
# always be followed by its clitics.  CARDXP before CARDGU is the one
# pair whose tokens have a single candidate each: a sentence holding
# "12 3-5" has no allowed path and must come back as #FALLBACK.
RULES_TEXT = """\
# Benchmark bias rules: agreement and ordering constraints.
FORBID CARDXP CARDGU
FORBID ARTDFS NCM?
FORBID ARTDFS NC?P
FORBID ARTDMS NCF?
FORBID ARTDMS NC?P
FORBID ARTD?P NC?S
FORBID NCMS ADJGF?
FORBID NCFS ADJGM?
FORBID NC?S ADJG?P
FORBID NC?P ADJG?S
FORBID ADJG?S NC?P
FORBID ADJG?P NC?S
FORBID NTMP?S NTMP?P
FORBID NLOC* NLOC*
FORBID VLPI3S VLPI3P
FORBID VLPI3P VLPI3S
FORBID VL?I1? VL?I3?
FORBID VSPI* VEPI*
FORBID VEPI* VSPI*
FORBID VSPI?? VSPI??
FORBID PREP V??I*
FORBID ORDX?S NC?P
FORBID VLINF VLINF
FORBID VLGER VLGER
REQUIRE ORDX?P NC*
REQUIRE ADJC? NC*
REQUIRE QUN?? NC*
"""


@dataclass(frozen=True)
class Part:
    """One textword the tagger must return."""

    surface: str
    allowed: frozenset[str]
    gold: str


@dataclass(frozen=True)
class Item:
    """One orthographic token as written, with the textwords it yields."""

    text: str
    kind: str
    parts: tuple[Part, ...]


@dataclass
class Workload:
    name: str
    seed: int
    gold: list[list[Part]]  # training sentences
    sentences: list[list[Item]]  # the text to tag, sentence by sentence
    text: str
    multiwords: tuple[str, ...]
    ladder: str  # LADDER sentences from this workload's lexicon, as text
    files: dict[str, str] = field(default_factory=dict)


# --------------------------------------------------------------- oracles

def deaccent(text: str) -> str:
    return "".join(_PLAIN.get(ch, ch) for ch in text)


def seed_classes() -> dict[str, frozenset[str]]:
    """Closed-class seed forms and tags, read from the registry examples."""
    out: dict[str, set[str]] = {}
    for entry in load_registry():
        if entry.features.category in SEED_CATEGORIES:
            for form in entry.examples:
                out.setdefault(form, set()).add(entry.tag.code)
    return {form: frozenset(tags) for form, tags in out.items()}


def host_tag_codes() -> frozenset[str]:
    return frozenset(
        e.tag.code for e in load_registry()
        if e.features.category == "verb" and e.features.mood in HOST_MOODS
    )


def expected_guess(word: str, sentence_initial: bool) -> frozenset[str]:
    """Guesser class as documented: first matching proper suffix wins."""
    lowered = word.lower()
    codes = FALLBACK_GUESS
    for suffix, suffix_codes in SUFFIX_RULES:
        if len(lowered) > len(suffix) and lowered.endswith(suffix):
            codes = suffix_codes
            break
    out = set(codes)
    if word[:1].isupper() and not sentence_initial:
        out.update(PROPER_GUESS)
    return frozenset(out)


def _lookup(classes: dict[str, frozenset[str]], form: str) -> frozenset[str] | None:
    found = classes.get(form)
    return found if found is not None else classes.get(form.lower())


def expected_split(
    surface: str, classes: dict[str, frozenset[str]], host_codes: frozenset[str]
) -> tuple[str, frozenset[str], tuple[str, ...]] | None:
    """(host form, host tags, clitics) of a verb+enclitic word, or None.

    Two-clitic strips are tried before one-clitic strips, each in the
    documented clitic order; the stem, as written or with one written
    accent undone, must be a lexicon verb form that can host clitics.
    """
    lowered = surface.lower()
    for clitics, suffix in _ATTEMPTS:
        if len(surface) <= len(suffix) or not lowered.endswith(suffix):
            continue
        stem = surface[: len(surface) - len(suffix)]
        variants = [stem] + [
            stem[:i] + _PLAIN[ch] + stem[i + 1:]
            for i, ch in enumerate(stem) if ch in _PLAIN
        ]
        for variant in variants:
            cls = _lookup(classes, variant)
            if cls is None:
                continue
            hosts = cls & host_codes
            if hosts:
                return variant, hosts, clitics
    return None


# ------------------------------------------------------------- generator

class _Generator:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"spantag-bench:{name}:{seed}")
        self.host_codes = host_tag_codes()
        self.seed = seed_classes()
        self.abbreviations = set(default_abbreviations()) | set(USER_ABBREVIATIONS)
        self.used: set[str] = set(f.lower() for f in self.seed)
        self.used.update(w for mw in MULTIWORDS for w in mw.split())
        self.used.update(a.lower().rstrip(".") for a in self.abbreviations)
        self.lexicon: dict[str, frozenset[str]] = {}
        self.classes: dict[str, frozenset[str]] = dict(self.seed)
        self.unknown_pool: list[str] = []
        self.enclitic_pool: list[tuple[str, tuple[str, ...]]] = []  # (host as written, clitics)

    # ---------------------------------------------------------- words
    def _stem(self, syllables: int) -> str:
        rng = self.rng
        return "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))

    def _fresh(self, make) -> str:
        """A new form that no pool holds and that no host makes split."""
        while True:
            word = make()
            if word.lower() in self.used:
                continue
            if expected_split(word, self.classes, self.host_codes) is None:
                self.used.add(word.lower())
                return word

    def build_lexicon(self, tags: list[str], n_words: int, extra: tuple[int, int],
                      free: tuple[str, ...] = (), free_share: float = 1.0):
        """n_words forms; primaries cycle over `tags`, so each is used.

        Each form gets between extra[0] and extra[1] further tags drawn
        from `tags`, and a `free_share` of the forms one of `free`.
        """
        rng = self.rng
        for i in range(n_words):
            word = self._fresh(lambda: self._stem(rng.choice((2, 2, 3))) + rng.choice(_CODAS))
            cls = {tags[i % len(tags)]}
            for _ in range(rng.randint(*extra)):
                cls.add(rng.choice(tags))
            if free and rng.random() < free_share:
                cls.add(rng.choice(free))
            self.lexicon[word] = frozenset(cls)
        self.classes.update(self.lexicon)

    def build_hosts(self, host_tags: tuple[str, ...], n_hosts: int):
        """Verb forms that host enclitics, with their clitic groups."""
        rng = self.rng
        endings = {"infinitive": ("ar", "er", "ir"), "gerund": ("ando", "iendo"),
                   "imperative-S": ("a", "e"), "imperative-P": ("ad", "ed", "id")}
        registry = load_registry()
        for i in range(n_hosts):
            tag = host_tags[i % len(host_tags)]
            feats = registry.entry(tag).features
            kind = feats.mood if feats.mood != "imperative" else (
                "imperative-S" if tag.endswith("S") else "imperative-P")
            ending = rng.choice(endings[kind])
            host = self._fresh(lambda: self._stem(rng.choice((1, 2))) + ending)
            self.lexicon[host] = frozenset({tag})
            self.classes[host] = self.lexicon[host]
            for _ in range(3):
                if rng.random() < 0.5:
                    clitics = (rng.choice(_FIRST_CLITICS), rng.choice(_LAST_CLITICS))
                else:
                    clitics = (rng.choice(CLITICS),)
                self.enclitic_pool.append((self._accented(host, kind, len(clitics)), clitics))

    @staticmethod
    def _accented(host: str, kind: str, n_clitics: int) -> str:
        """The host as written before its clitics, with the written accent
        Spanish orthography adds."""
        if kind == "infinitive":
            vowel = len(host) - 2 if n_clitics == 2 else None
        elif kind == "gerund":
            vowel = len(host) - 4  # the a of -ando, the e of -iendo
        elif kind == "imperative-S":
            vowel = max(i for i, ch in enumerate(host[:-1]) if ch in _ACUTE)
        else:
            vowel = None
        if vowel is None:
            return host
        return host[:vowel] + _ACUTE[host[vowel]] + host[vowel + 1:]

    def build_unknowns(self, per_rule: int):
        """Words absent from every lexicon: `per_rule` hitting each guesser
        rule first, and `per_rule` hitting none."""
        rng = self.rng
        rules = dict(SUFFIX_RULES)
        for suffix in [s for s, _codes in SUFFIX_RULES] + ["l", "z"]:
            intended = suffix if suffix in rules else None
            for _ in range(per_rule):
                word = self._fresh(lambda: self._unknown(suffix, intended))
                self.unknown_pool.append(word)

    def _unknown(self, suffix: str, intended: str | None) -> str:
        while True:
            word = self._stem(self.rng.choice((2, 3))) + suffix
            first = next((s for s, _c in SUFFIX_RULES
                          if len(word) > len(s) and word.endswith(s)), None)
            if first == intended:
                return word

    def finish_pools(self, seed_forms: tuple[str, ...] | None):
        """Keep the clitic groups that split as intended, and the seed
        forms (all, or `seed_forms`) that do not split."""
        self.enclitic_pool = [
            (host, clitics) for host, clitics in self.enclitic_pool
            if (found := expected_split(host + "".join(clitics), self.classes, self.host_codes))
            is not None and found[2] == clitics and found[0] == deaccent(host)
        ]
        self.seed_pool = sorted(
            f for f in self.seed
            if "." not in f and f.islower() and f not in ("al", "del")
            and (seed_forms is None or f in seed_forms)
            and expected_split(f, self.classes, self.host_codes) is None
        )
        self.lexicon_forms = sorted(f for f in self.lexicon if self.lexicon[f] - self.host_codes)

    # ------------------------------------------------------------ items
    def _simple(self, text: str, kind: str, allowed) -> Item:
        allowed = frozenset(allowed)
        return Item(text, kind, (Part(text, allowed, self.rng.choice(sorted(allowed))),))

    def word_item(self, form: str | None = None) -> Item:
        form = form or self.rng.choice(self.lexicon_forms)
        return self._simple(form, "word", self.lexicon[form])

    def seed_item(self) -> Item:
        form = self.rng.choice(self.seed_pool)
        return self._simple(form, "seed", self.seed[form])

    def unknown_item(self, capitalized: bool = False) -> Item:
        word = self.rng.choice(self.unknown_pool)
        if capitalized:
            word = word.capitalize()
        return self._simple(word, "unknown", expected_guess(word, sentence_initial=False))

    def enclitic_item(self, surface_host: str | None = None, clitics=None) -> Item:
        if surface_host is None:
            surface_host, clitics = self.rng.choice(self.enclitic_pool)
        surface = surface_host + "".join(clitics)
        return self._enclitic_parts(surface)

    def _enclitic_parts(self, surface: str) -> Item:
        host, host_tags, clitics = expected_split(surface, self.classes, self.host_codes)
        parts = [Part(host, host_tags, self.rng.choice(sorted(host_tags)))]
        parts.extend(Part(c, frozenset({CLITIC_TAGS[c]}), CLITIC_TAGS[c]) for c in clitics)
        return Item(surface, "enclitic", tuple(parts))

    def portmanteau_item(self) -> Item:
        form = self.rng.choice(("al", "del"))
        return self._simple(form, "portmanteau", {"al": ("PAL", "CSUBI"), "del": ("PDEL",)}[form])

    def number_item(self, ranged: bool | None = None) -> Item:
        if ranged is None:
            ranged = self.rng.random() < 0.3
        if ranged:
            return self._simple(self.rng.choice(RANGES), "number", ("CARDGU",))
        return self._simple(self.rng.choice(NUMBERS), "number", ("CARDXP",))

    def code_item(self) -> Item:
        return self._simple(self.rng.choice(CODES), "code", ("CODE",))

    def abbrev_item(self) -> Item:
        form = self.rng.choice(sorted(self.abbreviations))
        allowed = USER_ABBREVIATIONS.get(form) or self.seed[form]
        return self._simple(form, "abbrev", allowed)

    def multiword_item(self) -> Item:
        form = self.rng.choice(sorted(MULTIWORDS))
        return self._simple(form, "multiword", MULTIWORDS[form])

    def punct_item(self, mark: str) -> Item:
        return self._simple(mark, "punct", (PUNCT_TAGS.get(mark, mark),))

    def capitalize(self, item: Item) -> Item:
        """Sentence-initial form of a word-like item."""
        text = item.text[0].upper() + item.text[1:]
        if item.kind == "enclitic":
            return self._enclitic_parts(text)
        if item.kind == "unknown":
            allowed = expected_guess(text, sentence_initial=True)
        else:
            allowed = item.parts[0].allowed
        return Item(text, item.kind, (Part(text, allowed, item.parts[0].gold),))

    # -------------------------------------------------------- sentences
    def news_sentence(self, length: int, mix, gold: bool = False) -> list[Item]:
        rng = self.rng
        kinds, weights = zip(*mix)
        body: list[Item] = []
        for i in range(length):
            kind = rng.choices(kinds, weights)[0]
            if i == 0 and kind in ("abbrev", "multiword", "code"):
                kind = "word"
            if kind == "unknown":
                item = self.unknown_item(capitalized=i > 0 and rng.random() < 0.15)
            else:
                item = getattr(self, f"{kind}_item")()
            body.append(item)
            if i + 1 < length and rng.random() < 0.08:
                body.append(self.punct_item(rng.choice(INNER_PUNCT)))
        if body[-1].kind == "abbrev":
            # "pta...." reads as "pta" + "..." + ".": keep abbreviations
            # away from the terminator.
            body.append(self.word_item())
        if not gold and rng.random() < 0.04:
            # The one deliberately infeasible pair: a number before a range.
            at = rng.randrange(1, len(body) + 1)
            body[at:at] = [self.number_item(ranged=False), self.number_item(ranged=True)]
        if rng.random() < 0.1 and len(body) > 4:
            lo = rng.randrange(1, len(body) - 3)
            hi = lo + rng.randint(2, 3)
            if body[hi - 1].kind != "punct":
                left, right = rng.choice((("(", ")"), ("«", "»")))
                body[lo:hi] = [self.punct_item(left), *body[lo:hi], self.punct_item(right)]
        if not gold and body[0].kind in ("word", "seed", "unknown", "enclitic", "portmanteau"):
            body[0] = self.capitalize(body[0])
        roll = rng.random()
        if roll < 0.1:
            return [self.punct_item("¿"), *body, self.punct_item("?")]
        if roll < 0.15:
            return [self.punct_item("¡"), *body, self.punct_item("!")]
        if roll < 0.25:
            return [*body, self.punct_item("...")]
        return [*body, self.punct_item(".")]

    def ladder_sentence(self, n_tokens: int) -> list[Item]:
        """Terminator-free sentence of n_tokens orthographic tokens.

        Every word may be an adverb, which no rule names, so the rules
        always leave a path and the sentence never falls back.
        """
        rng = self.rng
        forms = [f for f in self.lexicon_forms if any(t.startswith("ADV") for t in self.lexicon[f])]
        body = []
        for _ in range(n_tokens - 1):
            if rng.random() < 0.005:
                body.append(self.enclitic_item())
            else:
                body.append(self.word_item(rng.choice(forms)))
        return [*body, self.punct_item(".")]

    @staticmethod
    def coverage_sentences(pool: list[Item], size: int) -> list[list[Part]]:
        """Gold sentences that give each item's first part every tag it
        may take at least once."""
        parts = []
        for item in pool:
            first, *rest = item.parts
            for tag in sorted(first.allowed):
                parts.append([Part(first.surface, first.allowed, tag), *rest])
        full_stop = Part(".", frozenset({"."}), ".")
        return [
            [p for group in parts[start:start + size] for p in group] + [full_stop]
            for start in range(0, len(parts), size)
        ]


def render(sentences: list[list[Item]], rng: random.Random) -> str:
    """Source text: one space between items except where punctuation
    attaches, with an occasional doubled space or line break."""
    out = []
    prev = None
    for s_index, sentence in enumerate(sentences):
        for item in sentence:
            if prev is not None:
                if item.text in NO_SPACE_BEFORE or prev in NO_SPACE_AFTER:
                    sep = ""
                elif prev in (".", "?", "!", "..."):
                    sep = "\n" if s_index % 7 == 0 else ("\n\n" if s_index % 23 == 0 else " ")
                else:
                    sep = "  " if rng.random() < 0.02 else " "
                out.append(sep)
            out.append(item.text)
            prev = item.text
    out.append("\n")
    return "".join(out)


def vertical(sentences: list[list[Part]]) -> str:
    return "".join(
        "".join(f"{p.surface}\t{p.gold}\n" for p in sentence) + "\n"
        for sentence in sentences
    )


def _tags(prefixes: tuple[str, ...]) -> list[str]:
    return [c for c in load_registry().codes() if c.startswith(prefixes)]


NEWS_MIX = (("word", 60), ("seed", 16), ("portmanteau", 3), ("unknown", 7),
            ("enclitic", 5), ("number", 3), ("code", 1), ("abbrev", 2), ("multiword", 3))
GOLD_MIX = (("word", 70), ("seed", 18), ("portmanteau", 3), ("enclitic", 5),
            ("number", 2), ("abbrev", 1), ("multiword", 1))
HOST_TAGS = ("VLINF", "VLGER", "VLPM2S", "VLPM2P")
# Closed-class forms the small-model workloads draw from; big-model uses
# every seed form, which brings most closed-class tags into its model.
COMMON_SEED_FORMS = (
    "el", "la", "los", "las", "lo", "un", "una", "unos", "unas", "y", "o",
    "pero", "que", "muy", "más", "mi", "su", "sus", "tu", "este", "esta",
    "ese", "esa", "nada", "algo", "todo", "todos", "cada", "donde", "cuando",
    "como", "aunque", "ni", "se", "me", "te", "le", "les", "nos", "ella",
)

# Per-workload sizes.  news-stream: many short sentences and a small
# model; long-sentence: the decode ladder, 2-4 candidates per token;
# big-model: a large gold corpus over most of the registry.
SIZES = {
    "news-stream": dict(words=600, hosts=40, gold=300, text=150),
    "long-sentence": dict(words=400, hosts=16, gold=300),
    "big-model": dict(words=1500, hosts=60, gold=3000, text=40),
}


def spread_lengths(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sentence lengths spread evenly over lo..hi, in random order.

    The multiset does not depend on the seed, so neither does the
    number of words a workload tags or trains on, nor the time that
    takes."""
    lengths = [lo + (hi - lo) * i // (n - 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def generate(name: str, seed: int) -> Workload:
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}")
    size = SIZES[name]
    g = _Generator(name, seed)
    rng = g.rng
    g.build_hosts(HOST_TAGS, size["hosts"])
    if name == "news-stream":
        tags = _tags(("NC", "NLOC", "NTMP", "NORG", "ADJG", "VLPI", "VLII", "VLXI",
                      "VLPX", "VSPI", "ADVL", "ADVT", "ITJN"))
        g.build_lexicon(tags, size["words"], (0, 2), free=FREE_TAGS, free_share=0.5)
    elif name == "long-sentence":
        tags = _tags(("NC", "ADJG", "VLPI", "VSPI", "VEPI", "NTMP", "ORDX"))
        g.build_lexicon(tags, size["words"], (0, 2), free=FREE_TAGS)
    else:
        tags = _tags(("VL", "VS", "N", "ADJ", "ORD", "ADV"))
        g.build_lexicon(tags, size["words"], (0, 2))
    g.build_unknowns(per_rule=6)
    g.finish_pools(None if name == "big-model" else COMMON_SEED_FORMS)

    gold: list[list[Part]] = []
    n_gold = size["gold"]
    for length in spread_lengths(rng, n_gold, 5, 25):
        items = g.news_sentence(length, GOLD_MIX, gold=True)
        gold.append([p for item in items for p in item.parts])
    # Every (form, tag) pair of the generator's pools appears in gold, so
    # the vocabulary and the set of seen tags do not depend on the seed.
    pool = [g.word_item(f) for f in sorted(g.lexicon)]
    pool += [g._simple(f, "seed", g.seed[f]) for f in g.seed_pool]
    pool += [g._simple(f, "number", ("CARDXP",)) for f in NUMBERS]
    pool += [g._simple(f, "number", ("CARDGU",)) for f in RANGES]
    pool += [g._simple(f, "code", ("CODE",)) for f in CODES]
    pool += [g._simple(f, "multiword", MULTIWORDS[f]) for f in sorted(MULTIWORDS)]
    pool += [g._simple(f, "abbrev", USER_ABBREVIATIONS.get(f) or g.seed[f])
             for f in sorted(g.abbreviations)]
    pool += [g.punct_item(m) for m in (",", ";", ":", "(", ")", "«", "¿", "¡", "?", "!", "...")]
    pool += [g.enclitic_item(h, c) for h, c in g.enclitic_pool]
    gold += g.coverage_sentences(pool, 20)

    ladder = [g.ladder_sentence(n) for n in LADDER]
    if name == "long-sentence":
        sentences = ladder
    else:
        sentences = [g.news_sentence(n, NEWS_MIX) for n in spread_lengths(rng, size["text"], 4, 36)]
    text = render(sentences, rng)
    multiwords = tuple(sorted(MULTIWORDS)) if name != "long-sentence" else ()

    lexicon_lines = [f"{form}\t{','.join(sorted(cls))}" for form, cls in sorted(g.lexicon.items())]
    lexicon_lines += [f"{f}\t{','.join(c)}" for f, c in sorted(USER_ABBREVIATIONS.items())]
    lexicon_lines += [f"{f}\t{','.join(c)}" for f, c in sorted(MULTIWORDS.items())]
    files = {
        "lexicon.tsv": "\n".join(lexicon_lines) + "\n",
        "rules.txt": RULES_TEXT,
        "multiwords.txt": "".join(mw + "\n" for mw in multiwords),
        "abbrev.txt": "".join(a + "\n" for a in sorted(USER_ABBREVIATIONS)),
        "gold.vrt": vertical(gold),
        "input.txt": text,
    }
    return Workload(
        name=name, seed=seed, gold=gold, sentences=sentences, text=text, multiwords=multiwords,
        ladder=render(ladder, rng), files=files,
    )


def main() -> int:
    """Write one workload's input files, as the benchmark generates them."""
    import argparse
    from pathlib import Path
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the files into")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in generate(args.workload, args.seed).files.items():
        (out / name).write_bytes(content.encode("utf-8"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
