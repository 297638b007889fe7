"""Mutation oracle for the input readers.

Seeded mutants of a valid counts model, v1 model, lexicon, rules file and
vertical corpus (strict and lenient): lines dropped, duplicated or
swapped, and cells replaced or added with tokens that broke readers
before.  Each mutant must either load or raise `TaggingError`, and what
loads must work: a model tags and re-saves, a lexicon or rule set tags,
and a corpus formats and trains.  The mutants depend only on the seed.
"""

import random

import pytest

from spantag.bias import parse_rules
from spantag.corpus_io import format_vertical, parse_vertical
from spantag.errors import TaggingError
from spantag.lexicon import parse_lexicon
from spantag.tagger import (
    load_model, model_from_text, model_to_counts_text, model_to_text, save_model, tag_text, train,
)

SEED = 1
MUTANTS = 400  # per format
TOKENS = ("nan", "1e400", "<unk>", "\r", "\x00", "#FALLBACK")

GOLD = (
    "# a comment\n"
    "la\tARTDFS\nmesa\tNCFS\n.\t.\n\n"
    "#FALLBACK\n"
    "la\tARTDFS\nmano\tNCFS\ngrande\tADJGFS\n.\t.\n\n"
    "Dime\tVLPM2S\nlo\tPPO3XS\n.\t.\n\n"
)
LEXICON = "# forms\nmesa\tNCFS\nmano\tNCFS,NCMS\ngrande\tADJGFS,ADJGMS\ndi\tVLPM2S\n"
RULES = "# rules\nFORBID ARTDFS NCM?\nREQUIRE PPOSPS NC*\nFORBID ?? .*\n"
TEXT = "La mesa grande, dímelo ya. ¿Dónde está la mano?\n"

CORPUS = parse_vertical(GOLD).sentences
MODEL = train(CORPUS)
LEX = parse_lexicon(LEXICON)
RULESET = parse_rules(RULES)


def mutate(text: str, sep: str, rng: random.Random) -> str:
    """`text` after one to three line or cell edits."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.choice(("drop", "duplicate", "swap", "replace", "add"))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            cells = lines[i].split(sep)
            k = rng.randrange(len(cells) + (op == "add"))
            if op == "add":
                cells.insert(k, rng.choice(TOKENS))
            else:
                cells[k] = rng.choice(TOKENS)
            lines[i] = sep.join(cells)
    return "\n".join(lines)


def use_model(model, tmp_path):
    tag_text(model, LEX, RULESET, TEXT)
    save_model(model, tmp_path / "resaved.model")
    tag_text(load_model(tmp_path / "resaved.model"), LEX, RULESET, TEXT)


def use_corpus(doc, _tmp_path):
    format_vertical(doc)
    try:  # training may refuse a corpus, as with no sentence or an `<unk>` form
        train(doc.sentences)
    except TaggingError:
        pass


FORMATS = {
    # name: (valid text, cell separator, reader, what an accepted input must do)
    "counts model": (model_to_counts_text(MODEL), "\t", model_from_text, use_model),
    "v1 model": (model_to_text(MODEL), "\t", model_from_text, use_model),
    "lexicon": (LEXICON, "\t", parse_lexicon, lambda lex, _: tag_text(MODEL, lex, RULESET, TEXT)),
    "rules": (RULES, " ", parse_rules, lambda rules, _: tag_text(MODEL, LEX, rules, TEXT)),
    "strict vertical": (GOLD, "\t", lambda text: parse_vertical(text, strict=True), use_corpus),
    "lenient vertical": (GOLD, "\t", lambda text: parse_vertical(text, strict=False), use_corpus),
}


@pytest.mark.parametrize("name", FORMATS)
def test_every_mutant_loads_or_raises_tagging_error(name, tmp_path):
    text, sep, read, use = FORMATS[name]
    use(read(text), tmp_path)  # the unmutated input is valid
    rng = random.Random(f"{name}:{SEED}")
    outcomes = {"loaded": 0, "refused": 0}
    for index in range(MUTANTS):
        mutant = mutate(text, sep, rng)
        try:
            loaded = read(mutant)
        except TaggingError:
            outcomes["refused"] += 1
            continue
        except Exception as exc:
            pytest.fail(f"mutant {index} raised {exc!r}:\n{mutant!r}")
        try:
            use(loaded, tmp_path)
        except Exception as exc:
            pytest.fail(f"mutant {index} loaded but then raised {exc!r}:\n{mutant!r}")
        outcomes["loaded"] += 1
    # both outcomes occur, so the mutants reach past the first check
    assert min(outcomes.values()) > 0, outcomes
