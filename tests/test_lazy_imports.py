"""The package loads its modules lazily: each command imports only what it
runs, and every public name still resolves to its module's object."""

import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spantag

SRC = str(Path(spantag.__file__).parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"

# The package's public names, as the eager `__init__` exported them.
PUBLIC_NAMES = [
    "AlignmentError", "AmbiguityClass", "BadPattern", "BiasRule", "EmptyCorpus", "EmptyInput",
    "EvalReport", "FeatureBundle", "HmmModel", "Lexicon", "LexiconParseError",
    "ModelFormatError", "NoSuchTag", "NoValidPath", "Registry", "RegistryEntry",
    "RegistryError", "RuleSet", "RuleSyntaxError", "SmoothingError", "SplitDecision", "Tag",
    "TagPattern", "TaggedSentence", "TaggingError", "Token", "UnknownTag", "VerticalDocument",
    "VerticalFormatError", "ambiguity_report", "bias", "candidates", "compose", "corpus_io",
    "decompose", "default_abbreviations", "errors", "evaluate", "export_tsv",
    "format_features", "format_report", "format_sentence", "format_vertical",
    "guess_unknown", "iter_tagged", "lexicon", "list_by", "load_lexicon", "load_model",
    "load_registry", "load_rules", "merge_multiwords", "parse_features", "parse_lexicon",
    "parse_rules", "parse_tag", "parse_vertical", "read_vertical", "save_model",
    "seed_lexicon", "sentence_split", "split_enclitics", "split_portmanteau", "tag_text",
    "tagger", "tagset", "tokenize", "tokenizer", "train", "viterbi_decode", "write_vertical",
]
MODULES = {"bias", "corpus_io", "errors", "lexicon", "tagger", "tagset", "tokenizer"}


def loaded_modules(script: str, *args: str, cwd: Path | None = None) -> set[str]:
    """The `spantag` submodules loaded once `script` ran in a fresh interpreter;
    the script's last line of standard error lists them."""
    script += (
        "\nprint(*sorted(m.removeprefix('spantag.') for m in sys.modules"
        " if m.startswith('spantag.')), file=sys.stderr)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(run.stderr.splitlines()[-1].split())


# Runs `spantag ARGS` in-process, then lists the loaded submodules.
CLI = """\
import sys
from spantag.cli import main
try:
    main(sys.argv[1:])
except SystemExit:  # --help
    pass
"""

CORE = {"_core", "_tagset_data"}  # the tag table, its reader and the token record


def test_each_command_loads_only_what_it_runs(tmp_path):
    """`train` loads the model code and the corpus reader only, never the
    model-file reader; `validate`
    and `eval` load neither the tokenizer nor the feature registry;
    `tokenize` and `tag` load no feature registry; `--help` loads only the
    CLI and its errors."""
    files = {
        "gold.vrt": "la\tARTDFS\nmesa\tNCFS\n.\t.\n\n",
        "lexicon.tsv": "mesa\tNCFS\n",
        "rules.txt": "FORBID ARTDFS NCMP\n",
        "input.txt": "La mesa .\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cli = {"cli", "errors"}
    commands = {
        "--help": ([], cli),
        "tagset": ([], cli | CORE | {"tagset"}),
        "tokenize": (["input.txt"], cli | CORE | {"tokenizer"}),
        "validate": (["gold.vrt"], cli | CORE | {"corpus_io"}),
        "train": (["--corpus", "gold.vrt", "--model", "toy.model"],
                  cli | CORE | {"corpus_io", "_model"}),
        "eval": (["--gold", "gold.vrt", "--pred", "gold.vrt"], cli | CORE | {"corpus_io"}),
    }
    for command, (args, expected) in commands.items():
        assert loaded_modules(CLI, command, *args, cwd=tmp_path) == expected, command
    # a rules file adds the rules module and nothing else; so does a lexicon to eval
    assert loaded_modules(CLI, "validate", "gold.vrt", "--rules", "rules.txt", cwd=tmp_path) == (
        commands["validate"][1] | {"bias"})
    assert loaded_modules(
        CLI, "eval", "--gold", "gold.vrt", "--pred", "gold.vrt", "--lexicon", "lexicon.tsv",
        cwd=tmp_path,
    ) == commands["eval"][1] | {"lexicon"}
    assert loaded_modules(
        CLI, "tag", "input.txt", "--model", "toy.model", "--lexicon", "lexicon.tsv",
        "--rules", "rules.txt", cwd=tmp_path,
    ) == cli | CORE | {"_model", "_model_reader"} | MODULES - {"tagset"}


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("import sys, spantag") == set()
    # a name loads its own module and what that module imports, no more
    assert loaded_modules("import sys, spantag; spantag.Lexicon") == {
        "lexicon", "errors", "_core", "_tagset_data"}


# The model modules that reading each model name loads, beside `_core`.
MODEL_MODULES = {"train": {"_model"}, "HmmModel": {"_model"}, "save_model": {"_model"},
                 "load_model": {"_model_reader", "_model"}}


@pytest.mark.parametrize("name, public", [
    ("Token", "tokenizer"), ("Tag", "tagset"), ("parse_tag", "tagset"),
    ("train", "tagger"), ("HmmModel", "tagger"), ("load_model", "tagger"),
    ("save_model", "tagger"),
])
def test_a_re_exported_name_loads_only_its_defining_module(name, public):
    """`spantag.Token` loads `_core`, not the tokenizer that re-exports it;
    `spantag.train` loads `_model`, not the decoder or the model-file
    reader; `spantag.load_model` loads the reader and the `_model` it
    builds models with."""
    loaded = loaded_modules(f"import sys, spantag; spantag.{name}")
    assert public not in loaded
    assert loaded == CORE | {"errors"} | MODEL_MODULES.get(name, set())


def test_public_names_are_the_modules_objects():
    assert spantag.__all__ == PUBLIC_NAMES
    assert set(dir(spantag)) >= set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(spantag, name)
        if name in MODULES:
            assert value is sys.modules[f"spantag.{name}"], name
        else:
            module = sys.modules[f"spantag.{spantag._MODULE_OF[name]}"]
            assert value is getattr(module, name), name
    assert spantag.train is spantag.tagger.train
    assert spantag._MODULE_OF["load_model"] == "_model_reader"
    assert spantag.load_model is sys.modules["spantag._model_reader"].load_model
    assert spantag.tagger is sys.modules["spantag.tagger"]
    assert spantag.tagger.TaggedSentence is spantag.corpus_io.TaggedSentence
    assert spantag.TaggedSentence is spantag.corpus_io.TaggedSentence


# The names `tagger`, `tagset` and `tokenizer` take from `_model`,
# `_model_reader` and `_core`.
MODEL_NAMES = (
    "COUNTS_MARKER", "END", "START", "UNKNOWN", "HmmModel", "model_to_text", "save_model", "train",
)
READER_NAMES = ("load_model", "model_from_text")
TABLE_NAMES = ("REGISTRY_SIZE", "Tag", "TableColumns", "_TAGS", "parse_tag", "table_columns")
TOKEN_NAMES = (
    "KIND_ABBREVIATION", "KIND_CODE", "KIND_ENCLITIC_PART", "KIND_NUMBER",
    "KIND_PORTMANTEAU_PART", "KIND_PUNCTUATION", "KIND_WORD", "Token", "_is_punct_char",
)


def test_moved_names_are_the_same_objects():
    from spantag import _core, _model, _model_reader, corpus_io, tagger, tagset, tokenizer
    for name in MODEL_NAMES:
        assert getattr(tagger, name) is getattr(_model, name), name
    for name in READER_NAMES:
        assert getattr(tagger, name) is getattr(_model_reader, name), name
        assert not hasattr(_model, name), name  # `train` never compiles the reader
    for name in TABLE_NAMES:
        assert getattr(tagset, name) is getattr(_core, name), name
    for name in TOKEN_NAMES:
        assert getattr(tokenizer, name) is getattr(_core, name), name
    assert tokenizer.Token is corpus_io.Token is _core.Token
    assert spantag.Token is spantag.tokenizer.Token and spantag.Tag is _core.Tag
    # the layout and the unmarked mood are each held once
    assert tagset._COLUMNS is _core._COLUMNS
    assert tagset.FeatureBundle(category="verb").mood == _core._UNMARKED_MOOD


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spantag import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(spantag, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        spantag.no_such_name  # noqa: B018
    assert not hasattr(spantag, "allowed")  # a name the package dropped
    # a private submodule is not a public name, yet still imports
    from spantag import _tagset_data
    assert _tagset_data is sys.modules["spantag._tagset_data"]


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    corpus = spantag.parse_vertical(
        "la\tARTDFS\nmesa\tNCFS\n.\t.\n\nJuan\tNPAMS\nestá\tVLPI3S\n.\t.\n\n").sentences
    out = io.StringIO()
    namespace = {"corpus_sentences": corpus, "long_text": "La mesa . Juan está .", "out": out}
    exec(block, namespace)
    assert namespace["sentences"]
    assert out.getvalue().count("\n\n") == 2
