"""Spanish morphosyntactic tagging toolkit.

A closed tag registry with feature decomposition, a Spanish-aware
tokenizer, a lexicon with ambiguity classes and unknown-word guessing,
transition-bias rules, and a bigram HMM tagger whose Viterbi decoding
honours the rules as hard constraints.

Importing the package loads none of its modules: each public name
loads the module that defines it on first use (PEP 562), so a command
pays only for the modules it runs.
"""

# The public submodules.
_MODULES = ("bias", "corpus_io", "errors", "lexicon", "tagger", "tagset", "tokenizer")

# Public names by the module that defines them.  `tagset` and `tokenizer`
# re-export the `_core` names and `tagger` the `_model` and `_model_reader`
# ones, but reading `spantag.Token` or `spantag.train` loads only the
# defining module.
_EXPORTS = {
    "_core": ("Tag", "Token", "parse_tag"),
    "_model": ("HmmModel", "save_model", "train"),
    "_model_reader": ("load_model",),
    "bias": ("BiasRule", "RuleSet", "TagPattern", "load_rules", "parse_rules"),
    "corpus_io": (
        "EvalReport", "TaggedSentence", "VerticalDocument", "evaluate", "format_report",
        "format_sentence", "format_vertical", "parse_vertical", "read_vertical",
        "write_vertical",
    ),
    "errors": (
        "AlignmentError", "BadPattern", "EmptyCorpus", "EmptyInput", "LexiconParseError",
        "ModelFormatError", "NoSuchTag", "NoValidPath", "RegistryError", "RuleSyntaxError",
        "SmoothingError", "TaggingError", "UnknownTag", "VerticalFormatError",
    ),
    "lexicon": (
        "AmbiguityClass", "Lexicon", "ambiguity_report", "guess_unknown", "load_lexicon",
        "parse_lexicon", "save_lexicon", "seed_lexicon",
    ),
    "tagger": ("candidates", "iter_tagged", "tag_text", "viterbi_decode"),
    "tagset": (
        "FeatureBundle", "Registry", "RegistryEntry", "compose", "decompose", "export_tsv",
        "format_features", "list_by", "load_registry", "parse_features",
    ),
    "tokenizer": (
        "SplitDecision", "default_abbreviations", "merge_multiwords", "sentence_split",
        "split_enclitics", "split_portmanteau", "tokenize",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_MODULES, *_MODULE_OF])


def _submodule(module: str):
    # `__import__`, unlike `importlib.import_module`, shows in `-X importtime`
    __import__(f"{__name__}.{module}")
    return globals()[module]  # the import binds the submodule on the package


def __getattr__(name: str):
    if name in _MODULES:
        return _submodule(name)
    module = _MODULE_OF.get(name)
    if module is None:
        # `from spantag import <submodule>` then imports the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_submodule(module), name)  # later reads skip this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
