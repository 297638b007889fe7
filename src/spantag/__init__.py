"""Spanish morphosyntactic tagging toolkit.

A closed tag registry with feature decomposition, a Spanish-aware
tokenizer, a lexicon with ambiguity classes and unknown-word guessing,
transition-bias rules, and a bigram HMM tagger whose Viterbi decoding
honours the rules as hard constraints.
"""

from .bias import BiasRule, RuleSet, TagPattern, load_rules, parse_rules
from .corpus_io import (
    EvalReport,
    VerticalDocument,
    evaluate,
    format_report,
    format_vertical,
    parse_vertical,
    read_vertical,
    write_vertical,
)
from .errors import (
    AlignmentError,
    BadPattern,
    EmptyCorpus,
    EmptyInput,
    LexiconParseError,
    ModelFormatError,
    NoSuchTag,
    NoValidPath,
    RegistryError,
    RuleSyntaxError,
    SmoothingError,
    TaggingError,
    UnknownTag,
    VerticalFormatError,
)
from .lexicon import (
    AmbiguityClass,
    Lexicon,
    ambiguity_report,
    guess_unknown,
    load_lexicon,
    parse_lexicon,
    save_lexicon,
    seed_lexicon,
)
from .tagger import (
    HmmModel,
    TaggedSentence,
    candidates,
    load_model,
    save_model,
    tag_text,
    train,
    viterbi_decode,
)
from .tagset import (
    FeatureBundle,
    Registry,
    RegistryEntry,
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
from .tokenizer import (
    SplitDecision,
    Token,
    default_abbreviations,
    merge_multiwords,
    sentence_split,
    split_enclitics,
    split_portmanteau,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
