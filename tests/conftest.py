import sys
from pathlib import Path

import pytest

from spantag.tagset import parse_tag
from spantag.tagger import TaggedSentence
from spantag.tokenizer import KIND_PUNCTUATION, KIND_WORD, Token

# Many tests read the benchmark's seeded inputs: `import synth`.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


def make_token(surface, kind=None, span=(0, 0)):
    if kind is None:
        kind = KIND_PUNCTUATION if surface in ".,;:!?" else KIND_WORD
    return Token(surface=surface, span=span, kind=kind)


def sentence(*pairs):
    """Build a TaggedSentence from (surface, code) pairs."""
    return TaggedSentence(
        pairs=tuple((make_token(s), parse_tag(c)) for s, c in pairs)
    )


@pytest.fixture
def toy_corpus():
    """Two copies of 'la mesa .' plus one 'la mano grande .'."""
    return [
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("la", "ARTDFS"), ("mesa", "NCFS"), (".", ".")),
        sentence(("la", "ARTDFS"), ("mano", "NCFS"), ("grande", "ADJGFS"), (".", ".")),
    ]
