"""`Token` is a frozen, slotted record: what callers may do with one."""

import copy
import dataclasses
import pickle

import pytest

from spantag import tokenizer as tok
from spantag.tagset import parse_tag

WHOLE = tok.Token("casa", (3, 7), tok.KIND_WORD)
PART = tok.Token("lo", (0, 9), tok.KIND_ENCLITIC_PART, ("dígamelo", 2),
                 frozenset({parse_tag("PPO3XS")}))


@pytest.mark.parametrize("token", [WHOLE, PART], ids=["whole", "part"])
def test_assignment_and_deletion_raise(token):
    for field in dataclasses.fields(tok.Token):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(token, field.name, getattr(token, field.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(token, field.name)
    # a name that is no field, as the class without slots refused it
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        token.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'extra'"):
        del token.extra
    assert not hasattr(token, "extra")


def test_equality_and_hash_follow_the_fields():
    same = tok.Token("casa", (3, 7), "word", None, None)
    assert same == WHOLE and hash(same) == hash(WHOLE)
    assert same is not WHOLE
    for changed in (
        tok.Token("Casa", (3, 7), tok.KIND_WORD),
        tok.Token("casa", (3, 8), tok.KIND_WORD),
        tok.Token("casa", (3, 7), tok.KIND_ABBREVIATION),
        tok.Token("casa", (3, 7), tok.KIND_WORD, ("casa", 0)),
        tok.Token("casa", (3, 7), tok.KIND_WORD, None, frozenset()),
    ):
        assert changed != WHOLE
    assert len({WHOLE, same, PART}) == 2
    assert WHOLE != ("casa", (3, 7), tok.KIND_WORD, None, None)


def test_keywords_and_defaults():
    assert tok.Token(kind=tok.KIND_WORD, span=(3, 7), surface="casa") == WHOLE
    assert tok.Token("lo", (0, 9), tok.KIND_ENCLITIC_PART, candidates=PART.candidates,
                     origin=("dígamelo", 2)) == PART
    assert (WHOLE.origin, WHOLE.candidates) == (None, None)
    with pytest.raises(TypeError):
        tok.Token("casa", (3, 7))


def test_repr():
    assert repr(WHOLE) == "Token(surface='casa', span=(3, 7), kind='word', origin=None, candidates=None)"
    assert repr(PART) == (
        "Token(surface='lo', span=(0, 9), kind='enclitic-part', origin=('dígamelo', 2), "
        "candidates=frozenset({Tag(code='PPO3XS')}))"
    )


def test_replace_and_asdict():
    moved = dataclasses.replace(WHOLE, span=(4, 8))
    assert moved == tok.Token("casa", (4, 8), tok.KIND_WORD)
    assert WHOLE.span == (3, 7)
    assert dataclasses.replace(PART) == PART
    assert dataclasses.asdict(WHOLE) == dict(
        surface="casa", span=(3, 7), kind="word", origin=None, candidates=None)
    assert [f.name for f in dataclasses.fields(tok.Token)] == \
           ["surface", "span", "kind", "origin", "candidates"]


@pytest.mark.parametrize("token", [WHOLE, PART], ids=["whole", "part"])
@pytest.mark.parametrize("copier", [
    copy.copy,
    copy.deepcopy,
    *(lambda t, p=p: pickle.loads(pickle.dumps(t, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy", *(f"pickle-{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copies_are_equal_frozen_tokens(token, copier):
    twin = copier(token)
    assert type(twin) is tok.Token
    assert twin == token and hash(twin) == hash(token)
    assert repr(twin) == repr(token)
    with pytest.raises(dataclasses.FrozenInstanceError):
        twin.surface = "x"


def test_no_instance_dict():
    assert not hasattr(WHOLE, "__dict__")
    with pytest.raises(TypeError):
        vars(WHOLE)
    assert tok.Token.__slots__ == ("surface", "span", "kind", "origin", "candidates")
