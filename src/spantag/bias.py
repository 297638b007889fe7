"""Transition-bias rules: hard constraints over adjacent tag pairs.

A rules file holds one directive per line, ``FORBID <pat> <pat>`` or
``REQUIRE <pat> <pat>``.  A forbid rule bans every adjacent pair whose
tags match its two patterns; a require rule demands that whenever the
left pattern matches a tag, its successor matches the right pattern
(the sentence-final position is exempt because it has no successor).

Constraints intersect, so evaluation is order independent and adding a
rule can only shrink the allowed relation.  Patterns are shell-style
globs, and a rule set compiles, when it is built, to a banned-pair table
over the registry for constant-time queries.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

from .errors import BadPattern, RuleSyntaxError, parse_file
from .tagset import Tag, load_registry

FORBID = "forbid"
REQUIRE = "require"

# Literal characters a pattern may use: the alphabet of registry codes.
# "?" is the single-character wildcard, a trailing "*" matches any suffix.
# None of them is special to fnmatch ("[" is left out), so a pattern is a
# shell-style glob with exactly these meanings.
_LITERAL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" + '!"(),-.:;')


@dataclass(frozen=True)
class TagPattern:
    """Shell-style glob over tag codes."""

    pattern: str

    def __post_init__(self):
        if not self.pattern:
            raise BadPattern(self.pattern, "empty pattern")
        body = self.pattern[:-1] if self.pattern.endswith("*") else self.pattern
        if "*" in body:
            raise BadPattern(self.pattern, "'*' is only allowed as the final character")
        bad = [c for c in body if c != "?" and c not in _LITERAL_CHARS]
        if bad:
            raise BadPattern(self.pattern, f"invalid character {bad[0]!r}")

    def matches(self, code: str) -> bool:
        return fnmatch.fnmatchcase(code, self.pattern)


@dataclass(frozen=True)
class BiasRule:
    kind: str  # FORBID or REQUIRE
    left: TagPattern
    right: TagPattern
    rule_id: int  # 1-based source line number

    def violates(self, left_code: str, right_code: str) -> bool:
        """True when this single rule rejects the adjacent pair."""
        if self.kind == FORBID:
            return self.left.matches(left_code) and self.right.matches(right_code)
        return self.left.matches(left_code) and not self.right.matches(right_code)


class RuleSet:
    """Immutable ordered collection of bias rules, with its banned-pair
    table: left code -> frozenset of the right codes that may not follow."""

    def __init__(self, rules: tuple[BiasRule, ...]):
        self.rules = tuple(rules)
        banned: dict[str, set[str]] = {}
        codes = load_registry().codes() if self.rules else ()  # no rules: no registry
        for rule in self.rules:
            lefts = fnmatch.filter(codes, rule.left.pattern)
            rights = set(fnmatch.filter(codes, rule.right.pattern))
            for pattern, matched in ((rule.left, lefts), (rule.right, rights)):
                if not matched:
                    raise BadPattern(pattern.pattern, "matches no registry tag", line=rule.rule_id)
            if rule.kind == REQUIRE:
                rights = set(codes) - rights
            if rights:
                for left_code in lefts:
                    banned.setdefault(left_code, set()).update(rights)
        self.banned = {k: frozenset(v) for k, v in banned.items()}

    def __len__(self) -> int:
        return len(self.rules)

    def allowed(self, t1: Tag, t2: Tag) -> bool:
        """May t2 immediately follow t1?"""
        return t2.code not in self.banned.get(t1.code, ())

    def first_violation(self, t1: Tag, t2: Tag) -> BiasRule | None:
        """The first rule (in file order) rejecting the pair, if any."""
        for rule in self.rules:
            if rule.violates(t1.code, t2.code):
                return rule
        return None

    def validate_sequence(self, tags: list[Tag]) -> list[tuple[int, int]]:
        """Violations as (pair index, rule id); empty list means valid."""
        # The compiled table bans exactly the pairs some rule violates, so
        # only the pairs it rejects need the rule-by-rule search.
        return [
            (i, self.first_violation(tags[i], tags[i + 1]).rule_id)
            for i in range(len(tags) - 1)
            if not self.allowed(tags[i], tags[i + 1])
        ]


EMPTY_RULESET = RuleSet(())


def parse_rules(text: str) -> RuleSet:
    """Parse a rules file body.

    Blank lines and lines starting with ``#`` are ignored.  Raises
    RuleSyntaxError for anything that is not a two-pattern FORBID or
    REQUIRE directive and BadPattern for malformed patterns.
    """
    rules = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise RuleSyntaxError(line_no, "expected 'FORBID|REQUIRE <pattern> <pattern>'")
        directive, left, right = fields
        if directive == "FORBID":
            kind = FORBID
        elif directive == "REQUIRE":
            kind = REQUIRE
        else:
            raise RuleSyntaxError(line_no, f"unknown directive {directive!r}")
        try:
            rule = BiasRule(kind, TagPattern(left), TagPattern(right), rule_id=line_no)
        except BadPattern as exc:
            raise BadPattern(exc.pattern, exc.message, line=line_no) from None
        rules.append(rule)
    return RuleSet(tuple(rules))


def load_rules(path: str | Path) -> RuleSet:
    return parse_file(path, parse_rules)


def allowed(ruleset: RuleSet, t1: Tag, t2: Tag) -> bool:
    return ruleset.allowed(t1, t2)


def validate_sequence(ruleset: RuleSet, tags: list[Tag]) -> list[tuple[int, int]]:
    return ruleset.validate_sequence(tags)
