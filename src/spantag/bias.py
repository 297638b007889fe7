"""Transition-bias rules: hard constraints over adjacent tag pairs.

A rules file holds one directive per line, ``FORBID <pat> <pat>`` or
``REQUIRE <pat> <pat>``.  A forbid rule bans every adjacent pair whose
tags match its two patterns; a require rule demands that whenever the
left pattern matches a tag, its successor matches the right pattern
(the sentence-final position is exempt because it has no successor).

Constraints intersect, so evaluation is order independent and adding a
rule can only shrink the allowed relation.  Patterns are shell-style
globs.  A rule set compiles each rule once, when it is built, to the
registry codes its left pattern matches and the right codes it bans;
the banned-pair table for constant-time queries and the rule that
`validate_sequence` reports are both read from those sets.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from pathlib import Path

from .errors import BadPattern, RuleSyntaxError, content_lines, parse_file
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


@dataclass(frozen=True)
class BiasRule:
    kind: str  # FORBID or REQUIRE
    left: TagPattern
    right: TagPattern
    rule_id: int  # 1-based source line number


class RuleSet:
    """Immutable ordered collection of bias rules, with its banned-pair
    table: left code -> frozenset of the right codes that may not follow."""

    def __init__(self, rules: tuple[BiasRule, ...]):
        self.rules = tuple(rules)
        # (rule id, left codes, banned right codes) of each rule, in file order
        self._bans: list[tuple[int, frozenset[str], frozenset[str]]] = []
        banned: dict[str, set[str]] = {}
        codes = load_registry().codes() if self.rules else ()  # no rules: no registry
        for rule in self.rules:
            lefts = fnmatch.filter(codes, rule.left.pattern)
            rights = frozenset(fnmatch.filter(codes, rule.right.pattern))
            for pattern, matched in ((rule.left, lefts), (rule.right, rights)):
                if not matched:
                    raise BadPattern(pattern.pattern, "matches no registry tag", rule.rule_id)
            if rule.kind == REQUIRE:
                rights = frozenset(codes) - rights
            self._bans.append((rule.rule_id, frozenset(lefts), rights))
            if rights:
                for left_code in lefts:
                    banned.setdefault(left_code, set()).update(rights)
        self.banned = {k: frozenset(v) for k, v in banned.items()}

    def __len__(self) -> int:
        return len(self.rules)

    def allowed(self, t1: Tag, t2: Tag) -> bool:
        """May t2 immediately follow t1?"""
        return t2.code not in self.banned.get(t1.code, ())

    def validate_sequence(self, tags: list[Tag]) -> list[tuple[int, int]]:
        """Violations as (pair index, rule id), naming for each banned pair
        the first rule in file order that bans it; empty list means valid.
        The table is the union of the same sets, so that rule exists."""
        return [
            (i, next(rule_id for rule_id, lefts, rights in self._bans
                     if t1.code in lefts and t2.code in rights))
            for i, (t1, t2) in enumerate(zip(tags, tags[1:]))
            if not self.allowed(t1, t2)
        ]


EMPTY_RULESET = RuleSet(())


def parse_rules(text: str) -> RuleSet:
    """Parse a rules file body.

    Blank lines and lines starting with ``#`` are ignored.  Raises
    RuleSyntaxError for anything that is not a two-pattern FORBID or
    REQUIRE directive and BadPattern for malformed patterns.
    """
    rules = []
    for line_no, line in content_lines(text):
        fields = line.split()
        if len(fields) != 3:
            raise RuleSyntaxError("expected 'FORBID|REQUIRE <pattern> <pattern>'", line_no)
        directive, left, right = fields
        if directive == "FORBID":
            kind = FORBID
        elif directive == "REQUIRE":
            kind = REQUIRE
        else:
            raise RuleSyntaxError(f"unknown directive {directive!r}", line_no)
        try:
            rule = BiasRule(kind, TagPattern(left), TagPattern(right), rule_id=line_no)
        except BadPattern as exc:
            raise BadPattern(exc.pattern, exc.message, line_no) from None
        rules.append(rule)
    return RuleSet(tuple(rules))


def load_rules(path: str | Path) -> RuleSet:
    return parse_file(path, parse_rules)

