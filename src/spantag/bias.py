"""Transition-bias rules: hard constraints over adjacent tag pairs.

A rules file holds one directive per line, ``FORBID <pat> <pat>`` or
``REQUIRE <pat> <pat>``.  A forbid rule bans every adjacent pair whose
tags match its two patterns; a require rule demands that whenever the
left pattern matches a tag, its successor matches the right pattern
(the sentence-final position is exempt because it has no successor).

Constraints intersect, so evaluation is order independent and adding a
rule can only shrink the allowed relation.  In a pattern, ``?`` matches
any one character and a final ``*`` any suffix, possibly empty; every
other character matches itself.  A rule set compiles each rule once,
when it is built, to the registry codes its left pattern matches and
the right codes it bans, matching each distinct pattern once against
all codes; the banned-pair table for constant-time queries and the rule
that `validate_sequence` reports are both read from those sets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from ._core import Tag, table_columns
from .errors import BadPattern, RuleSyntaxError, content_lines, parse_file

FORBID = "forbid"
REQUIRE = "require"

# Literal characters a pattern may use: the alphabet of registry codes.
# "?" is the single-character wildcard, a trailing "*" matches any suffix.
_LITERAL_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789" + '!"(),-.:;')


@dataclass(frozen=True)
class TagPattern:
    """Wildcard pattern over tag codes: ``?`` for one character, a final
    ``*`` for any suffix."""

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

    def regex(self) -> str:
        """A regular expression that, under re.MULTILINE, matches exactly
        the lines of a newline-joined code list that this pattern matches."""
        star = self.pattern.endswith("*")
        body = self.pattern[:-1] if star else self.pattern
        parts = ["[^\n]" if c == "?" else re.escape(c) for c in body]
        return "^" + "".join(parts) + ("[^\n]*" if star else "") + "$"


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
        codes = table_columns().codes if self.rules else ()  # no rules: no table read
        joined = "\n".join(codes)
        matches: dict[str, list[str]] = {}  # pattern -> its codes, in registry order

        def match(pattern: TagPattern, rule_id: int) -> list[str]:
            found = matches.get(pattern.pattern)
            if found is None:
                found = matches[pattern.pattern] = re.findall(pattern.regex(), joined, re.M)
            if not found:
                raise BadPattern(pattern.pattern, "matches no registry tag", rule_id)
            return found

        for rule in self.rules:
            lefts = match(rule.left, rule.rule_id)
            rights = frozenset(match(rule.right, rule.rule_id))
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

