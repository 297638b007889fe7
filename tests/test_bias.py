"""Bias rule parsing, matching, and compiled-table equivalence."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spantag
from spantag.bias import EMPTY_RULESET, TagPattern, parse_rules
from spantag.errors import BadPattern, RuleSyntaxError
from spantag.tagset import load_registry, parse_tag


def tags(*codes):
    return [parse_tag(c) for c in codes]


def test_parse_forbid():
    rs = parse_rules("FORBID ARTDFS NCMP\n")
    assert len(rs) == 1
    assert rs.rules[0].kind == "forbid"
    assert rs.rules[0].rule_id == 1


def test_parse_require():
    rs = parse_rules("REQUIRE PPOSPS NC*\n")
    assert rs.rules[0].kind == "require"


def test_parse_comments_blanks_and_line_ids():
    rs = parse_rules("# heading\n\nFORBID A* D*\n# mid\nREQUIRE C* D*\n")
    assert [r.rule_id for r in rs.rules] == [3, 5]


def test_shipped_example_rules_parse():
    """The example file enables nothing as shipped, and each of its
    commented-out rules parses once uncommented."""
    text = (Path(spantag.__file__).parent / "data" / "example_rules.txt").read_text(encoding="utf-8")
    assert len(parse_rules(text)) == 0
    examples = [line[1:] for line in text.split("\n") if line.startswith(("#FORBID ", "#REQUIRE "))]
    assert len(examples) == 6
    for line in examples:
        assert len(parse_rules(line)) == 1, line


@pytest.mark.parametrize("text, line, pattern", [
    ("FORBID ARTDFS NCMPP\n", 1, "NCMPP"),
    ("# typo\nFORBID ARTDZS NCFS\n", 2, "ARTDZS"),
    ("FORBID ARTDFS NCM?\nREQUIRE B* NC*\n", 2, "B*"),
    ("REQUIRE PPOSPS NC???????\n", 1, "NC???????"),
])
def test_parse_rejects_pattern_matching_no_registry_tag(text, line, pattern):
    with pytest.raises(BadPattern) as err:
        parse_rules(text)
    assert (err.value.line, err.value.pattern) == (line, pattern)
    assert "matches no registry tag" in str(err.value)


def test_parse_bad_directive():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rules("BLOCK ARTDFS NCMP\n")
    assert err.value.line == 1


def test_parse_wrong_arity():
    with pytest.raises(RuleSyntaxError):
        parse_rules("FORBID ARTDFS\n")
    with pytest.raises(RuleSyntaxError):
        parse_rules("FORBID A B C\n")


def test_interior_star_rejected():
    with pytest.raises(BadPattern) as err:
        parse_rules("FORBID A*B C\n")
    assert err.value.line == 1
    assert err.value.pattern == "A*B"


def test_lowercase_pattern_rejected():
    with pytest.raises(BadPattern):
        TagPattern("ncfs")
    with pytest.raises(BadPattern, match="empty pattern"):
        TagPattern("")


def matched(pattern):
    """Registry codes `pattern` matches, as the left side of a compiled rule."""
    return set(parse_rules(f"FORBID {pattern} *").banned)


def test_pattern_matching():
    assert matched("ARTD?S") == {"ARTDFS", "ARTDMS", "ARTDNS"}
    assert "ARTDFP" not in matched("ARTD?S")
    assert matched("NC*") == {"NCFP", "NCFS", "NCMP", "NCMS"}
    assert "ADJGFS" not in matched("NC*")
    assert matched("PREP*") == {"PREP", "PREPN"}  # empty suffix allowed
    assert "," in matched("*")
    assert matched("...") == {"..."}


def test_allowed_forbid():
    rs = parse_rules("FORBID ARTDFS NCMP\n")
    assert rs.allowed(parse_tag("ARTDFS"), parse_tag("NCMP")) is False
    assert rs.allowed(parse_tag("ARTDFS"), parse_tag("NCFS")) is True
    assert rs.allowed(parse_tag("NCMP"), parse_tag("ARTDFS")) is True  # ordered


def test_allowed_require():
    rs = parse_rules("REQUIRE PPOSPS NC*\n")
    assert rs.allowed(parse_tag("PPOSPS"), parse_tag("NCFS")) is True
    assert rs.allowed(parse_tag("PPOSPS"), parse_tag("VLINF")) is False
    assert rs.allowed(parse_tag("NCFS"), parse_tag("VLINF")) is True


def test_empty_ruleset_allows_everything():
    assert EMPTY_RULESET.allowed(parse_tag("ARTDFS"), parse_tag("NCMP"))


def test_validate_sequence_empty():
    rs = parse_rules("FORBID ARTDFS NCMP\n")
    assert rs.validate_sequence([]) == []
    assert rs.validate_sequence(tags("ARTDFS")) == []


def test_validate_sequence_violation():
    rs = parse_rules("FORBID ARTDFS NCMP\n")
    assert rs.validate_sequence(tags("ARTDFS", "NCMP")) == [(0, 1)]
    assert rs.validate_sequence(tags("NCFS", "ARTDFS", "NCMP")) == [(1, 1)]
    assert rs.validate_sequence(tags("ARTDFS", "NCFS")) == []


def test_validate_sequence_reports_first_matching_rule():
    rs = parse_rules("FORBID ARTD?S NCMP\nFORBID ARTDFS NC*\n")
    assert rs.validate_sequence(tags("ARTDFS", "NCMP")) == [(0, 1)]


def test_require_exempts_sequence_end():
    rs = parse_rules("REQUIRE PPOSPS NC*\n")
    # final position has no successor to constrain
    assert rs.validate_sequence(tags("NCFS", "PPOSPS")) == []


# ------------------------------------------------ naive-oracle equivalence

def naive_matches(pattern, code):
    """Independent re-implementation of pattern semantics."""
    if pattern.endswith("*"):
        prefix = pattern[:-1]
        if len(code) < len(prefix):
            return False
        pairs = zip(prefix, code[: len(prefix)])
    else:
        if len(pattern) != len(code):
            return False
        pairs = zip(pattern, code)
    return all(p == "?" or p == c for p, c in pairs)


def naive_rules(lines):
    """(rule id, directive, left, right) of each line of a rules text
    holding only directives, read without the parser."""
    return [(line_no, *line.split()) for line_no, line in enumerate(lines, start=1)]


def naive_first_violation(rules, c1, c2):
    """Id of the first rule, in file order, that rejects the pair, or None."""
    for rule_id, directive, left, right in rules:
        if naive_matches(left, c1) and naive_matches(right, c2) == (directive == "FORBID"):
            return rule_id
    return None


def naive_allowed(rules, c1, c2):
    return naive_first_violation(rules, c1, c2) is None


def random_pattern(rng, codes):
    base = rng.choice(codes)
    kind = rng.random()
    if kind < 0.35 and len(base) > 1:
        return base[: rng.randrange(1, len(base))] + "*"
    if kind < 0.7:
        chars = list(base)
        chars[rng.randrange(len(chars))] = "?"
        return "".join(chars)
    return base


def random_rule_lines(rng, codes, n_rules):
    lines = []
    for _ in range(n_rules):
        directive = rng.choice(["FORBID", "REQUIRE"])
        lines.append(
            f"{directive} {random_pattern(rng, codes)} {random_pattern(rng, codes)}"
        )
    return lines


def code_patterns(code):
    """Patterns that match `code`: itself, ``?`` at each position, and
    each prefix plus ``*``."""
    return {code} | {code[:i] + "?" + code[i + 1:] for i in range(len(code))} | {
        code[:i] + "*" for i in range(len(code) + 1)}


def test_pattern_matching_equals_naive_full_registry():
    codes = load_registry().codes()
    rng = random.Random(11)
    patterns = {random_pattern(rng, codes) for _ in range(200)}
    patterns |= {p for code in codes for p in code_patterns(code)}
    patterns |= {"*"} | {"?" * n for n in range(1, max(map(len, codes)) + 2)}
    patterns |= set('!"(),-.:;') | {c + "*" for c in '!"(),-.:;'}
    patterns |= {"...", "..*", "?.", "???*"}
    for pattern in sorted(patterns):
        expected = {code for code in codes if naive_matches(pattern, code)}
        if expected:
            assert matched(pattern) == expected, pattern
        else:
            with pytest.raises(BadPattern):
                matched(pattern)


def test_compiled_table_equals_naive_full_registry():
    registry = load_registry()
    codes = registry.codes()
    rng = random.Random(12)
    for _round in range(2):
        lines = random_rule_lines(rng, codes, 3)
        rs = parse_rules("\n".join(lines))
        triples = naive_rules(lines)
        table = rs.banned
        for c1 in codes:
            banned = table.get(c1, frozenset())
            for c2 in codes:
                assert (c2 not in banned) == naive_allowed(triples, c1, c2)


def test_allowed_equals_naive_random_pairs():
    registry = load_registry()
    codes = registry.codes()
    rng = random.Random(13)
    for _round in range(25):
        lines = random_rule_lines(rng, codes, rng.randrange(1, 6))
        rs = parse_rules("\n".join(lines))
        triples = naive_rules(lines)
        for _ in range(300):
            c1, c2 = rng.choice(codes), rng.choice(codes)
            assert rs.allowed(parse_tag(c1), parse_tag(c2)) == naive_allowed(triples, c1, c2)


def test_monotonicity_adding_rules():
    """A forbidden pair never becomes allowed when rules are added."""
    registry = load_registry()
    codes = registry.codes()
    rng = random.Random(14)
    for _round in range(10):
        lines = random_rule_lines(rng, codes, 4)
        small = parse_rules("\n".join(lines[:2]))
        big = parse_rules("\n".join(lines))
        for _ in range(200):
            t1, t2 = parse_tag(rng.choice(codes)), parse_tag(rng.choice(codes))
            if not small.allowed(t1, t2):
                assert not big.allowed(t1, t2)


def test_validation_agrees_with_allowed():
    rng = random.Random(15)
    codes = load_registry().codes()
    for _round in range(20):
        rs = parse_rules("\n".join(random_rule_lines(rng, codes, 3)))
        seq = tags(*(rng.choice(codes) for _ in range(rng.randrange(0, 7))))
        violations = {i for i, _rid in rs.validate_sequence(seq)}
        for i in range(max(0, len(seq) - 1)):
            assert (i in violations) == (not rs.allowed(seq[i], seq[i + 1]))


def naive_validate_sequence(rules, codes):
    """Reference: the first violated rule of every adjacent pair, rule by rule."""
    violations = []
    for i in range(len(codes) - 1):
        rule_id = naive_first_violation(rules, codes[i], codes[i + 1])
        if rule_id is not None:
            violations.append((i, rule_id))
    return violations


def test_validate_sequence_equals_per_pair_search():
    rng = random.Random(16)
    codes = load_registry().codes()
    found = 0
    for round_no in range(80):
        # Half the rounds draw rules and tags from a small pool, so the
        # rules often fire; the other half draw from the full registry.
        pool = rng.sample(codes, 12) if round_no % 2 else codes
        lines = random_rule_lines(rng, pool, rng.randrange(1, 6))
        rs = parse_rules("\n".join(lines))
        seq = [rng.choice(pool) for _ in range(rng.randrange(0, 40))]
        expected = naive_validate_sequence(naive_rules(lines), seq)
        assert rs.validate_sequence(tags(*seq)) == expected
        found += len(expected)
    assert found > 50


def test_rules_add_no_import_cost():
    """Importing the package and parsing an empty rules file never loads
    the registry, nor even reads the table's columns."""
    script = (
        "import spantag, spantag.cli\n"
        "from spantag.bias import parse_rules\n"
        "from spantag.tagset import load_registry, table_columns\n"
        "parse_rules('')\n"
        "print(load_registry.cache_info().currsize, table_columns.cache_info().currsize)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(spantag.__file__).parents[1])},
    )
    assert run.stdout == "0 0\n"


# Runs `spantag ARGS` in-process, then reports whether the registry was built.
CLI_THEN_REGISTRY = """\
import sys
from spantag.cli import main
from spantag.tagset import load_registry
code = main(sys.argv[1:])
print(code, load_registry.cache_info().currsize, file=sys.stderr)
"""


def test_tag_validate_and_train_build_no_registry(tmp_path):
    """Tagging, training and validating read only the table's columns;
    only the feature commands, such as `tagset`, build the registry."""
    files = {
        "gold.vrt": "la\tARTDFS\nmesa\tNCFS\n.\t.\n\nvender\tVLINF\nlo\tPPO3XS\n.\t.\n\n",
        "lexicon.tsv": "vender\tVLINF\n",
        "rules.txt": "FORBID ARTDFS NCMP\nREQUIRE PPOSPS NC*\nFORBID ?? .*\n",
        "abbrev.txt": "núm.\n",
        "multiwords.txt": "sin embargo\n",
        "input.txt": "La mesa, sin embargo, núm. 3 . Voy a venderlo .\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = {
        "train": (["train", "--corpus", "gold.vrt", "--model", "toy.model"], 0),
        "tag": (["tag", "input.txt", "--model", "toy.model", "--lexicon", "lexicon.tsv",
                 "--rules", "rules.txt", "--abbrev", "abbrev.txt",
                 "--multiwords", "multiwords.txt", "-o", "tagged.vrt"], 0),
        "validate": (["validate", "tagged.vrt", "--rules", "rules.txt"], 0),
        "tagset": (["tagset", "--category", "verb"], 1),
    }
    for name, (args, built) in commands.items():
        run = subprocess.run(
            [sys.executable, "-c", CLI_THEN_REGISTRY, *args], cwd=tmp_path,
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(spantag.__file__).parents[1])},
        )
        assert run.stderr.splitlines()[-1] == f"0 {built}", (name, run.stderr)
    # the multiword, the abbreviation and the enclitic split all took effect
    tagged = (tmp_path / "tagged.vrt").read_text(encoding="utf-8")
    surfaces = {line.split("\t")[0] for line in tagged.splitlines()}
    assert {"sin embargo", "núm.", "vender", "lo"} <= surfaces
