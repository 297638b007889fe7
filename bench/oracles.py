"""Correctness checks for the spantag benchmark.

Each check compares program output against the generator's record
(``synth.Workload``) or against a reference written here: a rule
matcher, a feasibility search, a max-product dynamic program and add-k
counts taken straight from the generated gold corpus.  None of them
calls the function it checks.  Every check returns a list of problems;
an empty list means the check passed.
"""

from __future__ import annotations

import random
import re

from spantag import tagger
from spantag.tagset import load_registry

from synth import Item, Part, deaccent

START, END, UNKNOWN = "<s>", "</s>", "<unk>"
_WHITESPACE = frozenset(b" \t\r\n")
_LIMIT = 20  # problems reported per check


# ------------------------------------------------------------------ rules

class Rules:
    """FORBID/REQUIRE rules read with the benchmark's own matcher."""

    def __init__(self, text: str):
        self.rules = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, left, right = line.split()
            self.rules.append((kind, _pattern(left), _pattern(right), line_no))
        self._memo: dict[tuple[str, str], int | None] = {}

    def first_violation(self, left: str, right: str) -> int | None:
        """Line of the first rule, in file order, that bans the pair."""
        key = (left, right)
        if key not in self._memo:
            self._memo[key] = next(
                (line for kind, lp, rp, line in self.rules
                 if lp.fullmatch(left) and (rp.fullmatch(right) is not None) == (kind == "FORBID")),
                None,
            )
        return self._memo[key]

    def banned(self, left: str, right: str) -> bool:
        return self.first_violation(left, right) is not None


def _pattern(text: str) -> re.Pattern:
    body, star = (text[:-1], ".*") if text.endswith("*") else (text, "")
    return re.compile("".join("." if ch == "?" else re.escape(ch) for ch in body) + star)


def feasible(layers: list[frozenset[str]], rules: Rules) -> bool:
    """Is there a tag path through `layers` with no banned pair?"""
    reachable = set(layers[0])
    for layer in layers[1:]:
        reachable = {t for t in layer if any(not rules.banned(p, t) for p in reachable)}
        if not reachable:
            return False
    return True


# ----------------------------------------------------------------- checks

def _report(problems: list[str], message: str):
    if len(problems) < _LIMIT:
        problems.append(message)


def check_spans(text: str, sentences) -> list[str]:
    """Spans cover the input: each token spells its bytes, only whitespace
    lies between tokens, and split parts share their parent's span and
    spell it once accents are removed."""
    data = text.encode("utf-8")
    problems: list[str] = []
    tokens = [token for s in sentences for token, _tag in s.pairs]
    pos = 0
    i = 0
    while i < len(tokens):
        token = tokens[i]
        start, end = token.span
        group = [token]
        while i + len(group) < len(tokens) and token.origin is not None \
                and tokens[i + len(group)].span == token.span:
            group.append(tokens[i + len(group)])
        i += len(group)
        if not 0 <= pos <= start <= end <= len(data):
            _report(problems, f"span {token.span} of {token.surface!r} out of order")
            continue
        if not set(data[pos:start]) <= _WHITESPACE:
            _report(problems, f"non-space bytes {data[pos:start][:20]!r} before {token.surface!r}")
        source = data[start:end].decode("utf-8", errors="replace")
        if token.origin is None:
            if source != token.surface:
                _report(problems, f"span {token.span} holds {source!r}, token says {token.surface!r}")
        else:
            parent = token.origin[0]
            joined = "".join(t.surface for t in group)
            if source != parent or [t.origin for t in group] != [(parent, k) for k in range(len(group))]:
                _report(problems, f"split parts of {parent!r} do not share its span")
            elif deaccent(joined).lower() != deaccent(parent).lower():
                _report(problems, f"parts {joined!r} do not spell {parent!r}")
        pos = end
    if not set(data[pos:]) <= _WHITESPACE:
        _report(problems, "input not covered to its end")
    return problems


def check_tags(expected: list[list[Item]], sentences) -> list[str]:
    """Textwords come back as generated, each with a tag from its class;
    clitic groups come back as host plus clitics, in order."""
    problems: list[str] = []
    if len(expected) != len(sentences):
        return [f"{len(sentences)} sentences, expected {len(expected)}"]
    for s_index, (items, sentence) in enumerate(zip(expected, sentences)):
        want = [(item, part) for item in items for part in item.parts]
        if len(want) != len(sentence.pairs):
            _report(problems, f"sentence {s_index}: {len(sentence.pairs)} tokens, expected {len(want)}")
            continue
        for (item, part), (token, tag) in zip(want, sentence.pairs):
            if token.surface != part.surface:
                _report(problems, f"sentence {s_index}: token {token.surface!r}, expected {part.surface!r}")
            elif tag.code not in part.allowed:
                _report(problems, f"sentence {s_index}: {token.surface!r} tagged {tag.code}, "
                                  f"class {sorted(part.allowed)}")
            elif (item.kind == "enclitic") != (token.kind == "enclitic-part"):
                _report(problems, f"sentence {s_index}: {token.surface!r} has kind {token.kind}")
    return problems


def check_rules(expected: list[list[Item]], sentences, rules: Rules) -> list[str]:
    """No banned pair outside #FALLBACK sentences; no allowed path at all
    inside them."""
    problems: list[str] = []
    for s_index, (items, sentence) in enumerate(zip(expected, sentences)):
        codes = [tag.code for tag in sentence.tags]
        if sentence.fallback:
            layers = [part.allowed for item in items for part in item.parts]
            if feasible(layers, rules):
                _report(problems, f"sentence {s_index} fell back but has an allowed path")
        else:
            for k in range(len(codes) - 1):
                if rules.banned(codes[k], codes[k + 1]):
                    _report(problems, f"sentence {s_index}: banned pair {codes[k]} {codes[k + 1]}")
    return problems


def reference_score(model, prepared, rules: Rules | None) -> float | None:
    """Max-product DP (log10) over the prepared lattice, or None when the
    rules leave no path."""
    emits = tagger.emission_scores(model, prepared)
    layers = [sorted(row) for row in emits]
    best = {t: model.transition_logp(START, t) + emits[0][t] for t in layers[0]}
    for i in range(1, len(layers)):
        nxt = {}
        for t in layers[i]:
            scores = [
                score + model.transition_logp(p, t)
                for p, score in best.items()
                if rules is None or not rules.banned(p, t)
            ]
            if scores:
                nxt[t] = max(scores) + emits[i][t]
        if not nxt:
            return None
        best = nxt
    return max(score + model.transition_logp(t, END) for t, score in best.items())


def path_score(model, prepared, codes: list[str]) -> float:
    emits = tagger.emission_scores(model, prepared)
    score = model.transition_logp(START, codes[0]) + emits[0][codes[0]]
    for i in range(1, len(codes)):
        score += model.transition_logp(codes[i - 1], codes[i]) + emits[i][codes[i]]
    return score + model.transition_logp(codes[-1], END)


def check_score(model, prepared, rules: Rules, codes: list[str], score: float,
                constrained: bool, tol: float = 1e-9) -> list[str]:
    """A decoded path (`codes`, `score`) is optimal: under the rules when
    the decoder kept them (`constrained`), else without them, and the
    decoder dropped the rules only where no allowed path exists."""
    ref = reference_score(model, prepared, rules)
    if (ref is not None) != constrained:
        return [f"decoder {'kept' if constrained else 'dropped'} the rules, "
                f"reference search {'finds' if ref is not None else 'finds no'} allowed path"]
    if ref is None:
        ref = reference_score(model, prepared, None)
    problems = []
    if abs(score - ref) > tol:
        problems.append(f"viterbi score {score!r}, reference optimum {ref!r}")
    if abs(path_score(model, prepared, codes) - ref) > tol:
        problems.append("viterbi path does not reach the optimum score")
    if constrained and any(rules.banned(a, b) for a, b in zip(codes, codes[1:])):
        problems.append("viterbi path holds a banned pair")
    return problems


def gold_counts(gold: list[list[Part]]):
    """Transition, emission and tag counts of the generated gold corpus."""
    trans: dict[tuple[str, str], int] = {}
    emit: dict[tuple[str, str], int] = {}
    tags: dict[str, int] = {}
    for sentence in gold:
        prev = START
        for part in sentence:
            trans[prev, part.gold] = trans.get((prev, part.gold), 0) + 1
            emit[part.gold, part.surface] = emit.get((part.gold, part.surface), 0) + 1
            tags[part.gold] = tags.get(part.gold, 0) + 1
            prev = part.gold
        trans[prev, END] = trans.get((prev, END), 0) + 1
    return trans, emit, tags


def check_probabilities(models, gold: list[list[Part]], seed: int, kt: float = 0.5,
                        ke: float = 0.1, samples: int = 200, tol: float = 1e-9) -> list[str]:
    """Sampled stored probabilities equal (c+k)/(n+k*V) for counts taken
    from the gold corpus, in every model given (trained and reloaded)."""
    trans, emit, tags = gold_counts(gold)
    codes = list(load_registry().codes())
    vocab = sorted({form for _tag, form in emit})
    contexts = [START] + sorted(tags)
    context_totals: dict[str, int] = {}
    for (prev, _nxt), n in trans.items():
        context_totals[prev] = context_totals.get(prev, 0) + n
    rng = random.Random(f"probabilities:{seed}")
    seen_trans = sorted(trans)
    seen_emit = sorted(emit)
    t_keys = [rng.choice(seen_trans) for _ in range(samples // 2)]
    t_keys += [(rng.choice(contexts), rng.choice(codes + [END])) for _ in range(samples // 2)]
    e_keys = [rng.choice(seen_emit) for _ in range(samples // 2)]
    e_keys += [(rng.choice(sorted(tags)), rng.choice(vocab + [UNKNOWN])) for _ in range(samples // 2)]
    problems: list[str] = []
    for label, model in models:
        for ctx, out in t_keys:
            want = (trans.get((ctx, out), 0) + kt) / (context_totals[ctx] + kt * (len(codes) + 1))
            got = 10.0 ** model.transition_logp(ctx, out)
            if not abs(got - want) <= tol:
                _report(problems, f"{label}: P({out}|{ctx}) = {got!r}, counts give {want!r}")
        for tag, form in e_keys:
            want = (emit.get((tag, form), 0) + ke) / (tags[tag] + ke * (len(vocab) + 1))
            got = 10.0 ** model.emission_logp(tag, form)
            if not abs(got - want) <= tol:
                _report(problems, f"{label}: P({form}|{tag}) = {got!r}, counts give {want!r}")
    return problems


def expected_validate(vertical_text: str, rules: Rules) -> tuple[str, int]:
    """Stdout and exit code `spantag validate --rules` must give."""
    lines = []
    sentences: list[list[str]] = [[]]
    for raw in vertical_text.splitlines():
        if not raw:
            sentences.append([])
        elif raw != "#FALLBACK":
            sentences[-1].append(raw.rsplit("\t", 1)[1])
    sentences = [s for s in sentences if s]
    for s_index, codes in enumerate(sentences):
        for k in range(len(codes) - 1):
            line = rules.first_violation(codes[k], codes[k + 1])
            if line is not None:
                lines.append(f"sentence {s_index}, token {k}: pair '{codes[k]} {codes[k + 1]}' "
                             f"violates rule at line {line}\n")
    return "".join(lines), 1 if lines else 0


def check_train_summary(stdout: str, gold: list[list[Part]]) -> list[str]:
    trans, emit, tags = gold_counts(gold)
    want = (f"sentences\t{len(gold)}\ntokens\t{sum(tags.values())}\n"
            f"vocabulary\t{len({form for _t, form in emit})}\ntags-seen\t{len(tags)}\n")
    return [] if stdout == want else [f"train summary {stdout!r}, expected {want!r}"]
