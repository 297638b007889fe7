"""Reading model files: a counts file, or v1 probability rows, checked.

`load_model` and `model_from_text` read what `_model`'s writer writes, a
counts file, and the older v1 files, which nothing writes any more.
A counts file in `save_model`'s own layout is read a section at a time
(`_sections`), which reports no fault and numbers no line: it leaves any
other file, and any file with a faulty row, to the row scanner
(`_data_rows`).  Only the row scanner numbers lines, so every message
and line number comes from it: on a file in the layout it runs only when
the load fails.
Both take a row's names from `_model._row_names`, so the tables hold the
registry's own str for each tag, START and END, not the file's copies.
`spantag train` writes a model but never reads one, so it does not
compile this module.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import cache
from pathlib import Path

# `_model` is imported first, see the note above `cli.cmd_train`
from ._model import (
    COUNTS_MARKER, EMISSIONS, END, META, START, TRANSITIONS, UNKNOWN, Counts, HmmModel,
    _row_names, _smoothed_model, _smoothing_constant,
)
from ._core import parse_tag, table_columns
from .errors import ModelFormatError, UnknownTag, parse_file, split_lines

_COUNT_LIMIT = 2**63  # counts at or above this are rejected, so sums stay floats
Where = Callable[[str | tuple[str, str]], int | None]  # a key's line, see `_data_rows`


def load_model(path: str | Path) -> HmmModel:
    """The model in the file at `path`, read by `model_from_text`.  A fault
    raises a TaggingError that names the path, and the line if it has one."""
    return parse_file(path, model_from_text)


def _count(text: str, least: int = 0) -> int:
    """`text` as a count of at least `least`, spelled in ASCII digits
    only, else a ValueError.  `int` alone would also take signs, blanks,
    ``_`` and non-ASCII digits."""
    if text.isascii() and text.isdigit() and len(text) < 20:
        value = int(text)
        if least <= value < _COUNT_LIMIT:
            return value
    raise ValueError(text)


def _smoothing_text(name: str, text: str) -> float:
    """`text` as a smoothing constant, spelled in ASCII with no ``_`` and
    no blanks around it, which `float` alone would take."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return _smoothing_constant(name, float(text))


def _meta_fields(meta: dict[str, str], where: Where) -> tuple[float, float, dict, str, int]:
    """kt, ke, tag counts, corpus name and token count of a META section."""

    def meta_number(key: str, convert, default: str | None = None):
        text = meta.get(key, default)
        if text is None:
            raise ModelFormatError(f"META lacks required key {key!r}")
        try:
            return convert(text)
        except ValueError:
            raise ModelFormatError(f"bad META value {text!r} for {key!r}", where(key)) from None

    kt = meta_number("kt", lambda text: _smoothing_text("kt", text))
    ke = meta_number("ke", lambda text: _smoothing_text("ke", text))
    tag_counts = {}
    for key in meta:
        if key.startswith("count."):
            code = key[len("count."):]
            try:
                parse_tag(code)
            except UnknownTag:
                raise ModelFormatError(f"META counts unknown tag {code!r}", where(key)) from None
            tag_counts[code] = meta_number(key, _count)
    token_count = meta_number("tokens", _count, default="0")
    return kt, ke, tag_counts, meta.get("corpus", ""), token_count


def model_from_text(text: str) -> HmmModel:
    """Parse and validate a serialized model: a counts file when its first
    line is ``COUNTS``, v1 probability rows otherwise."""
    tables = _sections(text)
    if tables is not None:
        # Lines come from the row scanner, run once, when a check is about to
        # raise; `_sections` read the file, so that scan meets no fault.
        first_lines = cache(lambda: _count_rows(split_lines(text))[3])
        return _model_from_counts(*tables, lambda key: first_lines().get(key))
    lines = split_lines(text)
    if lines[0] != COUNTS_MARKER:
        return _model_from_v1(lines)
    *tables, first_lines = _count_rows(lines)
    return _model_from_counts(*tables, first_lines.get)


def _count_rows(lines: list[str]):
    """`_data_rows` of a counts file's lines after its COUNTS line."""
    return _data_rows(enumerate(lines[1:], 2),
                      "count rows must be 'context<TAB>outcome<TAB>count'", _count_cell)


_SECTIONS = (TRANSITIONS, EMISSIONS, META)
_LAYOUT_HEAD = f"{COUNTS_MARKER}\n{TRANSITIONS}\n"
_EMISSIONS_LINE, _META_LINE = f"\n{EMISSIONS}\n", f"\n{META}\n"


def _sections(text: str) -> tuple[Counts, Counts, dict[str, str]] | None:
    """The transition and emission tables and META ``key -> value`` that
    `_data_rows` makes of `text`, when it is a counts file in
    `save_model`'s layout whose rows the row scanner finds no fault in;
    else None, and the row scanner reads it.  Never raises; numbers no line.

    The layout: the ``COUNTS``, ``TRANSITIONS``, ``EMISSIONS`` and
    ``META`` lines in that order, LF line ends and a final one, no blank
    line, and each context's rows next to each other.  Each section is
    read with a few string and list operations done in C, where the row
    scanner makes several Python calls per row.
    """
    if not text.startswith(_LAYOUT_HEAD) or "\r" in text:
        return None
    emissions_at = text.find(_EMISSIONS_LINE)
    meta_at = text.find(_META_LINE, emissions_at)
    if not len(_LAYOUT_HEAD) - 1 <= emissions_at < meta_at:
        return None
    names = _row_names()
    transitions = _section_rows(text[len(_LAYOUT_HEAD):emissions_at + 1],
                                names.contexts, names.outcomes)
    emissions = _section_rows(text[emissions_at + len(_EMISSIONS_LINE):meta_at + 1],
                              names.tags, None)
    if transitions is None or emissions is None:
        return None
    meta: dict[str, str] = {}
    meta_lines = text[meta_at + len(_META_LINE):].split("\n")
    if meta_lines.pop():  # the text ends with a line end
        return None
    for raw in meta_lines:
        key, tab, value = raw.partition("\t")
        if not tab or "\t" in value or key in meta or raw.isspace():
            return None
        meta[key] = value
    return transitions, emissions, meta


def _section_rows(body: str, contexts: dict[str, str],
                  outcomes: dict[str, str] | None) -> Counts | None:
    """A data section's rows as ``{context: {outcome: count}}``, or None
    if one would be a fault or the section is not in `_sections`' layout.
    `body` is its rows, each ended by a line end.  `contexts` and
    `outcomes` map each allowed code to
    the registry's own str, which the rows hold in place of the file's
    copies, so a loaded model holds each code once, not once per row
    (0.21 MiB less for the news-stream bench model on 64-bit CPython
    3.11).  `outcomes` of None allows any outcome but UNKNOWN."""
    n_rows = body.count("\n")
    # Each line end becomes a cell of its own, so the rows have three cells
    # each exactly when every fourth cell is a line end.
    cells = body.replace("\n", "\t\n\t").split("\t")
    cells.pop()  # the empty cell after the last line end
    if len(cells) != 4 * n_rows or cells[3::4].count("\n") != n_rows:
        return None
    keys, outcome_cells, count_cells = cells[0::4], cells[1::4], cells[2::4]
    # `_count`'s rule in bulk: ASCII digits, no leading zero (so no 0 and no
    # empty cell either), fewer than 20 digits, below `_COUNT_LIMIT`
    digits = "".join(count_cells)
    if not (digits.isascii() and digits.isdigit() and min(count_cells) >= "1"
            and max(map(len, count_cells)) < 20):
        return None
    counts = list(map(int, count_cells))
    if max(counts) >= _COUNT_LIMIT:
        return None
    if outcomes is None:
        if UNKNOWN in outcome_cells:
            return None
    else:
        outcome_cells = list(map(outcomes.get, outcome_cells))
        if None in outcome_cells:
            return None
    rows: Counts = {}
    order = list(dict.fromkeys(keys))  # each context at its first row
    start = 0
    for context, following in zip(order, [*order[1:], None]):
        end = n_rows if following is None else keys.index(following, start)
        # a context's rows are next to each other, and no outcome repeats
        row = dict(zip(outcome_cells[start:end], counts[start:end]))
        if keys[start:end].count(context) != end - start or len(row) != end - start:
            return None
        context = contexts.get(context)
        if context is None:
            return None
        rows[context] = row
        start = end
    return rows


def _data_rows(numbered: Iterator[tuple[int, str]], row_format: str, read_value):
    """Scan a model file's ``(line number, line)`` pairs for its sections:
    its TRANSITIONS and EMISSIONS rows as ``{context: {outcome: value}}``
    in file order, its META rows as ``key -> value``, and the lines a
    `Where` looks up: at ``(section, context)`` of its first row, at a
    META key of its row, at ``("into", outcome)`` of the first
    transition into that outcome, and at ``(context, outcome)`` of a
    transition row.  A row's value is
    ``read_value(section, outcome, cell, line_no)``, read in the same pass,
    so the first fault in file order is the one reported.  Blank lines are
    skipped; data before the first section header, rows of the wrong
    width, a second row for one pair or META key, rows whose context or
    outcome no model can hold and a file that lacks one of the three
    section headers are rejected."""
    names = _row_names()
    allowed = {TRANSITIONS: (names.contexts, names.outcomes), EMISSIONS: (names.tags, None)}
    tables: dict[str, dict[str, dict]] = {TRANSITIONS: {}, EMISSIONS: {}}
    meta: dict[str, str] = {}
    first_lines: dict[str | tuple[str, str], int] = {}
    headers = set()
    section = rows = contexts = outcomes = None
    for line_no, raw in numbered:
        cells = raw.split("\t")
        if rows is None or len(cells) != 3:
            if not raw.strip():
                continue
            if raw in _SECTIONS:
                headers.add(raw)
                section, rows = raw, tables.get(raw)
                contexts, outcomes = allowed.get(raw, (None, None))
                continue
            if section is None:
                raise ModelFormatError("data before the first section header", line_no)
            if rows is not None:
                raise ModelFormatError(row_format, line_no)
            if len(cells) != 2:
                raise ModelFormatError("META rows must be 'key<TAB>value'", line_no)
            if cells[0] in meta:
                raise ModelFormatError(f"second META row for {cells[0]!r}", line_no)
            meta[cells[0]] = cells[1]
            first_lines[cells[0]] = line_no
            continue
        context, outcome, cell = cells
        row = rows.get(context)
        if row is None:
            if context not in contexts:
                if not raw.strip():  # two tabs among blanks
                    continue
                raise ModelFormatError(
                    f"emission tag {context!r} is not a registry tag" if outcomes is None
                    else f"transition context {context!r} is neither {START} nor a registry tag",
                    line_no,
                )
            context = contexts[context]  # the registry's str, not the file's
            row = rows[context] = {}
            first_lines[section, context] = line_no
        if outcomes is not None:
            if outcome not in outcomes:
                raise ModelFormatError(
                    f"transition outcome {outcome!r} is neither a registry tag nor {END}", line_no
                )
            outcome = outcomes[outcome]
            first_lines.setdefault(("into", outcome), line_no)
            first_lines[context, outcome] = line_no
        value = read_value(section, outcome, cell, line_no)
        if outcome in row:
            raise ModelFormatError(f"second {section} row for {context!r} {outcome!r}", line_no)
        row[outcome] = value
    missing = [header for header in _SECTIONS if header not in headers]
    if missing:
        raise ModelFormatError(f"missing section header{'s' * (len(missing) > 1)}: "
                               + ", ".join(missing))
    return tables[TRANSITIONS], tables[EMISSIONS], meta, first_lines


def _probability_cell(_section: str, _outcome: str, cell: str, line_no: int) -> float:
    """A v1 row's probability, from its log10 cell."""
    try:
        prob = 10.0 ** float(cell)
    except (ValueError, OverflowError):
        raise ModelFormatError(f"bad log-probability {cell!r}", line_no) from None
    if not prob > 0.0:
        raise ModelFormatError(f"log-probability {cell!r} is not above -inf", line_no)
    return prob


def _count_cell(section: str, outcome: str, cell: str, line_no: int) -> int:
    """A counts row's count; no row may emit UNKNOWN."""
    try:
        n = _count(cell, least=1)
    except ValueError:
        raise ModelFormatError(f"count {cell!r} is not a positive integer", line_no) from None
    if outcome == UNKNOWN and section == EMISSIONS:
        raise ModelFormatError(f"emission form {UNKNOWN!r} is reserved for unknown words", line_no)
    return n


def _model_from_v1(lines: list[str]) -> HmmModel:
    """Parse v1 probability rows (normalization checked by HmmModel)."""
    transitions, emissions, meta, first_lines = _data_rows(
        enumerate(lines, 1), "probability rows must be 'context<TAB>outcome<TAB>log10-prob'",
        _probability_cell)
    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta, first_lines.get)
    vocab = frozenset().union(*emissions.values()) - {UNKNOWN}
    return HmmModel(transitions, emissions, tag_counts, vocab, kt, ke, corpus_name, token_count)


def _model_from_counts(trans_counts: Counts, emit_counts: Counts, meta: dict[str, str],
                       where: Where) -> HmmModel:
    """Check that a counts file's tables agree with each other and that
    they hold a sentence, and smooth them as `train` does."""
    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta, where)
    outgoing = {context: sum(row.values()) for context, row in trans_counts.items()}
    emitted = {code: sum(row.values()) for code, row in emit_counts.items()}
    incoming: dict[str, int] = {}
    for row in trans_counts.values():
        for outcome, n in row.items():
            incoming[outcome] = incoming.get(outcome, 0) + n

    codes = table_columns().codes
    for code in codes:
        n_emitted, n_outgoing = emitted.get(code, 0), outgoing.get(code, 0)
        if n_emitted and code not in tag_counts:
            raise ModelFormatError(f"tag {code!r} emits but META has no count.{code}",
                                   where((EMISSIONS, code)))
        if n_emitted != tag_counts.get(code, 0):
            raise ModelFormatError(
                f"count.{code} is {tag_counts[code]} but its emissions total {n_emitted}",
                where(f"count.{code}"))
        if n_outgoing != n_emitted:
            raise ModelFormatError(
                f"tag {code!r} has {n_outgoing} outgoing transitions but {n_emitted} emissions",
                where((TRANSITIONS, code)) or where((EMISSIONS, code)),
            )
    started, sentences = outgoing.get(START, 0), incoming.get(END, 0)
    if started != sentences:
        raise ModelFormatError(f"{START} has {started} transitions but {sentences} lead to {END}",
                               where((TRANSITIONS, START)))
    for code in codes:
        n_incoming, n_emitted = incoming.get(code, 0), emitted.get(code, 0)
        if n_incoming != n_emitted:
            raise ModelFormatError(
                f"tag {code!r} has {n_incoming} incoming transitions but {n_emitted} emissions",
                where(("into", code)) or where((EMISSIONS, code)),
            )
    if token_count != sum(tag_counts.values()):
        raise ModelFormatError(
            f"tokens is {token_count} but the tag counts total {sum(tag_counts.values())}",
            where("tokens"),
        )
    # Checked last, so each fault above keeps its message: no corpus gives a
    # tag a count of 0 or holds no sentence.
    for code, n in tag_counts.items():
        if not n:
            raise ModelFormatError(f"count.{code} is 0: a counts file lists only tags seen "
                                   "in training", where(f"count.{code}"))
    if not started:
        raise ModelFormatError(f"no transition leaves {START}: the counts hold no sentence")
    # With the balances above, the counts split into START...END walks of a
    # token or more, which is what a corpus gives, exactly when no START row
    # leads straight to END and every tag with a row is reached from START.
    if END in trans_counts[START]:
        raise ModelFormatError(f"{START} leads straight to {END}: no sentence is empty",
                               where((START, END)))
    # Breadth first, a level in one union done in C, until every tag is reached:
    # about 40 us for a model of the news-stream bench gold (2 vCPUs, CPython 3.11).
    reached, found = {START, END}, {START}
    while found and len(reached) <= len(trans_counts):
        found = set().union(*map(trans_counts.__getitem__, found)) - reached
        reached |= found
    for code in trans_counts:
        if code not in reached:
            raise ModelFormatError(f"tag {code!r} is not reached from {START}: "
                                   "no sentence holds it", where((TRANSITIONS, code)))
    return _smoothed_model(trans_counts, emit_counts, kt, ke, corpus_name)

