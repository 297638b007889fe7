"""Reading model files: a counts file, or v1 probability rows, checked.

`load_model` and `model_from_text` read what `_model`'s writers write.
A counts file in `save_model`'s own layout is read a section at a time
(`_sections`), which reports no fault: it leaves any other file, and
any file with a faulty row, to the row scanner (`_data_rows`).  So only
the row scanner reports a fault in a row, the checks that follow run on
the same tables either way, and no message or line number depends on
the path.  Both take a row's names from `_model._row_names`, so the
tables hold the registry's own str for each tag, START and END, not
the file's copies.  `spantag train` writes a model but never reads
one, so it does not compile this module.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

# `_model` is imported first, see the note above `cli.cmd_train`
from ._model import (
    COUNTS_MARKER, END, START, UNKNOWN, Counts, HmmModel, _row_names, _smoothed_model,
    _smoothing_constant,
)
from ._core import parse_tag, table_columns
from .errors import ModelFormatError, UnknownTag, parse_file, split_lines

_COUNT_LIMIT = 2**63  # counts at or above this are rejected, so sums stay floats


def load_model(path: str | Path) -> HmmModel:
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


def _meta_fields(meta: dict[str, tuple[str, int]]) -> tuple[float, float, dict[str, int], str, int]:
    """kt, ke, tag counts, corpus name and token count of a META section."""

    def meta_number(key: str, convert, default: str | None = None):
        value, line_no = meta.get(key, (default, None))
        if value is None:
            raise ModelFormatError(f"META lacks required key {key!r}")
        try:
            return convert(value)
        except ValueError:
            raise ModelFormatError(f"bad META value {value!r} for {key!r}", line_no) from None

    kt = meta_number("kt", lambda text: _smoothing_text("kt", text))
    ke = meta_number("ke", lambda text: _smoothing_text("ke", text))
    tag_counts = {}
    for key, (_value, line_no) in meta.items():
        if key.startswith("count."):
            code = key[len("count."):]
            try:
                parse_tag(code)
            except UnknownTag:
                raise ModelFormatError(f"META counts unknown tag {code!r}", line_no) from None
            tag_counts[code] = meta_number(key, _count)
    token_count = meta_number("tokens", _count, default="0")
    return kt, ke, tag_counts, meta.get("corpus", ("", None))[0], token_count


def model_from_text(text: str) -> HmmModel:
    """Parse and validate a serialized model: a counts file when its first
    line is ``COUNTS``, v1 probability rows otherwise."""
    tables = _sections(text)
    if tables is None:
        lines = split_lines(text)
        if lines[0] != COUNTS_MARKER:
            return _model_from_v1(lines)
        numbered = enumerate(lines, 1)
        next(numbered)  # the COUNTS line
        tables = _data_rows(numbered, "count rows must be 'context<TAB>outcome<TAB>count'",
                            _count_cell)
    return _model_from_counts(text, *tables)


_LAYOUT_HEAD = f"{COUNTS_MARKER}\nTRANSITIONS\n"


def _sections(text: str) -> tuple[Counts, Counts, dict, dict] | None:
    """The tables that `_data_rows` makes of a counts file, when `text` is
    one in `save_model`'s layout and the row scanner would find no fault
    in its rows; else None, and the row scanner reads it.  Never raises.

    The layout: the ``COUNTS``, ``TRANSITIONS``, ``EMISSIONS`` and
    ``META`` lines in that order, LF line ends and a final one, no blank
    line, and each context's rows next to each other.  Each section is
    read with a few string and list operations done in C, where the row
    scanner makes several Python calls per row.
    """
    if not text.startswith(_LAYOUT_HEAD) or "\r" in text:
        return None
    emissions_at = text.find("\nEMISSIONS\n")
    meta_at = text.find("\nMETA\n", emissions_at)
    if not len(_LAYOUT_HEAD) - 1 <= emissions_at < meta_at:
        return None
    names = _row_names()
    first_lines: dict[tuple[str, str], int] = {}
    trans_body = text[len(_LAYOUT_HEAD):emissions_at + 1]
    transitions = _section_rows(trans_body, "TRANSITIONS", 3, names.contexts, names.outcomes,
                                first_lines)
    if transitions is None:
        return None
    line_no = 4 + trans_body.count("\n")  # of the first emission row
    emit_body = text[emissions_at + len("\nEMISSIONS\n"):meta_at + 1]
    emissions = _section_rows(emit_body, "EMISSIONS", line_no, names.tags, None, first_lines)
    if emissions is None:
        return None
    line_no += emit_body.count("\n") + 1  # of the first META row
    meta: dict[str, tuple[str, int]] = {}
    meta_lines = text[meta_at + len("\nMETA\n"):].split("\n")
    if meta_lines.pop():  # the text ends with a line end
        return None
    for line_no, raw in enumerate(meta_lines, line_no):
        key, tab, value = raw.partition("\t")
        if not tab or "\t" in value or key in meta or raw.isspace():
            return None
        meta[key] = (value, line_no)
    return transitions, emissions, meta, first_lines


def _section_rows(body: str, section: str, line_no: int, contexts: dict[str, str],
                  outcomes: dict[str, str] | None, first_lines: dict) -> Counts | None:
    """A data section's rows as ``{context: {outcome: count}}``, or None
    if one would be a fault or the section is not in `_sections`' layout.
    `body` is its rows, each ended by a line end, the first at line
    `line_no`; the line of each context's first row goes to
    `first_lines`.  `contexts` and `outcomes` map each allowed code to
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
        first_lines[section, context] = line_no + start
        start = end
    return rows


_SECTIONS = ("TRANSITIONS", "EMISSIONS", "META")


def _data_rows(numbered: Iterator[tuple[int, str]], row_format: str, read_value):
    """Scan a model file's ``(line number, line)`` pairs for its sections:
    its TRANSITIONS and EMISSIONS rows as ``{context: {outcome: value}}``
    in file order, its META rows as ``key -> (value, line number)``, and
    the line of each ``(section, context)``'s first row.  A row's value is
    ``read_value(section, outcome, cell, line_no)``, read in the same pass,
    so the first fault in file order is the one reported.  Blank lines are
    skipped; data before the first section header, rows of the wrong
    width, a second row for one pair or META key and rows whose context or
    outcome no model can hold are rejected."""
    names = _row_names()
    allowed = {"TRANSITIONS": (names.contexts, names.outcomes), "EMISSIONS": (names.tags, None)}
    tables: dict[str, dict[str, dict]] = {"TRANSITIONS": {}, "EMISSIONS": {}}
    meta: dict[str, tuple[str, int]] = {}
    first_lines: dict[tuple[str, str], int] = {}
    section = rows = contexts = outcomes = None
    for line_no, raw in numbered:
        cells = raw.split("\t")
        if rows is None or len(cells) != 3:
            if not raw.strip():
                continue
            if raw in _SECTIONS:
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
            meta[cells[0]] = (cells[1], line_no)
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
        value = read_value(section, outcome, cell, line_no)
        if outcome in row:
            raise ModelFormatError(f"second {section} row for {context!r} {outcome!r}", line_no)
        row[outcome] = value
    return tables["TRANSITIONS"], tables["EMISSIONS"], meta, first_lines


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
    if outcome == UNKNOWN and section == "EMISSIONS":
        raise ModelFormatError(f"emission form {UNKNOWN!r} is reserved for unknown words", line_no)
    return n


def _model_from_v1(lines: list[str]) -> HmmModel:
    """Parse v1 probability rows (normalization checked by HmmModel)."""
    transitions, emissions, meta, _first_lines = _data_rows(
        enumerate(lines, 1), "probability rows must be 'context<TAB>outcome<TAB>log10-prob'",
        _probability_cell)
    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta)
    vocab = frozenset().union(*emissions.values()) - {UNKNOWN}
    return HmmModel(transitions, emissions, tag_counts, vocab, kt, ke, corpus_name, token_count)


def _model_from_counts(text: str, trans_counts: Counts, emit_counts: Counts,
                       meta: dict[str, tuple[str, int]],
                       first_lines: dict[tuple[str, str], int]) -> HmmModel:
    """Check that a counts file's tables agree with each other and that
    they hold a sentence, and smooth them as `train` does."""
    kt, ke, tag_counts, corpus_name, token_count = _meta_fields(meta)
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
                                   first_lines["EMISSIONS", code])
        if n_emitted != tag_counts.get(code, 0):
            raise ModelFormatError(
                f"count.{code} is {tag_counts[code]} but its emissions total {n_emitted}",
                meta[f"count.{code}"][1])
        if n_outgoing != n_emitted:
            raise ModelFormatError(
                f"tag {code!r} has {n_outgoing} outgoing transitions but {n_emitted} emissions",
                first_lines.get(("TRANSITIONS", code), first_lines.get(("EMISSIONS", code))),
            )
    started, sentences = outgoing.get(START, 0), incoming.get(END, 0)
    if started != sentences:
        raise ModelFormatError(f"{START} has {started} transitions but {sentences} lead to {END}",
                               first_lines.get(("TRANSITIONS", START)))
    for code in codes:
        n_incoming, n_emitted = incoming.get(code, 0), emitted.get(code, 0)
        if n_incoming != n_emitted:
            raise ModelFormatError(
                f"tag {code!r} has {n_incoming} incoming transitions but {n_emitted} emissions",
                _first_transition_into(split_lines(text), code)
                or first_lines.get(("EMISSIONS", code)),
            )
    if token_count != sum(tag_counts.values()):
        raise ModelFormatError(
            f"tokens is {token_count} but the tag counts total {sum(tag_counts.values())}",
            meta.get("tokens", (None, None))[1],
        )
    # Checked last, so each fault above keeps its message: no corpus gives a
    # tag a count of 0 or holds no sentence.
    for code, n in tag_counts.items():
        if not n:
            raise ModelFormatError(f"count.{code} is 0: a counts file lists only tags seen "
                                   "in training", meta[f"count.{code}"][1])
    if not started:
        raise ModelFormatError(f"no transition leaves {START}: the counts hold no sentence")
    return _smoothed_model(trans_counts, emit_counts, kt, ke, corpus_name)


def _first_transition_into(lines: list[str], code: str) -> int | None:
    """Number of the first TRANSITIONS line whose outcome is `code`, if any."""
    section = None
    for line_no, raw in enumerate(lines, start=1):
        section = raw if raw in _SECTIONS else section
        if section == "TRANSITIONS" and raw.split("\t")[1:2] == [code]:
            return line_no
