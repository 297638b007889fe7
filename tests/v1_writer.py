"""The v1 model writer, kept as a frozen fixture.

`save_model` and `model_to_text` write counts only, but v1 files (full
log10 probability rows, no ``COUNTS`` line) must still load.  Tests and
`ci_checks.py` that need v1 text write it here, with the writer as it
last stood in `_model`, so that they keep feeding the v1 reader and do
not follow the counts writer.  It reads only a model's public attributes
and `table_columns()`, and imports no test framework, so that
`ci_checks.py`, which runs without pytest, can use it too.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from spantag.errors import TaggingError
from spantag.tagger import END, START
from spantag.tagset import table_columns


def v1_text(model) -> str:
    """Serialize a model as v1 probability rows: TRANSITIONS / EMISSIONS /
    META sections.

    Probability rows are ``context<TAB>outcome<TAB>log10-prob``.  META
    rows are ``key<TAB>value`` and carry the smoothing constants plus the
    sparse per-tag training counts needed to rebuild tag priors.
    """
    return "".join(_blocks(model))


def _order() -> dict[str, int]:
    """START, the codes in registry order, then END."""
    return {name: i for i, name in enumerate([START, *table_columns().codes, END])}


def _meta_lines(model, order: dict[str, int]) -> list[str]:
    name = model.corpus_name
    # A tab, LF or CR would split or clip the corpus row when the file is read
    # back (`split_lines`), and a lone surrogate cannot be written as UTF-8.
    if any(ch in "\t\n\r" or "\ud800" <= ch <= "\udfff" for ch in name):
        raise TaggingError(f"corpus name {name!r} cannot be stored in a model file")
    return [
        "META",
        f"corpus\t{name}",
        f"tokens\t{model.token_count}",
        f"kt\t{model.kt!r}",
        f"ke\t{model.ke!r}",
    ] + [
        f"count.{code}\t{model.tag_counts[code]}"
        for code in sorted(model.tag_counts, key=order.__getitem__)
    ]


def _blocks(model) -> Iterator[str]:
    """`v1_text` as blocks of whole lines: a section header, a context's
    rows, then META."""
    order = _order()
    for section, rows in (("TRANSITIONS", model.transitions), ("EMISSIONS", model.emissions)):
        yield section + "\n"
        for context in sorted(rows, key=order.__getitem__):
            yield "".join([f"{context}\t{outcome}\t{math.log10(prob)!r}\n"
                           for outcome, prob in rows[context].items()])
    yield "\n".join(_meta_lines(model, order)) + "\n"
