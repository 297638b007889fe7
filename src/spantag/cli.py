"""Batch command-line front end.

Subcommands: tagset, tokenize, train, tag, validate, eval.  Standard
output carries data only and diagnostics go to standard error, both
always as UTF-8.  Exit codes: 0 success, 1 validation failures found,
2 usage or input errors.  No environment variables are consulted;
behaviour is fully determined by flags, so runs are reproducible.

Each subcommand imports only the modules it runs: `train` loads the
model code (`_model`) and the corpus reader, never the model-file
reader, the decoder, the lexicon, the tokenizer or the feature
registry; `validate` and `eval` load only the corpus reader and the tag
table (`_core`); `--help` loads no module but this one and `errors`.
`train`, `validate` and `eval` read a corpus one sentence at a time, so
they hold a sentence and the model, their reports or the confusion
counts, never the whole file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .errors import TaggingError, decoded, read_utf8

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    if path == "-":  # bytes decoded as a file's are, whatever the locale
        return "".join(decoded(sys.stdin.buffer, "standard input"))
    return read_utf8(path)


def _load_lexicon(arg: str | None, seed_only: bool):
    from . import lexicon
    if seed_only or arg is None or arg == "seed":
        return lexicon.seed_lexicon()
    return lexicon.load_lexicon(arg)


def _load_rules(path: str | None):
    if not path:
        return None
    from . import bias
    return bias.load_rules(path)


@contextlib.contextmanager
def _output(output: str | None):
    """Standard output for no path or ``-``, else the file, truncated when
    the block is entered; callers enter it only once every input has loaded,
    so a load error leaves an existing file untouched."""
    if output is None or output == "-":
        yield sys.stdout
    else:
        with open(output, "w", encoding="utf-8") as out:
            yield out


# ------------------------------------------------------------- subcommands

def cmd_tagset(args) -> int:
    from . import tagset
    clauses = ([] if args.category is None else [f"category={args.category}"]) + (args.where or [])
    try:
        wanted = [tagset.parse_feature(clause) for clause in clauses]
    except ValueError as exc:
        print(f"spantag: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = [
        e for e in tagset.load_registry()
        if all(getattr(e.features, field_name) == value for field_name, value in wanted)
    ]
    sys.stdout.write(tagset.export_tsv(rows))
    return EXIT_OK


def cmd_tokenize(args) -> int:
    from . import tokenizer
    abbrevs = tokenizer.load_abbreviations(args.abbrev) if args.abbrev else None
    multiwords = tokenizer.load_multiwords(args.multiwords) if args.multiwords else ()
    text = _read_input(args.input)
    # each sentence is written as soon as it is tokenized, as in `cmd_tag`
    with _output(args.output) as out:
        for sentence in tokenizer.iter_sentences(text, abbrevs, multiwords):
            out.write("".join(f"{t.surface}\t{t.kind}\n" for t in sentence))
    return EXIT_OK


# Peak RSS follows import order: the largest module should compile while
# the heap is smallest, before anything imports `dataclasses` (`_core` and
# every module built on it do).  So `train` imports `_model` first, and `tag`
# imports `tagger`, which imports `_model_reader` first, which imports
# `_model` first.  On the benchmark workloads this puts both commands' peak
# RSS 0.2-0.5 MiB below that of importing `tagger` whole; importing
# `corpus_io` first in `tag` instead puts it 0.4-0.55 MiB higher, above that
# of importing `tagger` whole.  `train` never reads a model, so it does not
# compile the model-file reader: moving the reader out of `_model` lowered
# `train`'s median peak from 17.11 to 16.64 MiB on news-stream and from
# 16.91 to 16.50 MiB on long-sentence (seed 1, 10 paired runs each, 2 vCPUs,
# CPython 3.11).

def cmd_train(args) -> int:
    from . import _model, corpus_io
    count = 0

    def sentences():  # the corpus a sentence at a time, counted as it is read
        nonlocal count
        for count, (sentence, stand_ins) in enumerate(
                corpus_io.iter_vertical(args.corpus, strict=not args.lenient), start=1):
            # nothing is learnt from a stand-in, so each run around them is a sentence
            yield from (run for _offset, run in corpus_io.runs(sentence, stand_ins))

    model = _model.train(
        sentences(), kt=args.kt, ke=args.ke,
        corpus_name=args.name or Path(args.corpus).name,
    )
    _model.save_model(model, args.model)
    sys.stdout.write(
        f"sentences\t{count}\n"
        f"tokens\t{model.token_count}\n"
        f"vocabulary\t{len(model.vocab)}\n"
        f"tags-seen\t{len(model.tag_counts)}\n"
    )
    return EXIT_OK


def cmd_tag(args) -> int:
    from . import tagger, corpus_io, tokenizer
    model = tagger.load_model(args.model)
    lex = _load_lexicon(args.lexicon, args.seed_lexicon_only)
    ruleset = _load_rules(args.rules)
    abbrevs = tokenizer.load_abbreviations(args.abbrev) if args.abbrev else None
    multiwords = tokenizer.load_multiwords(args.multiwords) if args.multiwords else ()
    text = _read_input(args.input)
    sentences = tagger.iter_tagged(
        model, lex, ruleset, text,
        enclitic_split=not args.no_enclitic_split,
        abbreviations=abbrevs,
        multiwords=multiwords,
    )
    # each sentence is written as soon as it is decoded
    with _output(args.output) as out:
        for sentence in sentences:
            out.write(corpus_io.format_sentence(sentence))
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import corpus_io
    ruleset = _load_rules(args.rules)
    # Each sentence is checked as it is read, and its reports kept until the
    # end, so an error later in the file still leaves stdout empty.
    unknown: list[str] = []
    pairs: list[str] = []
    sentences = corpus_io.iter_vertical(args.path, strict=False)
    for s_index, (sentence, stand_ins) in enumerate(sentences):
        for line_no, code, _position in stand_ins:
            unknown.append(f"line {line_no}: unknown tag {code!r}\n")
        if ruleset is None:
            continue
        # the file holds no pair with a stand-in for an unknown tag
        for offset, run in corpus_io.runs(sentence, stand_ins):
            tags = run.tags
            for position, rule_id in ruleset.validate_sequence(tags):
                pairs.append(
                    f"sentence {s_index}, token {offset + position}: pair "
                    f"'{tags[position].code} {tags[position + 1].code}' "
                    f"violates rule at line {rule_id}\n"
                )
    sys.stdout.writelines(unknown)
    sys.stdout.writelines(pairs)
    sys.stdout.flush()  # a closed pipe ends the run before the summary
    violations = len(unknown) + len(pairs)
    print(
        f"spantag validate: {violations} violation(s) in {args.path}",
        file=sys.stderr,
    )
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_eval(args) -> int:
    from . import corpus_io
    # The lexicon loads first, as `validate` loads its rules, so of a bad
    # lexicon and a bad corpus it is the lexicon that is named.
    lex = _load_lexicon(args.lexicon, seed_only=False) if args.lexicon else None
    gold, pred = (corpus_io.iter_vertical(path, strict=not args.lenient)
                  for path in (args.gold, args.pred))
    report = corpus_io.evaluate_sentences(gold, pred, lexicon=lex)
    sys.stdout.write(corpus_io.format_report(report))
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantag",
        description="Spanish morphosyntactic tagging toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tagset", help="dump the tag registry as TSV")
    p.add_argument("--category", help="keep only tags of this category")
    p.add_argument(
        "--where", action="append", metavar="ATTR=VALUE",
        help="keep only tags whose bundle attribute has the value (repeatable)",
    )
    p.set_defaults(func=cmd_tagset)

    p = sub.add_parser("tokenize", help="segment text, one token per line")
    p.add_argument("input", help="input text file, or - for stdin")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--abbrev", help="extra abbreviations file")
    p.add_argument("--multiwords", help="multiword expressions file")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train", help="train a model from a vertical corpus")
    p.add_argument("--corpus", required=True, help="gold vertical file")
    p.add_argument("--model", required=True, help="model output path")
    p.add_argument("--kt", type=float, default=0.5, help="transition add-k (default %(default)s)")
    p.add_argument("--ke", type=float, default=0.1, help="emission add-k (default %(default)s)")
    p.add_argument("--name", help="corpus name stored in the model")
    p.add_argument("--lenient", action="store_true", help="tolerate unknown tags in the corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag raw text, write vertical output")
    p.add_argument("input", help="input text file, or - for stdin")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--lexicon", help="lexicon file, or 'seed' for the built-in seed")
    p.add_argument("--rules", help="bias rules file")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--no-enclitic-split", action="store_true",
                   help="keep verb+enclitic groups as single tokens")
    p.add_argument("--seed-lexicon-only", action="store_true",
                   help="ignore --lexicon and use only the built-in seed")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: decoding runs on one thread")
    p.add_argument("--abbrev", help="extra abbreviations file")
    p.add_argument("--multiwords", help="multiword expressions file")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("validate", help="check a vertical file")
    p.add_argument("path", help="vertical file to check")
    p.add_argument("--rules", help="also check bias-rule conformance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True, help="gold vertical file")
    p.add_argument("--pred", required=True, help="predicted vertical file")
    p.add_argument("--lexicon", help="lexicon for unknown-token accuracy ('seed' allowed)")
    p.add_argument("--lenient", action="store_true", help="tolerate unknown tags")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    # UTF-8 whatever the locale or PYTHONIOENCODING, as for output files;
    # diagnostics keep the escaping error handler standard error starts with
    sys.stdout.reconfigure(encoding="utf-8")
    sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output, so it has all it wants: stop
        # quietly.  Standard output now points at the null device, where the
        # flush at exit cannot fail again.  `validate` writes only violations.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_VIOLATIONS if args.func is cmd_validate else EXIT_OK
    except (TaggingError, OSError) as exc:
        print(f"spantag: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
