"""Batch command-line front end.

Subcommands: tagset, tokenize, train, tag, validate, eval.  Standard
output carries data only; diagnostics go to standard error.  Exit codes:
0 success, 1 validation failures found, 2 usage or input errors.  No
environment variables are consulted; behaviour is fully determined by
flags, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bias, corpus_io, lexicon as lexmod, tagger, tagset, tokenizer
from .errors import TaggingError, read_utf8, utf8_decoding

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _read_input(path: str) -> str:
    if path != "-":
        return read_utf8(path)
    # strict UTF-8 whatever the locale, as for input files
    sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    with utf8_decoding("standard input"):
        return sys.stdin.read()


def _load_lexicon(arg: str | None, seed_only: bool) -> lexmod.Lexicon:
    if seed_only or arg is None or arg == "seed":
        return lexmod.seed_lexicon()
    return lexmod.load_lexicon(arg)


def _emit(text: str, output: str | None):
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


# ------------------------------------------------------------- subcommands

def cmd_tagset(args) -> int:
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
    abbrevs = (
        tokenizer.load_abbreviations(args.abbrev) if args.abbrev else None
    )
    text = _read_input(args.input)
    tokens = tokenizer.tokenize(text, abbrevs)
    if args.multiwords:
        tokens = tokenizer.merge_multiwords(
            tokens, text, tokenizer.load_multiwords(args.multiwords)
        )
    out = "".join(f"{t.surface}\t{t.kind}\n" for t in tokens)
    _emit(out, args.output)
    return EXIT_OK


def cmd_train(args) -> int:
    doc = corpus_io.read_vertical(args.corpus, strict=not args.lenient)
    model = tagger.train(
        doc.sentences, kt=args.kt, ke=args.ke,
        corpus_name=args.name or Path(args.corpus).name,
    )
    tagger.save_model(model, args.model)
    sys.stdout.write(
        f"sentences\t{len(doc.sentences)}\n"
        f"tokens\t{model.token_count}\n"
        f"vocabulary\t{len(model.vocab)}\n"
        f"tags-seen\t{len(model.tag_counts)}\n"
    )
    return EXIT_OK


def cmd_tag(args) -> int:
    model = tagger.load_model(args.model)
    lex = _load_lexicon(args.lexicon, args.seed_lexicon_only)
    ruleset = bias.load_rules(args.rules) if args.rules else None
    abbrevs = tokenizer.load_abbreviations(args.abbrev) if args.abbrev else None
    multiwords = (
        tokenizer.load_multiwords(args.multiwords) if args.multiwords else ()
    )
    text = _read_input(args.input)
    sentences = tagger.tag_text(
        model, lex, ruleset, text,
        enclitic_split=not args.no_enclitic_split,
        abbreviations=abbrevs,
        multiwords=multiwords,
        jobs=args.jobs,
    )
    doc = corpus_io.VerticalDocument(sentences=sentences)
    _emit(corpus_io.format_vertical(doc), args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = corpus_io.read_vertical(args.path, strict=False)
    violations = 0
    for line_no, code in doc.flagged:
        print(f"line {line_no}: unknown tag {code!r}")
        violations += 1
    if args.rules:
        ruleset = bias.load_rules(args.rules)
        for s_index, sentence in enumerate(doc.sentences):
            for position, rule_id in ruleset.validate_sequence(list(sentence.tags)):
                pair = f"{sentence.tags[position].code} {sentence.tags[position + 1].code}"
                print(
                    f"sentence {s_index}, token {position}: "
                    f"pair '{pair}' violates rule at line {rule_id}"
                )
                violations += 1
    print(
        f"spantag validate: {violations} violation(s) in {doc.provenance}",
        file=sys.stderr,
    )
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_eval(args) -> int:
    gold = corpus_io.read_vertical(args.gold, strict=not args.lenient)
    pred = corpus_io.read_vertical(args.pred, strict=not args.lenient)
    lex = None
    if args.lexicon:
        lex = _load_lexicon(args.lexicon, seed_only=False)
    report = corpus_io.evaluate(gold, pred, lexicon=lex)
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
    p.add_argument("--kt", type=float, default=0.5, help="transition add-k (default 0.5)")
    p.add_argument("--ke", type=float, default=0.1, help="emission add-k (default 0.1)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TaggingError, OSError) as exc:
        print(f"spantag: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
