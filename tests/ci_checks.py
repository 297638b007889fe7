"""CI's checks of the spantag command line, one function per check.

``python3 tests/ci_checks.py [NAME...]`` runs the named checks, or all of
`CHECKS`, in a scratch directory; it needs no pytest and no installed
spantag, as it puts ``src/`` and ``bench/`` on its path itself.  Each
check prints what it measured, then ``NAME: ok`` or ``NAME: FAILED ...``.
Exit 1 when a check failed, 2 for an unknown name.

A peak RSS is the CLI child's own VmHWM, which it writes at exit under
`bench/run.py`'s `CLI_WRAPPER`, so it does not depend on this process.
"""

from __future__ import annotations

import fcntl
import filecmp
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import synth  # noqa: E402
from run import CLI_WRAPPER, write_inputs  # noqa: E402
from spantag import _model_reader, corpus_io, tagger, tokenizer  # noqa: E402
from spantag.errors import TaggingError  # noqa: E402
from spantag.tagset import table_columns  # noqa: E402
from v1_writer import v1_text  # noqa: E402

# Unbuffered, `tagset`'s one large write into a pipe closed early ends short with no error.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(ROOT / "src")}
WORKLOADS = ("news-stream", "long-sentence")
SEEDS = (1, 2, 3)
PIPE_BYTES = 4096  # the smallest pipe Linux gives; `tagset` writes 63 KiB


class CheckFailed(Exception):
    """A check's assertion or bound does not hold."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def spantag(*argv, out: Path | None = None, exits=(0,), flags=()) -> subprocess.CompletedProcess:
    """Run ``spantag ARGV``, stdout into the file `out` or captured; require an exit status in `exits`."""
    command = [sys.executable, *flags, "-m", "spantag.cli", *map(str, argv)]
    with open(out or os.devnull, "wb") as sink:
        run = subprocess.run(command, env=ENV, stdout=sink if out else subprocess.PIPE, stderr=subprocess.PIPE)
    require(run.returncode in exits, f"spantag {argv[0]} exited {run.returncode}: {run.stderr.decode()!r}")
    return run


def tag_argv(d: Path, text: str, model: str) -> tuple:
    """``spantag tag`` on `text` with `model` and every input file of `d`."""
    return ("tag", d / text, "--model", d / model, "--lexicon", d / "lexicon.tsv", "--rules", d / "rules.txt",
            "--abbrev", d / "abbrev.txt", "--multiwords", d / "multiwords.txt")


def write_workload(work: Path, workload: str, seed: int) -> Path:
    """Write a bench workload's input files into `work`, as ``bench/synth.py --out`` does."""
    write_inputs(synth.generate(workload, seed), work)
    return work


def news(work: Path) -> Path:
    """The news-stream seed-1 files, its text and gold 8x, and a model of its gold, written once per `work`."""
    d = work / "news"
    if not (d / "news.model").exists():
        write_workload(d, "news-stream", 1)
        for name, eight in (("input.txt", "input-8x.txt"), ("gold.vrt", "gold-8x.vrt")):
            with open(d / eight, "wb") as f:
                f.writelines([(d / name).read_bytes()] * 8)
        spantag("train", "--corpus", d / "gold.vrt", "--model", d / "news.model")
    return d


def peak_kib(*argv, exits=(0,)) -> int:
    """``spantag ARGV``'s peak RSS in KiB, the VmHWM it writes at exit under `CLI_WRAPPER`."""
    with tempfile.TemporaryDirectory(prefix="spantag-peak-") as tmp:
        peak = Path(tmp, "peak")
        run = subprocess.run([sys.executable, "-c", CLI_WRAPPER, peak, *map(str, argv)], env=ENV,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        require(run.returncode in exits, f"spantag {argv[0]} exited {run.returncode}: {run.stderr.decode()!r}")
        # `validate` may exit 1, as a child does that runs out of the wrapper's address space
        require(not re.search(rb"Traceback|Exception ignored", run.stderr),
                f"spantag {argv[0]}: {run.stderr.decode()!r}")
        require(peak.is_file(), f"spantag {argv[0]} wrote no peak")
        return int(peak.read_text())


def grows_by_at_most(bound_kib: int, what: str, small: tuple, large: tuple, sizes=("1x", "8x"), exits=(0,)):
    """Require ``spantag LARGE`` to peak at most `bound_kib` above ``spantag SMALL``."""
    one, many = peak_kib(*small, exits=exits), peak_kib(*large, exits=exits)
    print(f"{what} peak RSS: {sizes[0]} {one} KiB, {sizes[1]} {many} KiB")
    require(many - one <= bound_kib, f"{what}: {sizes[1]} peaks {many - one} KiB above {sizes[0]}, over {bound_kib}")


def bench_smoke(work: Path) -> None:
    """Short `bench/run.py` runs, both workloads, untraced and traced, must be
    correct with no failed operation.  Seed 3 runs the span, tag and rule
    checks on a text that no change was measured (seed 1) or checked (2) on."""
    for seed, workload, trace in itertools.product(SEEDS, WORKLOADS, (0, 1)):
        what = f"bench/run.py {workload} seed {seed} trace {trace}"
        run = subprocess.run([sys.executable, BENCH / "run.py", "--workload", workload, "--seed", str(seed),
                              "--seconds", "5", "--trace", str(trace)], env=ENV, stdout=subprocess.PIPE)
        require(run.returncode == 0, f"{what} exited {run.returncode}")
        result = json.loads(run.stdout.splitlines()[-1])
        print(f"{what}: correct: {result['correct']}, failed: {result['failed']}")
        require(result["correct"] is True and result["failed"] == 0, f"{what} is not correct")


def library_legs(work: Path, validate_status: int) -> None:
    """The round trip's legs inside the library, on `work`'s files.  Three
    copies leave `save_model`'s layout, so `load_model` reads them row by
    row: each is re-saved, and must hold the registry's own str for every
    transition name, as a read a section at a time does.  Two faulty copies
    move one transition count.  A v1 copy (the frozen writer's) must load
    without counts, and `save_model` must refuse it and create no file.
    `validate` may report a pair only in a sentence `tag` flagged #FALLBACK,
    and exits 1 exactly when it reports one."""
    trained = tagger.load_model(work / "trained.model")
    tagger.save_model(trained, work / "resaved.model")
    registry = {code: code for code in (*table_columns().codes, tagger.START, tagger.END)}
    text = (work / "trained.model").read_text(encoding="utf-8")
    require(_model_reader._sections(text) is not None, "trained.model is not read a section at a time")
    lines = text.split("\n")
    emissions = lines.index("EMISSIONS")
    copies = {
        "crlf": text.replace("\n", "\r\n"),
        "blank": "\n".join(lines[:emissions + 2] + [""] + lines[emissions + 2:]),
        # the first <s> row moved to the end of TRANSITIONS
        "split": "\n".join(lines[:2] + lines[3:emissions] + lines[2:3] + lines[emissions:]),
    }
    for name, copy in copies.items():
        require(_model_reader._sections(copy) is None, f"{name}.model is in the layout")
        (work / f"{name}.model").write_bytes(copy.encode("utf-8"))
        model = tagger.load_model(work / f"{name}.model")
        require(all(c is registry[c] and o is registry[o] for c, o in model.transition_counts),
                f"{name}.model holds its own copies of transition names")
        tagger.save_model(model, work / f"{name}-resaved.model")
    # one count moved to the next row of its context; neither outcome is
    # </s>, so each context still has as many transitions as emissions,
    # but the two outcomes' incoming transitions no longer match theirs
    cells = [line.split("\t") for line in lines[2:emissions]]
    i = next(i for i, (a, b) in enumerate(zip(cells, cells[1:]))
             if a[0] == b[0] and tagger.END not in (a[1], b[1]) and int(a[2]) > 1)
    cells[i][2], cells[i + 1][2] = str(int(cells[i][2]) - 1), str(int(cells[i + 1][2]) + 1)
    faulty = "\n".join(lines[:2] + ["\t".join(row) for row in cells] + lines[emissions:])
    require(_model_reader._sections(faulty) is not None, "faulty.model is not in the layout")
    require(_model_reader._sections(faulty.replace("\n", "\r\n")) is None, "faulty-crlf.model is in the layout")
    (work / "faulty.model").write_bytes(faulty.encode("utf-8"))
    (work / "faulty-crlf.model").write_bytes(faulty.replace("\n", "\r\n").encode("utf-8"))

    (work / "v1.model").write_bytes(v1_text(trained).encode("utf-8"))
    v1 = tagger.load_model(work / "v1.model")
    require(v1.transition_counts == {}, "v1.model was read as a counts file")
    try:
        tagger.save_model(v1, work / "v1-resaved.model")
        raise CheckFailed("save_model wrote a model loaded from v1")
    except TaggingError:
        require(not (work / "v1-resaved.model").exists(), "save_model created a file for a v1 model")

    doc = corpus_io.read_vertical(work / "trained.vrt")
    fallback = {i for i, s in enumerate(doc.sentences) if s.fallback}
    lines = (work / "validate.out").read_text(encoding="utf-8").splitlines()
    reported = {int(line.split(",")[0].removeprefix("sentence ")) for line in lines}
    print(f"{work.name}: validate reports {len(lines)} violation(s) in {len(reported)} sentence(s), "
          f"exit {validate_status}; {len(fallback)} of {len(doc)} sentences are #FALLBACK")
    require(reported <= fallback and validate_status == (1 if lines else 0),
            "validate disagrees with the #FALLBACK flags")


def round_trip(work: Path, seeds=SEEDS) -> None:
    """A model `spantag train` wrote must come back byte for byte from
    `load_model` and `save_model`, also from `library_legs`' copies out of
    the layout, and tag as before.  Both faulty copies must exit 2 with the
    same message and line, as only the row scanner numbers lines.  The v1
    copy must tag as the counts file does.  Both workloads, at `seeds`."""
    for seed, workload in itertools.product(seeds, WORKLOADS):
        w = write_workload(work / "round-trip" / f"{workload}-{seed}", workload, seed)
        spantag("train", "--corpus", w / "gold.vrt", "--model", w / "trained.model")
        spantag(*tag_argv(w, "input.txt", "trained.model"), out=w / "trained.vrt")
        run = spantag("validate", w / "trained.vrt", "--rules", w / "rules.txt", out=w / "validate.out", exits=(0, 1))
        library_legs(w, run.returncode)
        for copy in ("resaved", "crlf-resaved", "blank-resaved", "split-resaved"):
            require(filecmp.cmp(w / "trained.model", w / f"{copy}.model", shallow=False), f"{copy}.model differs")
        stripped = [spantag("tag", w / "input.txt", "--model", w / f"{copy}.model", "--lexicon",
                            w / "lexicon.tsv", exits=(2,)).stderr.decode().replace(str(w / f"{copy}.model"), "MODEL")
                    for copy in ("faulty", "faulty-crlf")]
        require(stripped[0] == stripped[1] and "incoming transitions" in stripped[0],
                f"{w.name}: the faulty copies give {stripped}")
        print(f"{w.name}: a faulty copy in the layout and its CRLF copy both exit 2 with: {stripped[0].strip()}")
        for model in ("resaved", "v1"):
            spantag(*tag_argv(w, "input.txt", f"{model}.model"), out=w / f"{model}.vrt")
            require(filecmp.cmp(w / "trained.vrt", w / f"{model}.vrt", shallow=False), f"{model}.vrt differs")
        print(f"{w.name}: model and tags identical after a load and save, also out of the layout and from v1")


def bad_byte(work: Path) -> None:
    """Standard input and a file go through one decoder, 16 KiB at a time:
    the 8x news text with a bad byte just past 16 KiB, piped to `tag -` and
    `tokenize -` and given by path, must exit 2 with nothing on stdout and
    the same stderr for the pipe and the path, the input's name aside."""
    d = news(work)
    data = (d / "input-8x.txt").read_bytes()
    at = 1 << 14
    while data[at] & 0xC0 == 0x80:  # a continuation byte: inside a character
        at += 1
    bad, data = d / "bad-8x.txt", data[:at] + b"\xff" + data[at:]
    bad.write_bytes(data)
    print(f"{bad}: a 0xff byte at byte {at} of {len(data)}")
    for command in ("tag", "tokenize"):
        flags = ("--model", d / "news.model", "--lexicon", d / "lexicon.tsv") if command == "tag" else ()
        errors = []
        for source, name in (("pipe", "standard input"), ("path", str(bad))):
            run = subprocess.run([sys.executable, "-m", "spantag.cli", command, "-" if source == "pipe" else bad,
                                  *flags], env=ENV, input=data if source == "pipe" else None, capture_output=True)
            print(f"spantag {command} from a {source}: exit {run.returncode}, {len(run.stdout)} bytes on stdout")
            require(run.returncode == 2 and run.stdout == b"", f"spantag {command} from a {source}")
            errors.append(run.stderr.decode().replace(name, "INPUT"))
        print(errors[0], end="")
        require(errors[0] == errors[1], f"spantag {command}: the pipe and the path give {errors}")


def import_time(work: Path) -> None:
    """A Markdown report of where start-up time goes: the spantag,
    dataclasses and argparse lines of ``-X importtime`` for `tag`,
    `validate` and `train`.  Only the commands' success is checked."""
    d, flags = news(work), ("-X", "importtime")
    runs = {
        "tag": spantag(*tag_argv(d, "input.txt", "news.model"), out=d / "importtime.vrt", flags=flags),
        "validate": spantag("validate", d / "importtime.vrt", "--rules", d / "rules.txt", exits=(0, 1), flags=flags),
        "train": spantag("train", "--corpus", d / "gold.vrt", "--model", d / "importtime.model", flags=flags),
    }
    wanted = re.compile(r"imported package$|\| +(spantag(\.[a-z_]+)?|dataclasses|argparse)$")
    print(f"### Import time on Python {sys.version.split()[0]}, news-stream seed 1")
    for command, run in runs.items():
        lines = [line for line in run.stderr.decode().splitlines() if wanted.search(line)]
        print(f"spantag {command}:", "```", *lines, "```", sep="\n")


def tag_tokenize_rss(work: Path) -> None:
    """`tag` and `tokenize` write each sentence as they finish it, so their
    peak RSS follows the longest sentence, not the input: the news text
    eight times over may cost at most 2 MiB more than the text once."""
    d = news(work)
    tokenize = ("--abbrev", d / "abbrev.txt", "--multiwords", d / "multiwords.txt")
    grows_by_at_most(2048, "spantag tag", tag_argv(d, "input.txt", "news.model"),
                     tag_argv(d, "input-8x.txt", "news.model"))
    grows_by_at_most(2048, "spantag tokenize", ("tokenize", d / "input.txt", *tokenize),
                     ("tokenize", d / "input-8x.txt", *tokenize))


def accent_rss(work: Path) -> None:
    """Enclitic splitting looks up only stems no longer than the lexicon's
    longest form: 'á' x 32000 + 'lo .' may cost at most 2 MiB more than
    'á' x 2000 + 'lo .' (near 1 GiB when every accent variant was built)."""
    d = news(work)
    for n in (2000, 32000):
        (d / f"accent-{n}.txt").write_text("á" * n + "lo .\n", encoding="utf-8")
    argv = [("tag", d / f"accent-{n}.txt", "--model", d / "news.model", "--lexicon", d / "lexicon.tsv")
            for n in (2000, 32000)]
    grows_by_at_most(2048, "spantag tag, one accented word with a clitic", *argv, sizes=("2k", "32k"))


def write_sentences(work: Path) -> None:
    """Two terminator-free texts of `work`'s input words, about 2k and 16k tokens, then one full stop."""
    text = (work / "input.txt").read_text(encoding="utf-8")
    words = [t.surface for t in tokenizer.tokenize(text) if t.surface not in tokenizer.SENTENCE_TERMINATORS]
    for n in (2000, 16000):
        sentence = " ".join((words * (n // len(words) + 1))[:n - 1]) + " .\n"
        (work / f"sentence-{n}.txt").write_text(sentence, encoding="utf-8")


def sentence_rss(work: Path) -> None:
    """A sentence is decoded whole, in memory linear in its length: one
    terminator-free sentence of long-sentence words, 16k tokens, may cost
    at most 10 MiB more than one of 2k (7.6-8.6 MiB on CPython 3.10-3.13)."""
    w = write_workload(work / "long", "long-sentence", 1)
    write_sentences(w)
    spantag("train", "--corpus", w / "gold.vrt", "--model", w / "long.model")
    argv = [("tag", w / f"sentence-{n}.txt", "--model", w / "long.model", "--lexicon", w / "lexicon.tsv",
             "--rules", w / "rules.txt", "--abbrev", w / "abbrev.txt") for n in (2000, 16000)]
    grows_by_at_most(10240, "spantag tag, one terminator-free sentence", *argv, sizes=("2k", "16k"))


def train_rss(work: Path) -> None:
    """`train` counts the corpus a sentence at a time: the gold corpus 8x may
    cost at most 1 MiB more than once (-0.26 to +0.08 MiB on CPython
    3.10-3.13; 7.7-7.8 MiB when the corpus was read whole)."""
    d = news(work)
    grows_by_at_most(1024, "spantag train", *[("train", "--corpus", d / gold, "--model", d / f"{gold}.model")
                                              for gold in ("gold.vrt", "gold-8x.vrt")])


def validate_rss(work: Path) -> None:
    """`validate` checks a sentence at a time: the text tagged 8x may cost
    at most 1 MiB more than tagged once (0 to +0.21 MiB on CPython
    3.10-3.13; 4.0-4.4 MiB when the file was read whole)."""
    d = news(work)
    for text in ("input.txt", "input-8x.txt"):
        spantag(*tag_argv(d, text, "news.model"), out=d / f"{text}.vrt")
    grows_by_at_most(1024, "spantag validate --rules", *[("validate", d / f"{text}.vrt", "--rules", d / "rules.txt")
                                                         for text in ("input.txt", "input-8x.txt")], exits=(0, 1))


def eval_rss(work: Path) -> None:
    """`eval` reads gold and pred in step: the gold corpus 8x against itself
    may cost at most 1 MiB more than once (-0.05 to +0.17 MiB on CPython
    3.10-3.13; 7.5-8.3 MiB when both files were read whole)."""
    d = news(work)
    grows_by_at_most(1024, "spantag eval", *[("eval", "--gold", d / gold, "--pred", d / gold)
                                             for gold in ("gold.vrt", "gold-8x.vrt")])


def early_close(work: Path) -> None:
    """A reader that stops after 100 bytes, as `head -c 100` does, closes a
    pipe of `PIPE_BYTES` that `tag` and `tokenize` (8x) and `tagset` each
    overrun: under ``-X dev`` each must exit 0 with nothing on stderr."""
    d = news(work)
    for argv in (("tag", d / "input-8x.txt", "--model", d / "news.model", "--lexicon", d / "lexicon.tsv"),
                 ("tokenize", d / "input-8x.txt"), ("tagset",)):
        read, write = os.pipe()
        with open(read, "rb", buffering=0) as pipe, open(write, "wb", buffering=0) as sink:
            require(fcntl.fcntl(read, fcntl.F_SETPIPE_SZ, PIPE_BYTES) == PIPE_BYTES, "the pipe did not shrink")
            child = subprocess.Popen([sys.executable, "-X", "dev", "-m", "spantag.cli", *argv],
                                     env=ENV, stdout=sink, stderr=subprocess.PIPE)
            sink.close()
            pipe.read(100)
        stderr = child.communicate()[1]
        print(f"spantag {argv[0]}: exit {child.returncode}, {len(stderr)} bytes on stderr", stderr.decode(), sep="\n")
        require(child.returncode == 0 and stderr == b"", f"spantag {argv[0]} into a pipe closed early")


CHECKS = {check.__name__: check for check in (bench_smoke, round_trip, bad_byte, import_time, tag_tokenize_rss,
                                               accent_rss, sentence_rss, train_rss, validate_rss, eval_rss, early_close)}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"ci_checks: no check named {', '.join(unknown)}; one of {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="spantag-checks-") as tmp:
        for name in names or CHECKS:
            try:
                CHECKS[name](Path(tmp))
                print(f"{name}: ok")
            except CheckFailed as exc:
                failed += 1
                print(f"{name}: FAILED: {exc}")
            except Exception as exc:  # a crash fails its own check only
                failed += 1
                traceback.print_exc()
                print(f"{name}: FAILED: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.stdout.reconfigure(line_buffering=True)  # in step with the children's stderr
    sys.exit(main(sys.argv[1:]))
