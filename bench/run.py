#!/usr/bin/env python3
"""spantag benchmark: one seeded workload, end to end or traced.

    python3 bench/run.py --workload news-stream --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; spantag need not be installed,
the benchmark puts ``src/`` on the path itself and runs the CLI as
``python -m spantag.cli``.  Inputs are generated from the seed into a
working directory under ``.bench_work/`` and removed at the end.

With ``--trace 0`` the run times whole operations (CLI train/tag/
validate in child processes, in-process save/load/tag) and reports the
end-to-end metrics, scaled to a reference machine speed that a fixed
calibration loop measures beside every operation.  With ``--trace 1``
it times calls into each module's public functions instead and reports
the per-layer metrics, unscaled.  Either way it repeats whole rounds of
the same operations until ``--seconds`` have passed, reports medians,
runs the correctness checks of ``oracles.py`` and prints one JSON
object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3  # before the rounds; each round sets up once more
CHILD_ADDRESS_LIMIT = 2 << 30  # bytes; a child that needs more fails its operation
KT, KE = 0.5, 0.1  # the CLI's default smoothing
# Times each operation runs in a round of the end-to-end run.  All but
# set-up (timed three more times before the rounds) run more than once,
# so that a 50 s run holds at least six samples of each on long-sentence
# and ten on news-stream; rounds stay short enough that every metric's
# samples spread over the whole run.
REPEATS = {"set-up": 1, "tag_text": 2, "cli train": 2, "model save": 3,
           "model load": 3, "cli tag": 2, "cli validate": 3}

# Speed scaling.  The shared host this benchmark was built on runs the
# same Python work up to 2x slower or faster from one second to the
# next, for reasons outside the program.  So a fixed calibration loop
# (pure Python, no spantag code) runs before every operation of the
# end-to-end run and once after the last.  Each timed sample is scaled
# by CALIBRATION_REF_S over the median calibration time within
# CALIBRATION_WINDOW_S of the sample's interval: the figures read as
# seconds on a machine where the loop takes CALIBRATION_REF_S, the
# loop's median on the reference machine of README.md.
CALIBRATION_REF_S = 0.025
CALIBRATION_WINDOW_S = 2.0
_CALIBRATION_WORDS = tuple(f"w{i:05d}x" for i in range(4000))


class Run:
    """Operation bookkeeping: samples per metric, attempts, failures."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        # (end time, seconds, count or None) per timed sample, scaled
        # into `samples` by finish_timed()
        self.timed: dict[str, list[tuple[float, float, int | None]]] = {}
        self.calibrations: list[tuple[float, float]] = []  # (end time, seconds)
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def add_timed(self, name: str, seconds: float, count: int | None = None):
        """Record an interval that has just ended: a duration, or with
        `count` a rate of count per second."""
        self.timed.setdefault(name, []).append((time.perf_counter(), seconds, count))

    def calibrate(self):
        start = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.calibrations.append((end, end - start))

    def finish_timed(self):
        """Scale every timed sample to the reference speed."""
        for name, timed in self.timed.items():
            for end, seconds, count in timed:
                begin = end - seconds - CALIBRATION_WINDOW_S
                near = [c for t, c in self.calibrations if begin <= t <= end + CALIBRATION_WINDOW_S]
                scaled = seconds * CALIBRATION_REF_S / statistics.median(near)
                self.add(name, scaled if count is None else count / scaled)

    def op(self, label: str, fn, *args):
        """Run one operation; an exception or a returned problem list
        counts as a failure."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception:
            self.failed += 1
            print(f"bench: {label} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return
        if problems:
            self.failed += 1
            print(f"bench: {label} failed: " + "; ".join(problems[:5]), file=sys.stderr)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


def calibration_loop():
    """Fixed pure-Python work of the kinds spantag does: str keys in a
    dict, tuples, case mapping, float math, split, join and sort."""
    for _ in range(4):
        table = {}
        for i, word in enumerate(_CALIBRATION_WORDS):
            table[word[::-1]] = (i, word.upper())
        total = 0.0
        for word in _CALIBRATION_WORDS:
            i, upper = table[word[::-1]]
            total += math.log(i + 1.5) * len(upper.lower())
        parts = " ".join(_CALIBRATION_WORDS).split()
        parts.sort(key=lambda part: part[3:])


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------- children

# Runs `python -m spantag.cli ARGS` (runpy does what -m does) under an
# address-space cap, and at exit writes the process's peak RSS (VmHWM,
# in kB) to the file named by its first argument.  The child reports its
# own peak because a parent's wait4() maximum also counts the pages the
# child shared with the parent between fork and exec.
CLI_WRAPPER = """\
import atexit, resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
peak_file = sys.argv.pop(1)
def write_peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_file, "w") as out:
        out.write(kb)
atexit.register(write_peak)
sys.argv[0] = "spantag"
runpy.run_module("spantag.cli", run_name="__main__", alter_sys=True)
""" % (CHILD_ADDRESS_LIMIT, CHILD_ADDRESS_LIMIT)


def child(argv: list[str], stdout: Path) -> tuple[int, float, str]:
    """Run a Python child with src/ on its path.

    Returns (exit code, wall seconds, stderr text).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    err_path = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        code = subprocess.run([sys.executable, *argv], stdout=out, stderr=err,
                              stdin=subprocess.DEVNULL, env=env).returncode
        wall = time.perf_counter() - start
    return code, wall, err_path.read_text(errors="replace")


def cli(args: list[str], stdout: Path) -> tuple[int, float, float, str]:
    """`spantag ARGS` in a child: (exit code, wall s, peak RSS MiB, stderr).

    The peak is None when the child failed."""
    peak = stdout.with_suffix(".peak")
    peak.unlink(missing_ok=True)
    code, wall, err = child(["-c", CLI_WRAPPER, str(peak), *args], stdout)
    peak_mb = int(peak.read_text()) / 1024.0 if code == 0 else None
    return code, wall, peak_mb, err


# -------------------------------------------------------------------- setup

class Setup:
    """Program state built from the generated files."""

    def __init__(self, files: dict[str, Path], multiwords: bool, warm_text: str):
        from spantag import bias, corpus_io, lexicon, tagger, tokenizer
        self.lexicon = lexicon.load_lexicon(files["lexicon.tsv"])
        self.ruleset = bias.load_rules(files["rules.txt"])
        self.abbreviations = tokenizer.load_abbreviations(files["abbrev.txt"])
        self.multiwords = tokenizer.load_multiwords(files["multiwords.txt"]) if multiwords else ()
        self.gold = corpus_io.read_vertical(files["gold.vrt"])
        self.model = tagger.train(self.gold.sentences, kt=KT, ke=KE, corpus_name="gold.vrt")
        self.tag(warm_text)  # fills the registry caches and compiles the rules

    def tag(self, text: str, jobs: int = 1):
        from spantag import tagger
        return tagger.tag_text(self.model, self.lexicon, self.ruleset, text,
                               abbreviations=self.abbreviations,
                               multiwords=self.multiwords, jobs=jobs)


def write_inputs(wl, directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, content in wl.files.items():
        path = directory / name
        path.write_bytes(content.encode("utf-8"))
        paths[name] = path
    return paths


def tag_args(files: dict[str, Path], model: Path, multiwords: bool) -> list[str]:
    args = ["tag", str(files["input.txt"]), "--model", str(model),
            "--lexicon", str(files["lexicon.tsv"]), "--rules", str(files["rules.txt"]),
            "--abbrev", str(files["abbrev.txt"])]
    if multiwords:
        args += ["--multiwords", str(files["multiwords.txt"])]
    return args


# ------------------------------------------------------------ end to end

def end_to_end(run: Run, wl, files, work: Path, seconds: float):
    from spantag import corpus_io, tagger
    import oracles

    # The whole process tree on one CPU: the children then run where the
    # calibration loop runs, and their samples spread about half as much
    # within a run on a shared host.  Every child is single-threaded
    # but the --jobs 2 check, which only checks output.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    multiwords = bool(wl.multiwords)
    warm = " ".join(p.surface for s in wl.gold[:3] for p in s)
    setup = None

    def set_up():
        nonlocal setup
        setup = None  # free the previous state before building the next
        setup, elapsed = timed(Setup, files, multiwords, warm)
        run.add_timed("setup_s", elapsed)

    for _ in range(SETUP_REPEATS):
        run.calibrate()
        set_up()

    rules = oracles.Rules(wl.files["rules.txt"])
    cli_model = work / "cli.model"
    saved_model = work / "saved.model"
    tagged = work / "tagged.vrt"
    train_args = ["train", "--corpus", str(files["gold.vrt"]), "--model", str(cli_model)]
    ref = {}  # the first round's in-process output, which later ones must match

    def tag():
        sentences, elapsed = timed(setup.tag, wl.text)
        text = corpus_io.format_vertical(corpus_io.VerticalDocument(sentences=sentences))
        if not ref:
            ref.update(sentences=sentences, text=text.encode("utf-8"),
                       validate=oracles.expected_validate(text, rules))
        run.add_timed("tag_tokens_per_s", elapsed, sum(len(s.pairs) for s in sentences))
        return [] if text.encode("utf-8") == ref["text"] else ["tag_text output changed between calls"]

    def cli_train():
        code, wall, rss, err = cli(train_args, work / "train.out")
        if code != 0:
            return [f"spantag train exited {code}: {err[-300:]}"]
        run.add_timed("cli_train_s", wall)
        run.add("train_peak_rss_mb", rss)
        return oracles.check_train_summary((work / "train.out").read_text(), wl.gold)

    def save():
        _none, elapsed = timed(tagger.save_model, setup.model, saved_model)
        run.add_timed("model_save_s", elapsed)
        run.add("model_bytes", saved_model.stat().st_size)
        if saved_model.read_bytes() != cli_model.read_bytes():
            return ["in-process save differs from the model spantag train wrote"]
        return []

    def load():
        ref["loaded"], elapsed = timed(tagger.load_model, saved_model)
        run.add_timed("model_load_s", elapsed)

    def cli_tag(jobs: int):
        code, wall, rss, err = cli(tag_args(files, cli_model, multiwords) + ["--jobs", str(jobs)], tagged)
        if code != 0:
            return [f"spantag tag exited {code}: {err[-300:]}"]
        if jobs == 1:
            run.add_timed("cli_tag_s", wall)
            run.add("tag_peak_rss_mb", rss)
        else:
            run.add_timed("cli_tag_jobs2_s", wall)
        if tagged.read_bytes() != ref["text"]:
            return [f"spantag tag --jobs {jobs} output differs from in-process tag_text"]
        return []

    def cli_validate():
        code, wall, _rss, _err = cli(["validate", str(tagged), "--rules", str(files["rules.txt"])],
                                     work / "validate.out")
        run.add_timed("cli_validate_s", wall)
        out = (work / "validate.out").read_text()
        want_out, want_code = ref["validate"]
        if (out, code) != (want_out, want_code):
            return [f"spantag validate gave exit {code} and {len(out.splitlines())} lines, "
                    f"expected exit {want_code} and {len(want_out.splitlines())}"]
        return []

    ops = [("set-up", set_up), ("tag_text", tag), ("cli train", cli_train),
           ("model save", save), ("model load", load), ("cli tag", lambda: cli_tag(1)),
           ("cli validate", cli_validate)]
    rounds(run, seconds, [(label, fn, REPEATS[label]) for label, fn in ops], calibrate=True)

    # Checks made once per run, on the first round's output.
    run.op("determinism --jobs 2", cli_tag, 2)
    run.calibrate()
    run.finish_timed()
    run.op("spans", lambda: oracles.check_spans(wl.text, ref["sentences"]))
    run.op("tags", lambda: oracles.check_tags(wl.sentences, ref["sentences"]))
    run.op("rules", lambda: oracles.check_rules(wl.sentences, ref["sentences"], rules))
    run.op("probabilities", lambda: oracles.check_probabilities(
        [("trained", setup.model), ("reloaded", ref["loaded"])], wl.gold, wl.seed, KT, KE))
    run.op("scores", check_scores, setup, wl.text, rules)
    if "cli_tag_jobs2_s" in run.samples:
        print(f"bench: {len(run.samples['cli_tag_s'])} timed cli tag runs, "
              f"cli tag --jobs 1 {run.median('cli_tag_s'):.3f} s, "
              f"--jobs 2 {run.median('cli_tag_jobs2_s'):.3f} s", file=sys.stderr)


def rounds(run: Run, seconds: float, ops, calibrate: bool = False):
    """Whole rounds of `ops`, each (label, fn, repeats), until `seconds`
    have passed; the last round starts only if at least half of it fits.
    With `calibrate`, the calibration loop runs before every operation."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for label, fn, repeats in ops:
            for _ in range(repeats):
                if calibrate:
                    run.calibrate()
                run.op(label, fn)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            break


def prepared_sentences(setup, text: str):
    from spantag import tagger, tokenizer
    tokens = tokenizer.tokenize(text, setup.abbreviations)
    if setup.multiwords:
        tokens = tokenizer.merge_multiwords(tokens, text, setup.multiwords)
    return [tagger.prepare_sentence(s, setup.model, setup.lexicon)
            for s in tokenizer.sentence_split(tokens)]


def check_scores(setup, text: str, rules):
    """Viterbi paths and scores of every sentence against the reference DP."""
    from spantag import tagger
    from spantag.errors import NoValidPath
    import oracles
    problems = []
    for prep in prepared_sentences(setup, text):
        try:
            path, score = tagger.viterbi_decode(setup.model, setup.ruleset, prep)
            constrained = True
        except NoValidPath:
            path, score = tagger.viterbi_decode(setup.model, None, prep)
            constrained = False
        problems += oracles.check_score(setup.model, prep, rules, [t.code for t in path],
                                        score, constrained)
    return problems


# ----------------------------------------------------------------- traced

def traced(run: Run, wl, files, work: Path, seconds: float):
    from spantag import bias, corpus_io, lexicon, tagger, tokenizer
    from spantag.errors import NoValidPath
    from spantag.tagset import parse_tag
    import synth

    multiwords = bool(wl.multiwords)
    warm = " ".join(p.surface for s in wl.gold[:3] for p in s)
    setup = Setup(files, multiwords, warm)
    ladder = prepared_sentences(setup, wl.ladder)
    texts = {name: path.read_text(encoding="utf-8") for name, path in files.items()}
    gold_of_text = corpus_io.VerticalDocument(sentences=[
        tagger.TaggedSentence(pairs=tuple(
            (tokenizer.Token(p.surface, (-1, -1), tokenizer.KIND_WORD), parse_tag(p.gold))
            for item in items for p in item.parts))
        for items in wl.sentences
    ])

    def layers_round():
        lex, t = timed(lexicon.parse_lexicon, texts["lexicon.tsv"])
        run.add("lexicon.parse_s", t)
        rs, t = timed(bias.parse_rules, texts["rules.txt"])
        run.add("bias.parse_s", t)
        some = next(iter(setup.model.tag_counts))
        tag0 = parse_tag(some)
        _, t = timed(rs.allowed, tag0, tag0)
        run.add("bias.compile_s", t)
        doc, t = timed(corpus_io.parse_vertical, texts["gold.vrt"])
        run.add("corpus_io.parse_vertical_s", t)
        model, t = timed(tagger.train, doc.sentences, KT, KE, "gold.vrt")
        run.add("tagger.train_s", t)
        model_text, t = timed(tagger.model_to_text, model)
        run.add("tagger.model_to_text_s", t)
        run.add("tagger.model_rows", sum(1 for line in model_text.splitlines() if line.count("\t") == 2))
        _, t = timed(tagger.model_from_text, model_text)
        run.add("tagger.model_from_text_s", t)
        del model_text

        # The tagging pipeline, stage by stage, as tag_text runs it.
        text = wl.text
        tokens, t_tok = timed(tokenizer.tokenize, text, setup.abbreviations)
        run.add("tokenizer.tokenize_s", t_tok)
        run.add("tokenizer.tokens", len(tokens))
        merged, t_mw = timed(tokenizer.merge_multiwords, tokens, text, setup.multiwords)
        run.add("tokenizer.merge_multiwords_s", t_mw)
        sentences, t_ss = timed(tokenizer.sentence_split, merged)
        run.add("tokenizer.sentence_split_s", t_ss)
        run.add("tokenizer.sentences", len(sentences))
        prepared, t_prep = timed(lambda: [
            tagger.prepare_sentence(s, setup.model, setup.lexicon) for s in sentences])
        run.add("tagger.prepare_s", t_prep)
        _, t = timed(lambda: [tagger.emission_scores(setup.model, p) for p in prepared])
        run.add("tagger.emission_s", t)

        def decode_all():
            out, fallbacks = [], 0
            for prep in prepared:
                try:
                    tags, _score = tagger.viterbi_decode(setup.model, setup.ruleset, prep)
                    fallback = False
                except NoValidPath:
                    tags, _score = tagger.viterbi_decode(setup.model, None, prep)
                    fallback, fallbacks = True, fallbacks + 1
                out.append(tagger.TaggedSentence(
                    pairs=tuple((tok, tag) for (tok, _c), tag in zip(prep, tags)), fallback=fallback))
            return out, fallbacks
        (decoded, fallbacks), t_vit = timed(decode_all)
        first.setdefault("decoded", decoded)
        run.add("tagger.viterbi_s", t_vit)
        run.add("bias.fallback_sentences", fallbacks)
        doc = corpus_io.VerticalDocument(sentences=decoded)
        _, t = timed(corpus_io.format_vertical, doc)
        run.add("corpus_io.format_vertical_s", t)
        _, t = timed(lambda: [setup.ruleset.validate_sequence(list(s.tags)) for s in decoded])
        run.add("bias.validate_s", t)
        _, t = timed(corpus_io.evaluate, gold_of_text, doc)
        run.add("corpus_io.evaluate_s", t)

        # Layers inside prepare_sentence, timed on the same tokens.
        words = [tok for s in sentences for tok in s if tok.kind == tokenizer.KIND_WORD]
        portmanteaux, t = timed(lambda: [tokenizer.split_portmanteau(tok) for tok in words])
        run.add("tokenizer.portmanteau_splits", sum(d is not None for d in portmanteaux))
        tried = [tok for tok, d in zip(words, portmanteaux) if d is None]
        splits, t = timed(lambda: [tokenizer.split_enclitics(tok, setup.lexicon) for tok in tried])
        run.add("tokenizer.split_enclitics_s", t)
        n_splits = sum(d is not None for d in splits)
        run.add("tokenizer.enclitic_splits", n_splits)
        run.add("tokenizer.enclitic_split_ratio", n_splits / max(1, len(tried)))
        looked_up = [(tok, tok is first_wordish(s)) for s, prep in zip(sentences, prepared)
                     for tok, _cls in prep
                     if not tok.candidates and tok.kind in (tokenizer.KIND_WORD, tokenizer.KIND_ABBREVIATION)]
        found, t = timed(lambda: [setup.lexicon.lookup(tok.surface) for tok, _i in looked_up])
        run.add("lexicon.lookup_s", t)
        unknown = [(tok, initial) for (tok, initial), cls in zip(looked_up, found) if cls is None]
        _, t = timed(lambda: [lexicon.guess_unknown(tok.surface, initial) for tok, initial in unknown])
        run.add("lexicon.guess_s", t)
        run.add("lexicon.unknown_tokens", len(unknown))
        sizes = [len(cls) for prep in prepared for _tok, cls in prep]
        run.add("lexicon.mean_candidates", sum(sizes) / len(sizes))
        run.add("lexicon.max_candidates", max(sizes))

        # Tracing overhead: the staged pipeline against one plain call.
        _, plain = timed(setup.tag, text)
        staged = t_tok + t_mw + t_ss + t_prep + t_vit
        run.add("trace.overhead_s", staged - plain)
        _, jobs2 = timed(setup.tag, text, 2)
        run.add("tagger.jobs2_speedup", plain / jobs2)

        times = []
        for n, prep in zip(synth.LADDER, ladder):
            _, t = timed(tagger.viterbi_decode, setup.model, setup.ruleset, prep)
            run.add(f"tagger.viterbi_s_at_{n}", t)
            times.append(t)
        run.add("tagger.decode_exponent", slope(synth.LADDER, times))

        code, _wall, _err = child(["-c", REGISTRY_PROBE], work / "probe.out")
        if code == 0:
            run.add("tagset.load_registry_s", float((work / "probe.out").read_text()))
        code2, wall, _err = child(["-m", "spantag.cli", "--help"], work / "help.out")
        run.add("cli.startup_s", wall)
        return [] if code == code2 == 0 else ["startup probe failed"]

    first = {}  # the first round's staged output, checked once per run
    rounds(run, seconds, [("traced round", layers_round, 1)])
    import oracles
    rules = oracles.Rules(wl.files["rules.txt"])
    run.op("spans", lambda: oracles.check_spans(wl.text, first["decoded"]))
    run.op("tags", lambda: oracles.check_tags(wl.sentences, first["decoded"]))
    run.op("rules", lambda: oracles.check_rules(wl.sentences, first["decoded"], rules))


REGISTRY_PROBE = (
    "import time; t = time.perf_counter(); from spantag.tagset import load_registry; "
    "load_registry(); print(repr(time.perf_counter() - t))"
)


def first_wordish(sentence):
    from spantag.tokenizer import KIND_PUNCTUATION
    return next((t for t in sentence if t.kind != KIND_PUNCTUATION), None)


def slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spantag" / "__init__.py").is_file():
        print(f"bench: no spantag sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import synth
    if args.workload not in synth.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(synth.WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run = Run()
    try:
        wl = synth.generate(args.workload, args.seed)
        files = write_inputs(wl, work / "inputs")
        # The generator's record is the harness's, not the program's: keep
        # the collector from scanning it inside timed calls.
        gc.freeze()
        (traced if args.trace else end_to_end)(run, wl, files, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run or result file uses it
        except OSError:
            pass

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in run.samples:
            metrics[name] = {"value": run.median(name), "unit": metric["unit"]}
        else:
            run.attempted += 1
            run.failed += 1
            print(f"bench: no sample of {name}", file=sys.stderr)
    print("bench: samples " + json.dumps(run.samples), file=sys.stderr)
    if run.calibrations:
        cal = [c for _t, c in run.calibrations]
        print(f"bench: calibration loop median {statistics.median(cal):.4f} s, "
              f"min {min(cal):.4f} s, max {max(cal):.4f} s over {len(cal)} runs", file=sys.stderr)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
