"""Exit-code contract and output shape of the command-line interface."""

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spantag
from spantag import corpus_io, tagger, tagset
from spantag.cli import main
from spantag.tagset import REGISTRY_SIZE, export_tsv, list_by

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import synth  # noqa: E402

GOLD = "la\tARTDFS\nmesa\tNCFS\n.\t.\n\nla\tARTDFS\nmano\tNCFS\n.\t.\n\n"


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.vrt"
    path.write_text(GOLD, encoding="utf-8")
    return path


@pytest.fixture
def model_file(tmp_path, gold_file, capsys):
    path = tmp_path / "toy.model"
    assert main(["train", "--corpus", str(gold_file), "--model", str(path)]) == 0
    capsys.readouterr()
    return path


def test_tagset_full_dump(capsys):
    assert main(["tagset"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == REGISTRY_SIZE + 1
    assert lines[0].startswith("TAG\t")


def test_tagset_category_filter(capsys):
    assert main(["tagset", "--category", "portmanteau"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # header + PAL + PDEL
    assert lines[1].startswith("PAL\t")
    assert lines[2].startswith("PDEL\t")


def test_tagset_where_filter(capsys):
    assert main(["tagset", "--where", "existential=true"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("VHPI3E\t")


def test_tagset_bad_filter_exits_2(capsys):
    assert main(["tagset", "--category", "nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonsense" in captured.err


# --where attribute -> (FeatureBundle field, {spelling: value}) for every
# attribute; subcategory is free-form, so it gets a few registry values
# and one that no tag carries.
WHERE_VALUES = {
    "category": ("category", tagset.CATEGORIES),
    "subcategory": ("subcategory", ("definite", "personal-clitic", "a-el", "no-such-subcategory")),
    "gender": ("gender", tagset.GENDERS),
    "number": ("number", tagset.NUMBERS),
    "person": ("person", tagset.PERSONS),
    "degree": ("degree", tagset.DEGREES),
    "verb-class": ("verb_class", tagset.VERB_CLASSES),
    "tense": ("tense", tagset.TENSES),
    "mood": ("mood", tagset.MOODS),
    "deixis": ("deixis", tagset.DEIXES),
    "directionality": ("directionality", tagset.DIRECTIONALITIES),
    "polarity": ("polarity", tagset.POLARITIES),
    "pronominal-function": ("pronominal_function", tagset.PRONOMINAL_FUNCTIONS),
    "animacy": ("animacy", tagset.ANIMACIES),
    "case-role": ("case_role", tagset.CASE_ROLES),
    "politeness": ("politeness", tagset.POLITENESS_VALUES),
    "existential": ("existential", {"true": True, "false": False}),
    "possessive-position": ("possessive_position", tagset.POSSESSIVE_POSITIONS),
}


def expected_dump(predicate):
    """Header plus the full dump's rows of the tags `list_by` selects."""
    header, *rows = export_tsv().splitlines(keepends=True)
    by_code = {row.split("\t", 1)[0]: row for row in rows}
    return header + "".join(by_code[t.code] for t in list_by(predicate))


@pytest.mark.parametrize("attribute", WHERE_VALUES)
def test_tagset_where_equals_list_by(capsys, attribute):
    field, values = WHERE_VALUES[attribute]
    spellings = values if isinstance(values, dict) else {v: v for v in values}
    for text, value in sorted(spellings.items()):
        assert main(["tagset", "--where", f"{attribute}={text}"]) == 0
        assert capsys.readouterr().out == expected_dump(
            lambda b: getattr(b, field) == value
        ), f"{attribute}={text}"


@pytest.mark.parametrize("category", ["portmanteau", "verb", "formula", "punctuation"])
def test_tagset_category_equals_where_category(capsys, category):
    assert main(["tagset", "--category", category]) == 0
    by_flag = capsys.readouterr().out
    assert main(["tagset", "--where", f"category={category}"]) == 0
    assert capsys.readouterr().out == by_flag == expected_dump(lambda b: b.category == category)


def test_tagset_filter_matching_nothing_prints_only_the_header(capsys):
    assert main(["tagset", "--category", "formula", "--where", "gender=feminine"]) == 0
    assert capsys.readouterr().out == export_tsv().splitlines(keepends=True)[0]


def test_tagset_repeated_where_keeps_and_semantics(capsys):
    """Each --where must hold; two values for one attribute match no tag."""
    assert main(["tagset", "--where", "gender=feminine", "--where", "gender=neuter"]) == 0
    assert capsys.readouterr().out == export_tsv().splitlines(keepends=True)[0]


@pytest.mark.parametrize("argv", [
    ["--where", "existential=yes"],
    ["--where", "gender=femenine"],
    ["--where", "category=bogus"],
    ["--where", "flavour=mint"],
    ["--where", "gender"],
    ["--category", "formula", "--where", "gender=femenine"],
    ["--category", ""],
])
def test_tagset_bad_clause_exits_2(capsys, argv):
    assert main(["tagset", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spantag: ")


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["tagset", "--bogus"])
    assert err.value.code == 2


def test_tokenize_output(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("¿Dónde está? 40-50", encoding="utf-8")
    assert main(["tokenize", str(src)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "¿\tpunctuation",
        "Dónde\tword",
        "está\tword",
        "?\tpunctuation",
        "40-50\tnumber",
    ]


def test_train_reports_stats(tmp_path, gold_file, capsys):
    model_path = tmp_path / "m.model"
    assert main(["train", "--corpus", str(gold_file), "--model", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "sentences\t2" in out
    assert "tokens\t6" in out
    assert model_path.exists()


def test_train_lenient_learns_nothing_from_a_stand_in(tmp_path, capsys):
    """Each run of pairs between stand-ins is trained as a sentence of its
    own, so the model has no row for the stand-in `PNC`, keeps the
    transitions and emissions around it consistent, and loads."""
    (tmp_path / "lenient").mkdir()
    (tmp_path / "runs").mkdir()
    lenient, runs = tmp_path / "lenient" / "gold.vrt", tmp_path / "runs" / "gold.vrt"
    lenient.write_text("la\tARTDFS\nmesa\tXXX\n.\t.\n\nXXX\tXXX\n\n", encoding="utf-8")
    runs.write_text("la\tARTDFS\n\n.\t.\n", encoding="utf-8")
    for corpus in (lenient, runs):
        argv = ["train", "--corpus", str(corpus), "--model", str(corpus.with_suffix(".model"))]
        assert main(argv + ["--lenient"] * (corpus == lenient)) == 0
    assert capsys.readouterr().out == (
        "sentences\t2\ntokens\t2\nvocabulary\t2\ntags-seen\t2\n"
        "sentences\t2\ntokens\t2\nvocabulary\t2\ntags-seen\t2\n"
    )
    text = lenient.with_suffix(".model").read_text(encoding="utf-8")
    assert "PNC" not in text
    assert text == runs.with_suffix(".model").read_text(encoding="utf-8")
    tagger.load_model(lenient.with_suffix(".model"))


def test_train_lenient_model_of_a_workload_loads_without_stand_ins(tmp_path, capsys):
    """The news-stream gold with about one tag in twenty unknown: its
    lenient model names no `PNC`, loads, and re-saves to the same bytes."""
    from test_corpus_io import _lenient_copy
    corpus, model = tmp_path / "gold.vrt", tmp_path / "lenient.model"
    corpus.write_text(_lenient_copy(synth.generate("news-stream", 1).files["gold.vrt"], 1),
                      encoding="utf-8")
    assert corpus_io.read_vertical(corpus, strict=False).stand_ins
    assert main(["train", "--corpus", str(corpus), "--model", str(model), "--lenient"]) == 0
    capsys.readouterr()
    assert "PNC" not in model.read_text(encoding="utf-8")
    tagger.save_model(tagger.load_model(model), tmp_path / "resaved.model")
    assert (tmp_path / "resaved.model").read_bytes() == model.read_bytes()


def test_tag_inverted_question(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("¿Dónde está Juan?", encoding="utf-8")
    code = main([
        "tag", str(src), "--model", str(model_file), "--lexicon", "seed",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "¿\tIQUEST"
    assert out.splitlines()[-1] == ""  # blank separator after the sentence


def test_tag_to_output_file(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    dst = tmp_path / "out.vrt"
    code = main([
        "tag", str(src), "--model", str(model_file), "-o", str(dst),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""  # data went to the file, not stdout
    assert dst.read_text(encoding="utf-8").splitlines()[0].startswith("La\t")


@pytest.mark.parametrize("broken", [
    "input", "model", "lexicon", "rules", "abbrev", "multiwords", None,
])
def test_tag_load_error_leaves_the_output_file_untouched(tmp_path, model_file, capsys, broken):
    """`tag` and `tokenize` open their output file only once every input
    has loaded; with nothing broken, the same files tag or tokenize into
    it.  `tokenize` reads only the input, abbreviation and multiword files."""
    model_text = model_file.read_text(encoding="utf-8")
    good_and_bad = {
        "input": ("La mesa . La mano .", b"La mesa . La \xffmano ."),
        "model": (model_text, model_text.replace("\ncount.ARTDFS\t2\n", "\ncount.ARTDFS\tx\n")),
        "lexicon": ("mesa\tNCFS\n", "mesa\tNCFZ\n"),
        "rules": ("FORBID ARTDFS NCMP\n", "FORBID ARTDFS\n"),
        "abbrev": ("etc.\n", "etc\n"),
        "multiwords": ("sin embargo\n", "embargo\n"),
    }
    files = {}
    for name, (good, bad) in good_and_bad.items():
        files[name] = tmp_path / f"{name}.txt"
        text = bad if name == broken else good
        files[name].write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    dst = tmp_path / "out.vrt"
    runs = {
        "tag": ["tag", str(files["input"]), f"--model={files['model']}",
                f"--lexicon={files['lexicon']}", f"--rules={files['rules']}"],
        "tokenize": ["tokenize", str(files["input"])],
    }
    for command, argv in runs.items():
        if command == "tokenize" and broken in ("model", "lexicon", "rules"):
            continue  # files `tokenize` does not read
        dst.write_bytes(b"earlier output\n")
        argv += [f"--abbrev={files['abbrev']}", f"--multiwords={files['multiwords']}"]
        code = main(argv + ["-o", str(dst)])
        captured = capsys.readouterr()
        assert captured.out == ""
        if broken is None:
            assert (code, captured.err) == (0, "")
            assert dst.read_text(encoding="utf-8").startswith("La\t")
        else:
            assert code == 2
            assert captured.err.startswith(f"spantag: {files[broken]}")
            assert dst.read_bytes() == b"earlier output\n"


def test_tag_deterministic_with_jobs(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("La mesa . El libro . Come bien .", encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model_file)]) == 0
    solo = capsys.readouterr().out
    assert main(["tag", str(src), "--model", str(model_file), "--jobs", "4"]) == 0
    quad = capsys.readouterr().out
    assert solo == quad


def test_validate_clean_exits_0(gold_file, capsys):
    assert main(["validate", str(gold_file)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0 violation(s)" in captured.err


def test_validate_bad_tag_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.vrt"
    path.write_text("la\tARTDFS\nx\tBADTAG\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "line 2" in captured.out
    assert "BADTAG" in captured.out


def test_validate_rule_violations(tmp_path, gold_file, capsys):
    rules = tmp_path / "rules.txt"
    rules.write_text("FORBID ARTDFS NCFS\n", encoding="utf-8")
    assert main(["validate", str(gold_file), "--rules", str(rules)]) == 1
    out = capsys.readouterr().out
    assert "violates rule at line 1" in out


@pytest.mark.parametrize("second, want", [
    # the stand-in for NCFZ is not rule-checked: only the unknown tag counts
    ("NCFZ", "line 2: unknown tag 'NCFZ'\n"),
    # a genuine PNC still is
    ("PNC", "sentence 0, token 0: pair 'ARTDFS PNC' violates rule at line 1\n"),
])
def test_validate_checks_no_pair_with_a_stand_in(tmp_path, capsys, second, want):
    path, rules = tmp_path / "in.vrt", tmp_path / "rules.txt"
    path.write_text(f"la\tARTDFS\ncasa\t{second}\n", encoding="utf-8")
    rules.write_text("FORBID ARTDFS PNC\n", encoding="utf-8")
    assert main(["validate", str(path), "--rules", str(rules)]) == 1
    captured = capsys.readouterr()
    assert captured.out == want
    assert "1 violation(s)" in captured.err


@pytest.mark.parametrize("last, error", [
    (b"mesa NCFS\n", ": line 15001: expected exactly one tab per line"),
    (b"\xff\tNCFS\n", " is not valid UTF-8 at line 15001: 'utf-8' codec can't decode byte 0xff "
                      "in position 99000: invalid start byte"),
], ids=["malformed", "not-utf8"])
@pytest.mark.parametrize("rules", [False, True], ids=["plain", "rules"])
def test_validate_writes_nothing_before_a_late_error(tmp_path, capsys, last, error, rules):
    """Sentences whose reports fill many chunks, then a bad last line: exit
    2 with nothing on stdout, as when the file was read whole first."""
    path, rules_file = tmp_path / "in.vrt", tmp_path / "rules.txt"
    rules_file.write_text("FORBID ARTDFS NCMP\n", encoding="utf-8")
    path.write_bytes(b"la\tARTDFS\ncasas\tNCMP\nx\tNCFZ\n.\t.\n\n" * 3000 + last)
    argv = ["validate", str(path)] + (["--rules", str(rules_file)] if rules else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spantag: {path}{error}\n"


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/nothing.vrt"]) == 2
    assert capsys.readouterr().err.startswith("spantag:")


def test_eval_identity(tmp_path, gold_file, capsys):
    assert main(["eval", "--gold", str(gold_file), "--pred", str(gold_file)]) == 0
    out = capsys.readouterr().out
    assert "accuracy\t1.000000" in out


def test_eval_mismatch_accuracy(tmp_path, gold_file, capsys):
    pred = tmp_path / "pred.vrt"
    pred.write_text(GOLD.replace("mano\tNCFS", "mano\tNCMS"), encoding="utf-8")
    assert main(["eval", "--gold", str(gold_file), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "accuracy\t0.833333" in out
    assert "NCFS\tNCMS\t1" in out


def test_eval_with_seed_lexicon_unknown_accuracy(gold_file, capsys):
    code = main([
        "eval", "--gold", str(gold_file), "--pred", str(gold_file),
        "--lexicon", "seed",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "unknown-accuracy\t1.000000" in out


def test_tag_non_integer_meta_count_exits_2(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    text = model_file.read_text(encoding="utf-8")
    assert "\ncount.ARTDFS\t2\n" in text
    text = text.replace("\ncount.ARTDFS\t2\n", "\ncount.ARTDFS\tx\n")
    model_file.write_text(text, encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count.ARTDFS" in captured.err


@pytest.mark.parametrize("command", ["tag", "tokenize"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exits_2(tmp_path, model_file, capsys, monkeypatch, command, source):
    data = b"La \xffmesa ."
    src = tmp_path / "in.txt"
    src.write_bytes(data)
    if source == "stdin":
        # as the interpreter opens it in a UTF-8 locale: undecodable bytes escaped
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdin", stdin)
    argv = [command, "-" if source == "stdin" else str(src)]
    if command == "tag":
        argv += ["--model", str(model_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not valid UTF-8" in captured.err
    assert ("standard input" if source == "stdin" else str(src)) in captured.err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_names_the_line_past_the_first_read_chunk(tmp_path, capsys, source):
    """The bad byte sits past the first 8 KiB, so its line is counted over
    the whole input and not only over the chunk that failed to decode."""
    data = "la mesa .\n".encode("utf-8") * 1000 + b"una \xffmesa .\nla mano .\n"
    assert len(data) > 8192
    src = tmp_path / "in.txt"
    src.write_bytes(data)
    if source == "file":
        assert main(["tokenize", str(src)]) == 2
        err = capsys.readouterr().err
    else:
        script = "import sys; from spantag.cli import main; sys.exit(main(['tokenize', '-']))"
        run = subprocess.run(
            [sys.executable, "-c", script], input=data, capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(spantag.__file__).parents[1])},
        )
        assert run.returncode == 2
        assert run.stdout == b""
        err = run.stderr.decode("utf-8")
    assert "not valid UTF-8 at line 1001:" in err
    assert ("standard input" if source == "stdin" else str(src)) in err


@pytest.mark.parametrize("bad", [
    "lexicon", "rules", "abbrev", "multiwords", "model", "validate", "train", "eval",
])
def test_non_utf8_input_file_exits_2(tmp_path, model_file, gold_file, capsys, bad):
    files = {
        name: tmp_path / f"{name}.txt"
        for name in ("input", "lexicon", "rules", "abbrev", "multiwords")
    }
    files["input"].write_text("La mesa .", encoding="utf-8")
    files["lexicon"].write_text("mesa\tNCFS\n", encoding="utf-8")
    files["rules"].write_text("FORBID ARTDFS NCMP\n", encoding="utf-8")
    files["abbrev"].write_text("etc.\n", encoding="utf-8")
    files["multiwords"].write_text("sin embargo\n", encoding="utf-8")
    files["model"], files["validate"], files["train"], files["eval"] = (
        model_file, gold_file, gold_file, gold_file,
    )
    broken = files[bad]
    broken.write_bytes(broken.read_bytes() + b"\xff\tNCFS\n")
    tag = ["tag", str(files["input"]), "--model", str(files["model"])]
    argv = {
        "lexicon": tag + ["--lexicon", str(files["lexicon"])],
        "rules": tag + ["--rules", str(files["rules"])],
        "abbrev": tag + ["--abbrev", str(files["abbrev"])],
        "multiwords": tag + ["--multiwords", str(files["multiwords"])],
        "model": tag,
        "validate": ["validate", str(gold_file), "--rules", str(files["rules"])],
        "train": ["train", "--corpus", str(gold_file), "--model", str(tmp_path / "new.model")],
        "eval": ["eval", "--gold", str(gold_file), "--pred", str(gold_file)],
    }[bad]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not valid UTF-8" in captured.err
    assert str(broken) in captured.err


def _run_cli(argv, stdin=b"", stdout=subprocess.PIPE, **env):
    """`spantag ARGV` in a child under ``-X dev``, reading `stdin`, writing
    to `stdout`, with PYTHONIOENCODING set or, when None, removed: (exit
    code, stdout bytes or None, stderr bytes)."""
    env = {**os.environ, "PYTHONPATH": str(Path(spantag.__file__).parents[1]), **env}
    env = {key: value for key, value in env.items() if value is not None}
    run = subprocess.run([sys.executable, "-X", "dev", "-m", "spantag.cli", *argv],
                         input=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env)
    return run.returncode, run.stdout, run.stderr


@pytest.fixture(scope="module")
def news(tmp_path_factory):
    """The news-stream bench workload at seed 1, its files written out and
    a model trained on its gold corpus."""
    work = tmp_path_factory.mktemp("news")
    for name, content in synth.generate("news-stream", 1).files.items():
        (work / name).write_text(content, encoding="utf-8")
    doc = corpus_io.read_vertical(work / "gold.vrt")
    tagger.save_model(tagger.train(doc.sentences), work / "news.model")
    return work


@pytest.mark.parametrize("command", ["tokenize", "tag"])
@pytest.mark.parametrize("text", ["news-stream", "line-ends"])
def test_stdin_reads_as_the_file_does(news, tmp_path, command, text):
    """``-`` goes through the decoder a file goes through, byte for byte:
    no newline translation, and a BOM or NBSP kept as it is."""
    src = news / "input.txt"
    if text == "line-ends":
        src = tmp_path / "in.txt"
        src.write_bytes("\ufeffLa mesa .\r\nEl\u00a0libro ,\rsin embargo .\r\r\nVoy\n".encode("utf-8"))
    flags = [f"--abbrev={news / 'abbrev.txt'}", f"--multiwords={news / 'multiwords.txt'}"]
    if command == "tag":
        flags += [f"--model={news / 'news.model'}", f"--lexicon={news / 'lexicon.tsv'}",
                  f"--rules={news / 'rules.txt'}"]
    from_file = _run_cli([command, str(src), *flags])
    assert from_file[0] == 0 and from_file[1] and from_file[2] == b""
    assert _run_cli([command, "-", *flags], stdin=src.read_bytes()) == from_file


@pytest.mark.parametrize("copies", [1, 1000])
@pytest.mark.parametrize("command, code", [
    ("tagset", 0), ("tokenize", 0), ("train", 0), ("tag", 0), ("validate", 1), ("eval", 0),
])
def test_closed_stdout_ends_the_run_quietly(tmp_path, model_file, command, code, copies):
    """When the reader of standard output has gone, as after ``| head``,
    a command stops writing and exits with nothing on standard error: 0,
    or 1 for `validate`, which writes only violations.  One copy of the
    inputs fills no write buffer, 1000 copies overrun it mid-stream."""
    src = tmp_path / "in.txt"
    src.write_text("La mesa . La mano .\n" * copies, encoding="utf-8")
    gold = tmp_path / "big.vrt"
    gold.write_text(GOLD * copies, encoding="utf-8")
    rules = tmp_path / "rules.txt"
    rules.write_text("FORBID ARTDFS NCFS\n", encoding="utf-8")
    argv = {
        "tagset": ["tagset"],
        "tokenize": ["tokenize", str(src)],
        "train": ["train", "--corpus", str(gold), "--model", str(tmp_path / "new.model")],
        "tag": ["tag", str(src), "--model", str(model_file)],
        "validate": ["validate", str(gold), "--rules", str(rules)],
        "eval": ["eval", "--gold", str(gold), "--pred", str(gold)],
    }[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert _run_cli(argv, stdout=write_end) == (code, None, b"")
    finally:
        os.close(write_end)
    if command == "train":
        assert (tmp_path / "new.model").exists()


@pytest.mark.parametrize("command", ["tag", "tokenize", "tagset"])
@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_is_utf8_whatever_pythonioencoding(tmp_path, model_file, command, encoding):
    src = tmp_path / "in.txt"
    src.write_text("Él comió más « pan » .\n", encoding="utf-8")
    argv = {
        "tag": ["tag", str(src), "--model", str(model_file)],
        "tokenize": ["tokenize", str(src)],
        "tagset": ["tagset"],
    }[command]
    code, default, _err = _run_cli(argv, PYTHONIOENCODING=None)
    assert code == 0
    default.decode("utf-8")
    assert not default.isascii()
    assert _run_cli(argv, PYTHONIOENCODING=encoding)[:2] == (0, default)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stderr_is_utf8_whatever_pythonioencoding(tmp_path, encoding):
    corpus = tmp_path / "g\u00f3l\u0434.vrt"
    corpus.write_text("mesa\tNCFZ\n", encoding="utf-8")
    argv = ["train", "--corpus", str(corpus), "--model", str(tmp_path / "new.model")]
    message = f"spantag: {corpus}: line 1: unknown tag 'NCFZ'\n".encode("utf-8")
    assert _run_cli(argv, PYTHONIOENCODING=encoding) == (2, b"", message)


@pytest.mark.parametrize("command", ["tag", "tokenize"])
@pytest.mark.parametrize("flag, body", [
    pytest.param("--abbrev", "etc\n", id="abbrev-no-period"),
    pytest.param("--abbrev", "Ud.\nEE.UU.\n", id="abbrev-inner-period"),
    pytest.param("--abbrev", "# mine\np.ej.\n", id="abbrev-two-words"),
    pytest.param("--multiwords", "en 2020\n", id="multiword-number"),
    pytest.param("--multiwords", "sin embargo\nal fin, y al cabo\n", id="multiword-comma"),
])
def test_entry_tokenizing_never_applies_exits_2(tmp_path, model_file, capsys, command, flag, body):
    src = tmp_path / "in.txt"
    src.write_text("Vino de EE.UU. en 2020, p.ej. hoy etc. y más.", encoding="utf-8")
    listed = tmp_path / "list.txt"
    listed.write_text(body, encoding="utf-8")
    argv = [command, str(src), flag, str(listed)]
    if command == "tag":
        argv += ["--model", str(model_file)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spantag: {listed}: line {body.count(chr(10))}: ")


@pytest.mark.parametrize("command", ["tag", "validate", "validate-unknown-tag"])
@pytest.mark.parametrize("body, line, pattern", [
    pytest.param("# typo\nFORBID ARTDFS NCMPP\n", 2, "NCMPP", id="right"),
    pytest.param("FORBID ARTDZS NCFS\n", 1, "ARTDZS", id="left"),
    pytest.param("FORBID ARTDFS NCM?\nREQUIRE B* NC*\n", 2, "B*", id="require"),
])
def test_rule_pattern_matching_no_tag_exits_2(tmp_path, model_file, capsys, command, body, line, pattern):
    """Nothing is written before the rules load, even for a vertical file
    whose unknown tag `validate` would report."""
    src = tmp_path / "in.txt"
    src.write_text("la niño .", encoding="utf-8")
    vertical = tmp_path / "in.vrt"
    vertical.write_text("la\tARTDFS\nniño\tNCMS\n.\t.\n\n", encoding="utf-8")
    unknown = tmp_path / "unknown.vrt"
    unknown.write_text("la\tARTDFS\ncasa\tNCFZ\n\n", encoding="utf-8")
    rules = tmp_path / "typo.rules"
    rules.write_text(body, encoding="utf-8")
    argv = {
        "tag": ["tag", str(src), "--model", str(model_file)],
        "validate": ["validate", str(vertical)],
        "validate-unknown-tag": ["validate", str(unknown)],
    }[command] + ["--rules", str(rules)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"spantag: {rules}: line {line}: bad pattern {pattern!r}: matches no registry tag\n"
    )


@pytest.mark.parametrize("kind", ["lexicon", "rules", "model", "gold", "pred", "corpus"])
def test_load_error_names_the_file(tmp_path, model_file, gold_file, capsys, kind):
    src = tmp_path / "in.txt"
    src.write_text("la mesa .", encoding="utf-8")
    bad = tmp_path / f"bad-{kind}.txt"
    bad.write_text({
        "lexicon": "mesa\tNCFS\nsilla\tBOGUS\n",
        "rules": "FORBID ARTDFS NCMP\nBLOCK ARTDFS NCFS\n",
        "model": model_file.read_text(encoding="utf-8").replace("\n", "\nnot a section\n", 1),
        "gold": "la\tARTDFS\nmesa\tNCFZ\n",
        "pred": "la\tARTDFS\nmesa\tNCFZ\n",
        "corpus": "la\tARTDFS\nmesa NCFS\n",
    }[kind], encoding="utf-8")
    tag = ["tag", str(src), "--model", str(model_file)]
    argv = {
        "lexicon": tag + ["--lexicon", str(bad)],
        "rules": tag + ["--rules", str(bad)],
        "model": ["tag", str(src), "--model", str(bad)],
        "gold": ["eval", "--gold", str(bad), "--pred", str(gold_file)],
        "pred": ["eval", "--gold", str(gold_file), "--pred", str(bad)],
        "corpus": ["train", "--corpus", str(bad), "--model", str(tmp_path / "new.model")],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spantag: {bad}: line 2: ")


def test_train_rejects_unknown_symbol_form_exits_2(tmp_path, capsys):
    corpus = tmp_path / "gold.vrt"
    corpus.write_text("la\tARTDFS\n<unk>\tNCFS\n.\t.\n\n", encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.model")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'<unk>' is reserved" in captured.err


@pytest.mark.parametrize("constant", ["--kt", "--ke"])
def test_train_rejects_a_constant_that_underflows_exits_2(tmp_path, gold_file, capsys, constant):
    argv = ["train", "--corpus", str(gold_file), "--model", str(tmp_path / "m.model")]
    assert main(argv + [constant, "1e-320"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{constant[2:]} 1e-320 is too small" in captured.err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("constant", ["--kt", "--ke"])
def test_train_rejects_a_constant_not_finite_above_0_exits_2(
    tmp_path, gold_file, capsys, constant, value
):
    model = tmp_path / "m.model"
    argv = ["train", "--corpus", str(gold_file), "--model", str(model), constant, value]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{constant[2:]} must be a finite number above 0" in captured.err
    assert not model.exists()


def test_tag_rejects_a_model_whose_kt_underflows_exits_2(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    text = model_file.read_text(encoding="utf-8")
    assert "\nkt\t0.5\n" in text
    model_file.write_text(text.replace("\nkt\t0.5\n", "\nkt\t1e-320\n"), encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kt 1e-320 is too small" in captured.err


@pytest.mark.parametrize("constant", ["--kt", "--ke"])
def test_train_rejects_a_constant_that_overflows_exits_2(tmp_path, gold_file, capsys, constant):
    model = tmp_path / "m.model"
    argv = ["train", "--corpus", str(gold_file), "--model", str(model), constant, "1e308"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{constant[2:]} 1e+308 is too large" in captured.err
    assert not model.exists()


def test_tag_rejects_a_model_whose_kt_overflows_exits_2(tmp_path, model_file, capsys):
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    text = model_file.read_text(encoding="utf-8")
    model_file.write_text(text.replace("\nkt\t0.5\n", "\nkt\t1e308\n"), encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kt 1e+308 is too large" in captured.err


@pytest.mark.parametrize("key, bad", [
    ("kt", "0_5"), ("kt", " 0.5"), ("ke", "0.1 "), ("kt", "\u0660.\u0665"),
    ("tokens", "+6"), ("tokens", " 6 "), ("tokens", "0_6"), ("tokens", "\u0666"),
    ("count.ARTDFS", "+2"), ("count.ARTDFS", "2 "), ("count.ARTDFS", "0_2"),
    ("count.ARTDFS", "\u0662"),
])
def test_tag_rejects_a_meta_number_spelled_otherwise_exits_2(tmp_path, model_file, capsys,
                                                              key, bad):
    """META numbers are spelled as a saved model spells them: `int` and
    `float` alone would also take signs, blanks, ``_`` and non-ASCII
    digits, and `float` reads ``0_5`` as 5."""
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    lines = model_file.read_text(encoding="utf-8").split("\n")
    line_no = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{key}\t"))
    lines[line_no - 1] = f"{key}\t{bad}"
    model_file.write_text("\n".join(lines), encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"spantag: {model_file}: line {line_no}: bad META value {bad!r} for {key!r}\n"
    )


@pytest.mark.parametrize("text, message", [
    pytest.param("COUNTS\nTRANSITIONS\nEMISSIONS\nMETA\ntokens\t0\nkt\t0.5\nke\t0.1\n",
                 "no transition leaves <s>: the counts hold no sentence", id="empty"),
    pytest.param("COUNTS\nTRANSITIONS\nNCFS\tNCFS\t1\nEMISSIONS\nNCFS\tcasa\t1\n"
                 "META\ntokens\t1\nkt\t0.5\nke\t0.1\ncount.NCFS\t1\n",
                 "no transition leaves <s>: the counts hold no sentence", id="self-loop"),
    pytest.param("COUNTS\nTRANSITIONS\n<s>\tNCFS\t1\nNCFS\t</s>\t1\nEMISSIONS\n"
                 "NCFS\tcasa\t1\nMETA\ntokens\t1\nkt\t0.5\nke\t0.1\ncount.ADVN\t0\n"
                 "count.NCFS\t1\n",
                 "line 11: count.ADVN is 0: a counts file lists only tags seen in training",
                 id="zero-count"),
])
def test_tag_rejects_counts_no_corpus_gives_exits_2(tmp_path, capsys, text, message):
    src = tmp_path / "in.txt"
    src.write_text("La casa .", encoding="utf-8")
    model = tmp_path / "odd.model"
    model.write_text(text, encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spantag: {model}: {message}\n"


def test_seed_lexicon_only_ignores_the_lexicon(news, capsys):
    argv = ["tag", str(news / "input.txt"), "--model", str(news / "news.model")]

    def tagged(*flags):
        assert main(argv + list(flags)) == 0
        return capsys.readouterr().out

    lexicon = str(news / "lexicon.tsv")
    seed_only = tagged("--lexicon", lexicon, "--seed-lexicon-only")
    assert seed_only == tagged("--lexicon", "seed")
    assert seed_only != tagged("--lexicon", lexicon)


def test_train_with_a_large_constant_that_fits_exits_0(tmp_path, gold_file, capsys):
    model = tmp_path / "m.model"
    argv = ["train", "--corpus", str(gold_file), "--model", str(model), "--kt", "1e300"]
    assert main(argv) == 0
    src = tmp_path / "in.txt"
    src.write_text("La mesa .", encoding="utf-8")
    assert main(["tag", str(src), "--model", str(model)]) == 0


@pytest.mark.parametrize("name", [
    "my\tcorpus", "my\ncorpus", "my\rcorpus", "my\udcffcorpus", "gold\udcff.vrt",
])
def test_train_rejects_unstorable_corpus_name_exits_2(tmp_path, capsys, name):
    """A name from --name, or from a corpus file name that is not UTF-8."""
    model = tmp_path / "m.model"
    model.write_text("earlier model\n", encoding="utf-8")
    if name == "gold\udcff.vrt":
        corpus = tmp_path / name
        argv = []
    else:
        corpus = tmp_path / "gold.vrt"
        argv = ["--name", name]
    corpus.write_text(GOLD, encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "--model", str(model)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "corpus name" in captured.err
    assert model.read_text(encoding="utf-8") == "earlier model\n"


@pytest.mark.parametrize("name", ["my\x0ccorpus", "my\u2028corpus"])
def test_train_stores_corpus_name_with_other_line_breaks(tmp_path, gold_file, name):
    """Only LF, or CR LF, ends a model file line, so a form feed
    or U+2028 in the name is stored and read back intact."""
    model = tmp_path / "m.model"
    assert main(["train", "--corpus", str(gold_file), "--model", str(model), "--name", name]) == 0
    assert spantag.load_model(model).corpus_name == name


# ------------------------------------------------------------ input fuzz

FUZZ_FILES = {
    "lexicon": "# forms\nmesa\tNCFS\nmano\tNCFS,VLPI3S\ngrande\tADJGFS\nsin embargo\tADVN\n",
    "rules": "# rules\nFORBID ARTDFS VL*\nREQUIRE ART?FS NC?S\nFORBID ADJG?? ADJ*\n",
    "abbrev": "# abbreviations\nSra.\ncta.\n",
    "multiwords": "# multiwords\nsin embargo\na pesar de\n",
    "vertical": GOLD + "#FALLBACK\nsin embargo\tADVN\n,\t,\ncome\tVLPI3S\n.\t.\n\n",
}
FUZZ_PIECES = ("", "", "\t", ",", " ", "*", "#", "FORBID", "NCFS", "BADTAG", "<unk>", "ñ\x00")


def mutate_line(rng, text):
    """One single-line edit: drop, repeat, cut or splice a line, replace a
    tab-, space- or comma-separated part, or insert a line of fragments."""
    lines = text.split("\n")
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.randrange(6)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(i, line)
    elif kind == 2 and line:
        k = rng.randrange(len(line))
        lines[i] = line[:k] + line[k + 1:]
    elif kind == 3:
        k = rng.randrange(len(line) + 1)
        lines[i] = line[:k] + rng.choice(FUZZ_PIECES) + line[k:]
    elif kind == 4:
        sep = rng.choice(("\t", " ", ","))
        parts = line.split(sep)
        parts[rng.randrange(len(parts))] = rng.choice(FUZZ_PIECES)
        lines[i] = sep.join(parts)
    else:
        lines.insert(i, rng.choice(FUZZ_PIECES) + rng.choice(("", "\t", " ")) + rng.choice(FUZZ_PIECES))
    return "\n".join(lines)


@pytest.mark.parametrize("kind", FUZZ_FILES)
def test_input_file_fuzz_exits_cleanly(tmp_path, model_file, capsys, kind):
    """Seeded single-line edits of each input file, run through every
    command that reads it, give exit 0, 1 or 2 and no traceback."""
    files = {name: tmp_path / f"{name}.txt" for name in FUZZ_FILES}
    for name, text in FUZZ_FILES.items():
        files[name].write_text(text, encoding="utf-8")
    src = tmp_path / "in.txt"
    src.write_text(
        "La Sra. mesa, sin embargo, come bien. ¿Dónde está la mano grande? "
        "A pesar de todo, dámelo cta. 12 .\n",
        encoding="utf-8",
    )
    tag = ["tag", str(src), "--model", str(model_file)]
    lex, rules, vertical = (str(files[name]) for name in ("lexicon", "rules", "vertical"))
    commands = {
        "lexicon": [tag + ["--lexicon", lex],
                    ["eval", "--gold", vertical, "--pred", vertical, "--lexicon", lex]],
        "rules": [tag + ["--rules", rules], ["validate", vertical, "--rules", rules]],
        "abbrev": [tag + ["--abbrev", str(files["abbrev"])]],
        "multiwords": [tag + ["--multiwords", str(files["multiwords"])]],
        "vertical": [["train", "--corpus", vertical, "--model", str(tmp_path / "new.model")],
                     ["validate", vertical], ["eval", "--gold", vertical, "--pred", vertical]],
    }[kind]
    rng = random.Random(f"cli-fuzz:{kind}")
    codes = set()
    for _ in range(100):
        files[kind].write_text(mutate_line(rng, FUZZ_FILES[kind]), encoding="utf-8")
        for argv in commands:
            codes.add(main(argv))
            capsys.readouterr()
    assert codes <= {0, 1, 2}
