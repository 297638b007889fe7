"""Exit-code contract and output shape of the command-line interface."""

import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import spantag
from spantag import tagset
from spantag.cli import main
from spantag.tagset import REGISTRY_SIZE, export_tsv, list_by

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


@pytest.mark.parametrize("command", ["tag", "validate"])
@pytest.mark.parametrize("body, line, pattern", [
    pytest.param("# typo\nFORBID ARTDFS NCMPP\n", 2, "NCMPP", id="right"),
    pytest.param("FORBID ARTDZS NCFS\n", 1, "ARTDZS", id="left"),
    pytest.param("FORBID ARTDFS NCM?\nREQUIRE B* NC*\n", 2, "B*", id="require"),
])
def test_rule_pattern_matching_no_tag_exits_2(tmp_path, model_file, capsys, command, body, line, pattern):
    src = tmp_path / "in.txt"
    src.write_text("la niño .", encoding="utf-8")
    vertical = tmp_path / "in.vrt"
    vertical.write_text("la\tARTDFS\nniño\tNCMS\n.\t.\n\n", encoding="utf-8")
    rules = tmp_path / "typo.rules"
    rules.write_text(body, encoding="utf-8")
    argv = {
        "tag": ["tag", str(src), "--model", str(model_file)],
        "validate": ["validate", str(vertical)],
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
