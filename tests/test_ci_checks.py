"""The cheap part of CI's checks (`ci_checks.py`), run in tier-1.

The peak-RSS bounds, the bad byte past 16 KiB and the pipe closed early
run here through `ci_checks.main`, and the round trip at seed 1 of both
workloads.  The `bench/run.py` smoke runs and the import-time report
stay CI-only.
"""

import re
from pathlib import Path

import ci_checks

CHEAP = ["tag_tokenize_rss", "accent_rss", "sentence_rss", "train_rss", "validate_rss",
         "eval_rss", "bad_byte", "early_close"]


def resident_kib() -> int:
    return int(re.search(r"^VmRSS:\s+(\d+) kB$", Path("/proc/self/status").read_text(), re.M).group(1))


def test_cheap_checks_pass(capsys):
    assert ci_checks.main(CHEAP) == 0, capsys.readouterr().out
    assert [line for line in capsys.readouterr().out.splitlines() if line.endswith(": ok")] == \
        [f"{name}: ok" for name in CHEAP]


def test_a_peak_does_not_depend_on_the_process_that_measures_it(tmp_path):
    d = ci_checks.write_workload(tmp_path, "news-stream", 1)
    argv = ("train", "--corpus", d / "gold.vrt", "--model", d / "news.model")
    alone, before = ci_checks.peak_kib(*argv), resident_kib()
    ballast = bytearray(b"\1") * (96 << 20)  # every byte written, so every page resident
    assert resident_kib() - before >= 96 << 10
    beside_ballast = ci_checks.peak_kib(*argv)
    del ballast
    assert abs(beside_ballast - alone) <= 1024, (alone, beside_ballast)


def test_round_trip_at_seed_1(tmp_path):
    ci_checks.round_trip(tmp_path, seeds=(1,))


def test_a_crash_fails_its_own_check_only(monkeypatch, capsys):
    def crashes(work):
        raise StopIteration

    monkeypatch.setattr(ci_checks, "CHECKS", {"crashes": crashes, "passes": lambda work: None})
    assert ci_checks.main([]) == 1
    assert capsys.readouterr().out.splitlines() == ["crashes: FAILED: StopIteration()", "passes: ok"]


def test_an_unknown_check_name_exits_2(capsys):
    assert ci_checks.main(["bench_smoke", "no_such_check"]) == 2
    assert "no_such_check" in capsys.readouterr().err
