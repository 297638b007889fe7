"""The cheap part of CI's checks (`ci_checks.py`), run in tier-1.

The peak-RSS bounds, the bad byte past 16 KiB and the pipe closed early
run in one child running ``python ci_checks.py NAME...``, as CI runs
them: a child starts with its parent's peak RSS as its own floor, and a
test process is far above what the CLI reaches, while the checks
process stays below it (under ``-X dev`` it would not, so the child runs
without it).  The round trip runs here, at seed 1 of both workloads.
The `bench/run.py` smoke runs and the import-time report stay CI-only.
"""

import os
import subprocess
import sys

import ci_checks

CHEAP = ("tag_tokenize_rss", "accent_rss", "sentence_rss", "train_rss", "validate_rss",
         "eval_rss", "bad_byte", "early_close")


def test_cheap_checks_pass():
    # The checks need nothing on the path, and a foreign entry (another
    # version's site-packages, say) can lift their process above the floor.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-W", "error", ci_checks.__file__, *CHEAP],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert [line for line in run.stdout.splitlines() if line.endswith(": ok")] == \
        [f"{name}: ok" for name in CHEAP]
    assert "Exception ignored" not in run.stderr


def test_round_trip_at_seed_1(tmp_path):
    ci_checks.round_trip(tmp_path, seeds=(1,))


def test_an_unknown_check_name_exits_2(capsys):
    assert ci_checks.main(["bench_smoke", "no_such_check"]) == 2
    assert "no_such_check" in capsys.readouterr().err
