#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload news-stream --seeds 1-10 [--trace 0]

For every metric this prints the median of the runs and the distance
between their first and third quartiles as a share of the median, next
to the metric's bound from BENCHMARK.json.  Raw results go to
``.bench_work/results/<workload>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _sep, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        result["samples"] = next((json.loads(line[len("bench: samples "):])
                                  for line in proc.stderr.splitlines()
                                  if line.startswith("bench: samples ")), {})
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}", file=sys.stderr)

    out = ROOT / ".bench_work" / "results" / f"{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {median:14.6g} {spread:8.4f} {'' if bound is None else bound:>6}")
    print(f"wall per run: max {max(r['wall_s'] for r in results):.1f} s, "
          f"failed share {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
