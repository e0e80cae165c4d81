"""Run the benchmark once per seed and summarize the spread of each metric.

    python3 perfbench/series.py --workload refute --seeds 1-10 --seconds 15 [--trace 1]

Raw result lines go to perfbench/results/<workload>[-trace].jsonl.  For each
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    (HERE / "results").mkdir(exist_ok=True)
    suffix = "-trace" if args.trace == "1" else ""
    raw = HERE / "results" / f"{args.workload}{suffix}.jsonl"
    results = []
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with raw.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({done.stderr.strip().splitlines()[-1]})", flush=True)
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
