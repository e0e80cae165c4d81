"""Run the benchmark on a base commit and on this checkout, alternately, and
write both sides to one JSON record.

    python tools/bench_record.py --base HEAD~1 --out BENCH_6.json

The base commit is exported with `git archive` into a temporary directory;
the change side is the working tree this script sits in.  Each of ten
pairs runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once on each side for every workload of `BENCHMARK.json`, with the same seed
(pair k uses seed k + 1) and the run length T of `BENCHMARK.json`; even pairs
run the base first and odd pairs the change first.  After the timed pairs,
one traced run (`--trace 1`) per side and workload records the per-layer
metrics.  The benchmark itself, its corpora and its bounds are not touched.

The record holds every run's JSON line and, per workload and end-to-end
metric, each side's median and quartiles, the ratio of the medians
(change / base) and how many pairs the change won in the direction that
`BENCHMARK.json` calls better (ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def export(rev: str, dest: Path) -> str:
    """Unpack the tree of `rev` into `dest`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args[1:])} exited {done.returncode}:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["seed"], out["wall_s"] = seed, round(wall, 2)
    return out


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict) -> dict:
    """Per end-to-end metric: both sides' quartiles, the median ratio and the
    change's wins over the pairs."""
    out = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        sides = {"base": quartiles(base), "change": quartiles(head)}
        out[name] = {
            **sides,
            "ratio": sides["change"]["median"] / sides["base"]["median"],
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(base),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {
        "base": None,
        "change": "working tree on " + subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip(),
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "pairs": PAIRS,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        sides = {"base": Path(tmp), "change": ROOT}
        record["base"] = export(args.base, sides["base"])
        runs = {w: {"base": [], "change": []} for w in workloads}
        for k in range(PAIRS):
            seed = k + 1
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(run_bench(sides[side], workload, seed, seconds, 0))
                pair = {s: runs[workload][s][-1]["metrics"]["ops_per_s"]["value"] for s in order}
                print(f"pair {k} seed {seed} {workload}: ops/s base {pair['base']:.1f} "
                      f"change {pair['change']:.1f}", file=sys.stderr)
        for workload in workloads:
            traced = {side: run_bench(path, workload, 1, seconds, 1)
                      for side, path in sides.items()}
            record["workloads"][workload] = {
                "summary": summarize(runs[workload], better),
                "operations": {side: {k: sum(r[k] for r in rs) for k in ("failed", "attempted")}
                               for side, rs in runs[workload].items()},
                "correct": all(r["correct"] for rs in runs[workload].values() for r in rs),
                "traced": traced,
                "runs": runs[workload],
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
