"""Run the benchmark on a base commit and on this checkout, alternately, and
write both sides to one JSON record.

    python tools/bench_record.py --base HEAD~1 --out BENCH_6.json

Both sides are packed the same way: the base commit by `git archive`, the
change side as the files of this checkout that git tracks, read from the
working tree, so uncommitted edits count.  Every run unpacks its side into a
fresh temporary directory of its own, named alike for both sides, and
removes it afterwards, so neither side runs from a fixed path.  Before each
run, untimed, `python -m compileall -q src perfbench` compiles the unpacked
tree with bytecode writing on for that command only, so a run under
PYTHONDONTWRITEBYTECODE=1 imports both sides from bytecode rather than from
source; the record's `machine` field says so.  Each of ten
pairs runs `perfbench/run.py --workload W --seed S --seconds T --trace 0`
once on each side for every workload of `BENCHMARK.json`, with the same seed
(pair k uses seed k + 1) and the run length T of `BENCHMARK.json`; even pairs
run the base first and odd pairs the change first.  After the timed pairs,
TRACED_PAIRS traced pairs (`--trace 1`) per workload give the per-layer
metrics: traced pair k uses seed k + 1 and runs the base first when k is
even, as the timed pairs do.  The benchmark itself, its corpora and its
bounds are not touched.

The record holds every run's JSON line, traced runs included; per workload
and end-to-end metric, each side's median and quartiles, the ratio of the
medians (change / base) and how many pairs the change won in the direction
that `BENCHMARK.json` calls better (ties count for neither side); and per
workload and layer metric, each side's median and range over its traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
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
TRACED_PAIRS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--out", required=True, type=Path)
    return parser.parse_args(argv)


def archive(rev: str) -> tuple:
    """(full commit id, tar bytes) of the tree of `rev`."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    return commit, subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                                  capture_output=True).stdout


def working_tree_archive() -> bytes:
    """Tar bytes of the files git tracks in this checkout, as they are in the
    working tree; a tracked file deleted from the tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True).stdout.decode().split("\0")
    out = BytesIO()
    with tarfile.open(fileobj=out, mode="w") as tar:
        for name in filter(None, names):
            if (ROOT / name).is_file():
                tar.add(ROOT / name, arcname=name)
    return out.getvalue()


def unpack(packed: bytes, dest: Path) -> None:
    with tarfile.open(fileobj=BytesIO(packed)) as tar:
        tar.extractall(dest, filter="data")


def export(rev: str, dest: Path) -> str:
    """Unpack the tree of `rev` into `dest`; returns the full commit id."""
    commit, packed = archive(rev)
    unpack(packed, dest)
    return commit


def run_bench(packed: bytes, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run, from a fresh directory that holds the unpacked side."""
    with tempfile.TemporaryDirectory(prefix="bench-run-") as tmp:
        unpack(packed, Path(tmp))
        compile_tree(Path(tmp))
        return run_checkout(Path(tmp), workload, seed, seconds, trace)


def compile_tree(checkout: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=checkout,
                   env=env, check=True, capture_output=True)


def run_checkout(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
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


def alternate(k: int) -> tuple:
    """The order of the two sides in the k-th pair: the base first when k is even."""
    return ("base", "change") if k % 2 == 0 else ("change", "base")


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


def layer_summary(traced: dict) -> dict:
    """Per layer metric: its unit, and each side's median and range over its
    traced runs."""
    out = {}
    for name, metric in traced["base"][0]["metrics"].items():
        out[name] = {"unit": metric["unit"]}
        for side, rs in traced.items():
            values = [r["metrics"][name]["value"] for r in rs]
            out[name][side] = {"median": statistics.median(values), "min": min(values), "max": max(values)}
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
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}, "
                   "each run's tree compiled (compileall src perfbench) before it runs",
        "command": f"perfbench/run.py --seconds {seconds} --trace 0",
        "pairs": PAIRS,
        "traced_pairs": TRACED_PAIRS,
        "workloads": {},
    }
    record["base"], base = archive(args.base)
    sides = {"base": base, "change": working_tree_archive()}
    runs = {w: {"base": [], "change": []} for w in workloads}
    for k in range(PAIRS):
        seed = k + 1
        for workload in workloads:
            for side in alternate(k):
                runs[workload][side].append(run_bench(sides[side], workload, seed, seconds, 0))
            pair = {s: runs[workload][s][-1]["metrics"]["ops_per_s"]["value"] for s in sides}
            print(f"pair {k} seed {seed} {workload}: ops/s base {pair['base']:.1f} "
                  f"change {pair['change']:.1f}", file=sys.stderr)
    for workload in workloads:
        traced = {"base": [], "change": []}
        for k in range(TRACED_PAIRS):
            for side in alternate(k):
                traced[side].append(run_bench(sides[side], workload, k + 1, seconds, 1))
            print(f"traced pair {k} seed {k + 1} {workload}", file=sys.stderr)
        record["workloads"][workload] = {
            "summary": summarize(runs[workload], better),
            "operations": {side: {k: sum(r[k] for r in rs) for k in ("failed", "attempted")}
                           for side, rs in runs[workload].items()},
            "correct": all(r["correct"] for rs in runs[workload].values() for r in rs),
            "layers": layer_summary(traced),
            "traced": traced,
            "runs": runs[workload],
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
