"""Seeded benchmark of opcsp over four workloads.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; opcsp is imported from `src/`.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS/OpenMP thread, for this process (before numpy loads) and every
# CLI child: with two threads a fresh process start varies by several percent.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("refute", "linear", "algebra", "operators")
SETUPS = 3  # set-up repetitions; setup_s reports their median
IMPORT_PROBES = 5  # fresh processes timing `import opcsp.cli` in the traced run
CHILD_TIMEOUT = 120
CLI_MAIN = "import sys; sys.argv[0] = 'opcsp'; from opcsp.cli import main; main()"
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import opcsp.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(args: list, cwd: Path) -> tuple:
    """(wall seconds, exit code, stdout, stderr) of one fresh Python process."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT,
    )
    return time.perf_counter() - start, done.returncode, done.stdout, done.stderr


class Tally:
    """Operation outcomes of one run."""

    def __init__(self):
        self.passes: list[list[float]] = []  # operation latencies of each timed pass
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wrong = False  # an output that completed failed a check

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def flag(self, problem: str) -> None:
        self.wrong = True
        self.note(problem)


def run_pass(ops, tally: Tally, tracer, timed: bool) -> None:
    if timed:
        tally.passes.append([])
    for index, op in enumerate(ops):
        if op.prepare is not None:
            op.prepare()
        if tracer is not None:
            tracer.op_id = f"{len(tally.passes)}.{index}" if timed else None
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # one failed operation must not end the run
            tally.attempted += 1
            tally.failed += 1
            tally.note(f"{op.kind} #{index} raised {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        tally.attempted += 1
        if timed:
            tally.passes[-1].append(elapsed)
        verdict_ok, problems = op.check(out)
        if not verdict_ok:
            tally.failed += 1
            tally.note(f"{op.kind} #{index}: unexpected verdict")
            continue
        for problem in problems:
            tally.flag(f"{op.kind} #{index}: {problem}")


def quartile(values: list, upper: bool = True) -> float:
    """Upper (or lower) quartile, as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 if upper else q1


def run_cli_session(commands, workdir: Path, tally: Tally) -> list:
    """Wall times of one round of the CLI session, one per command."""
    times = []
    for cmd in commands:
        if cmd.before is not None:
            cmd.before()
        elapsed, code, out, err = run_child(["-c", CLI_MAIN, *cmd.args], workdir)
        times.append(elapsed)
        label = f"cli `opcsp {cmd.args[0]}`"
        if code != cmd.exit_code:
            tally.flag(f"{label} exited {code}, expected {cmd.exit_code}: {err.strip()[-200:]}")
        elif cmd.expect not in out + err:
            tally.flag(f"{label} printed no {cmd.expect!r}")
        elif cmd.after is not None:
            for problem in cmd.after(out):
                tally.flag(f"{label}: {problem}")
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "opcsp" / "__init__.py").is_file():
        print(f"error: no opcsp sources under {SRC}", file=sys.stderr)
        return 2
    # compile the bytecode and warm the file cache, so that no run pays it
    _, code, _, err = run_child(["-c", "import opcsp.cli"], ROOT)
    if code != 0:
        print(f"error: opcsp does not import:\n{err}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opcsp  # noqa: F401
    import opcsp.cli  # noqa: F401

    import_s = time.perf_counter() - start
    sys.path.insert(0, str(HERE))
    from algebra import Algebra
    from linear import Linear
    from operators import Operators
    from refute import Refute

    workload_class = {w.name: w for w in (Refute, Linear, Algebra, Operators)}[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        return measure(args, tracer, import_s, workdir, workload_class)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, tracer, import_s: float, workdir: Path, workload_class) -> int:
    tally = Tally()

    setup_times = []
    for _ in range(SETUPS):
        if tracer is not None:
            tracer.enabled, tracer.op_id = True, None
        start = time.perf_counter()
        workload = workload_class(args.seed)
        workload.setup(workdir)
        setup_times.append(time.perf_counter() - start)
    ops = workload.ops()

    if tracer is not None:
        tracer.enabled = False
    run_pass(ops, tally, tracer, timed=False)  # fills opcsp's in-process caches
    # one round of the CLI session before the timed passes and one after, so
    # that cli_p50_s samples the whole run
    if tracer is None:
        cli_times = run_cli_session(workload.cli_session(workdir), workdir, tally)
    else:
        tracer.enabled = True
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        run_pass(ops, tally, tracer, timed=True)
        passes += 1
    pass_s = (time.perf_counter() - start) / passes
    if tracer is not None:
        tracer.enabled = False
        with tracer.counting_muls():
            run_pass(ops, tally, tracer, timed=False)

    if tracer is None:
        cli_times += run_cli_session(workload.cli_session(workdir), workdir, tally)
        # Each statistic is taken within each pass, and the value that three
        # passes in four reach is reported.  This machine runs some passes at
        # a steady base speed and others faster by varying amounts, so the
        # slower quartile repeats from run to run where the median does not.
        per_pass = tally.passes
        metrics = {
            "ops_per_s": (quartile([len(p) / sum(p) for p in per_pass], upper=False), "ops/s"),
            "latency_p50_s": (quartile([statistics.median(p) for p in per_pass]), "s"),
            "latency_p90_s": (
                quartile([statistics.quantiles(p, n=10)[8] for p in per_pass]), "s"),
            "cli_p50_s": (statistics.median(cli_times), "s"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(SETUPS, passes)
        imports = [float(run_child(["-c", IMPORT_TIMER], workdir)[2]) for _ in range(IMPORT_PROBES)]
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        (HERE / "traces").mkdir(exist_ok=True)
        tracer.write(HERE / "traces" / f"{args.workload}-seed{args.seed}.json")

    for problem in tally.problems:
        print(problem, file=sys.stderr)
    rates = sorted(len(p) / sum(p) for p in tally.passes)
    print(f"{args.workload}: {passes} timed passes of {len(ops)} operations, "
          f"{pass_s:.4f} s per pass, {rates[0]:.1f} to {rates[-1]:.1f} ops/s", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
