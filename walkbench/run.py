"""Benchmark of hyperwalks through its public surface.

Usage, from the root of the repository:

    python3 walkbench/run.py --workload check|terms|words [--seed N] [--seconds S] [--trace 0|1]

Runs passes of the workload, each in a fresh child interpreter (one at a time),
until S seconds have gone and at least MIN_PASSES passes are done, checks every
output (verify.py) and prints, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  setup_s      median over passes of the child's `import hyperwalks, hyperwalks.cli`
  pass_s       sum over operations of each operation's median wall time over passes
  peak_rss_mb  largest ru_maxrss of any pass's child
--trace 1 runs pairs of one untraced and one traced pass, in alternating order,
and reports the median over pairs of every per-layer metric that BENCHMARK.json
names (spans.py), and trace.overhead_s, the traced pass's operation time minus
the untraced pass's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads
from verify import Verifier

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("check", "terms", "words")
MIN_PASSES = 3
MIN_PAIRS = 1
# A run stops starting passes once the next would likely end after this.
RUN_LIMIT_S = 150
PASS_TIMEOUT_S = 60


def build_ops(workload: str, seed: int) -> tuple[list[dict], dict[str, bool]]:
    if workload == "check":
        return workloads.check_ops(), {}
    if workload == "terms":
        return workloads.terms_ops(), {}
    return workloads.words_ops(seed)


def child_env(cache: Path) -> dict[str, str]:
    """The caller's environment with an empty cache home (and temporary directory)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "PYTHONSTARTUP",
                        "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    env.update(XDG_CACHE_HOME=str(cache), HYPERWALKS_OEIS_CACHE=str(cache), TMPDIR=str(cache))
    return env


class Runner:
    """Runs passes in fresh children and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.ops, expected = build_ops(workload, seed)
        self.verifier = Verifier(workload, ROOT, expected)
        self.label = f"{workload}-{seed}"
        RESULTS.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=self.label + "-", dir=RESULTS))
        self.ops_path = self.dir / "ops.json"
        self.ops_path.write_text(json.dumps([{k: v for k, v in op.items() if k != "id"} for op in self.ops]))
        self.passes = 0
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.failed_count = 0
        self.wrong: set[str] = set()

    def child(self, ops_path: Path, traced: bool) -> tuple[dict, dict | None]:
        """One pass in a fresh interpreter whose working directory and cache
        home are empty temporary directories."""
        work = Path(tempfile.mkdtemp(dir=self.dir))
        cwd, cache = work / "cwd", work / "cache"
        cwd.mkdir()
        cache.mkdir()
        result_path, trace_path = work / "result.json", work / "trace.json"
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), str(ops_path), str(result_path)]
        if traced:
            argv.append(str(trace_path))
        try:
            proc = subprocess.run(argv, cwd=cwd, env=child_env(cache), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            result = json.loads(result_path.read_text())
            trace = json.loads(trace_path.read_text()) if traced else None
            if traced:
                shutil.copy(trace_path, RESULTS / f"spans-{self.label}.json")
            return result, trace
        finally:
            shutil.rmtree(work)

    def warm_up(self) -> None:
        """Import once, untimed, so that every timed pass finds compiled bytecode."""
        empty = self.dir / "empty.json"
        empty.write_text("[]")
        self.child(empty, traced=False)

    def run_pass(self, traced: bool = False) -> tuple[dict, dict | None]:
        result, trace = self.child(self.ops_path, traced)
        failed, wrong = self.verifier.check_pass(self.ops, result["ops"])
        self.passes += 1
        self.attempted += len(self.ops)
        self.failed_count += len(failed)
        self.failed.update(failed)
        self.wrong |= wrong
        return result, trace

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def keep_going(start: float, done: int, minimum: int, seconds: float) -> bool:
    elapsed = time.monotonic() - start
    if done < minimum:
        return True
    per_pass = elapsed / done
    return elapsed < seconds and elapsed + per_pass < RUN_LIMIT_S


def end_to_end(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    results = []
    start = time.monotonic()
    while keep_going(start, len(results), MIN_PASSES, seconds):
        results.append(runner.run_pass()[0])
    per_op = zip(*[[op["wall_s"] for op in result["ops"]] for result in results])
    return {
        "setup_s": (statistics.median(r["import_s"] for r in results), "s"),
        "pass_s": (sum(statistics.median(times) for times in per_op), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in results) * 1024 / 1e6, "MB"),
    }


def per_layer(runner: Runner, seconds: float) -> dict[str, tuple[float, str]]:
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    names = [name for name in units if name != "trace.overhead_s"]
    samples: dict[str, list[float]] = {name: [] for name in units}
    start = time.monotonic()
    pairs = 0
    while keep_going(start, pairs, MIN_PAIRS, seconds):
        # Alternate which pass goes first, so slow drift in CPU speed does not
        # bias trace.overhead_s.
        if pairs % 2 == 0:
            plain, _ = runner.run_pass()
            traced, trace = runner.run_pass(traced=True)
        else:
            traced, trace = runner.run_pass(traced=True)
            plain, _ = runner.run_pass()
        metrics = spans.layer_metrics(trace, names)
        metrics["trace.overhead_s"] = (sum(op["wall_s"] for op in traced["ops"])
                                       - sum(op["wall_s"] for op in plain["ops"]))
        for name, value in metrics.items():
            samples[name].append(value)
        pairs += 1
    return {name: (statistics.median(samples[name]), unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperwalks" / "__init__.py").is_file():
        print(f"error: no hyperwalks sources under {SRC}", file=sys.stderr)
        return 2
    # Counts can have more digits than the default int/str conversion limit.
    sys.set_int_max_str_digits(0)

    runner = Runner(args.workload, args.seed)
    try:
        runner.warm_up()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    finally:
        runner.close()
    for op_id, reason in sorted(runner.failed.items()):
        print(f"failed {op_id}: {reason}")
    print(f"{args.workload}: {runner.passes} passes of {len(runner.ops)} operations")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed_count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
