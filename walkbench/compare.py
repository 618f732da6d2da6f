"""Run sets of benchmark runs and compare them against the bounds.

Usage, from the root of the repository:

    python3 walkbench/compare.py

Runs two sets of ten runs of every workload of BENCHMARK.json, with its run
length; set k, run i uses seed 100*k + i.  Runs are made one at a time.  For each workload and end-to-end metric it prints each
set's median, quartiles and spread (quartile distance over the median), and the
gap between the sets' medians as a share of the first, against the metric's
bound; and each set's share of failed operations.  Raw results go to
walkbench/results/compare.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    raw: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for k in range(1, SETS + 1):
        for workload in workloads:
            runs = []
            for i in range(1, RUNS + 1):
                runs.append(one_run(workload, 100 * k + i, bench["run_seconds"]))
                print(f"set {k} {workload} run {i}: {json.dumps(runs[-1]['metrics'])}", flush=True)
            raw[workload].append(runs)
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "compare.json").write_text(json.dumps(raw, indent=1))

    print(f"\n{'workload':8} {'metric':12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'gap':>7} {'bound':>6}")
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            first = None
            for k, runs in enumerate(raw[workload], start=1):
                median, q1, q3 = summary([run["metrics"][name]["value"] for run in runs])
                first = median if first is None else first
                gap = (median - first) / first if metric["better"] == "lower" else (first - median) / first
                print(f"{workload:8} {name:12} {k:>3} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{(q3 - q1) / median:7.2%} {gap:7.2%} {metric['bound']:6.2f}")
        for k, runs in enumerate(raw[workload], start=1):
            failed = sum(run["failed"] for run in runs)
            attempted = sum(run["attempted"] for run in runs)
            shares = sorted({(run["failed"], run["attempted"]) for run in runs})
            print(f"{workload:8} failed set {k}: {failed}/{attempted} "
                  f"correct={all(run['correct'] for run in runs)} per run {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
