"""Steadiness check: run a workload on several seeds and report the spread.

    python3 perfbench/steady.py --workload section-stream --seeds 10 --seconds 10
    python3 perfbench/steady.py --workload roundtrip --seeds 3 --seconds 10 --trace

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound in BENCHMARK.json.  With ``--trace`` it makes two traced runs per seed
instead and fails unless every count metric (calls, counters, computed
flops and bytes, the attempts ratio) is identical between them.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = {"count", "flop", "B"}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported wrong answers:\n{proc.stderr}")
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def check_counts(workload: str, seed_list: list[int], seconds: float) -> int:
    bad = 0
    for seed in seed_list:
        a, b = (run(workload, seed, seconds, 1)["metrics"] for _ in range(2))
        counts = {k for k, m in a.items()
                  if m["unit"] in COUNT_UNITS or k.endswith("attempts_per_call")}
        diff = {k: (a[k]["value"], b[k]["value"]) for k in sorted(counts)
                if a[k]["value"] != b[k]["value"]}
        print(f"{workload} seed {seed}: {len(counts)} count metrics "
              f"{'identical' if not diff else f'DIFFER {diff}'}")
        bad += bool(diff)
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    seed_list = list(range(1, args.seeds + 1))
    if args.trace:
        return 1 if check_counts(args.workload, seed_list, seconds) else 0

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list:
        metrics = run(args.workload, seed, seconds, 0)["metrics"]
        runs.append(metrics)
        print(f"seed {seed}: " + "  ".join(f"{k}={m['value']:.4g}" for k, m in metrics.items()),
              flush=True)
    worst = 0
    for name, bound in bounds.items():
        values = [r[name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        ok = s < bound / 3
        worst += not ok
        print(f"{args.workload:15s} {name:16s} median {statistics.median(values):10.4g}  "
              f"spread {s:6.3f}  bound/3 {bound / 3:6.3f}  {'ok' if ok else 'TOO WIDE'}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
