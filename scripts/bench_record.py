"""Run the benchmark on two checkouts, alternated, and record the result.

    python3 scripts/bench_record.py OUT.json --parent OLD --change NEW \
        [--workloads certify section-stream roundtrip] [--seeds 2 3 ...]

For every workload and seed, ``perfbench/run.py`` of each checkout runs once
(``--trace 0``, for ``run_seconds`` of the change's BENCHMARK.json, the
checkout's own benchmark files, unchanged), the parent first on even pair
numbers and the change first on odd ones.  OUT.json gets every run's
end-to-end metrics and, per workload and metric, each side's median and
quartiles and the number of pairs the change won (by the ``better``
direction in BENCHMARK.json; ties count for neither side), with the commits,
the numpy version and the processor count the runs report, and each
commit's ``src`` tree (``git rev-parse HEAD:src``), which names the measured
sources also after the change is rebased or amended.

Every run gets ``PYTHONDONTWRITEBYTECODE=1`` and a fresh, empty
``PYTHONPYCACHEPREFIX``, so both checkouts compile fellbund from source
whatever bytecode they hold, as in a fresh checkout; otherwise a side with
a ``__pycache__`` imports several times faster and ``setup_s`` compares
bytecode states rather than code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run, compiling from source: its details line and its
    result line."""
    with tempfile.TemporaryDirectory() as pycache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=pycache)
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{root}: {workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"env": details["env"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def src_tree(root: str) -> str:
    """Hash of the ``src`` tree of the checkout's HEAD commit."""
    return subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; both quartiles equal the
    value for a single run)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        metrics = {}
        for name, direction in better.items():
            sides = {s: [p[s]["metrics"][name] for p in pairs] for s in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            metrics[name] = {**{s: spread(v) for s, v in sides.items()},
                             "change_wins": wins, "pairs": len(pairs)}
        out[workload] = {"metrics": metrics,
                         "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES}}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", nargs="+", default=["certify"])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(2, 12)))
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    runs = []
    for workload in args.workloads:
        for i, seed in enumerate(args.seeds):
            pair = {"workload": workload, "seed": seed,
                    "first": SIDES[i % 2]}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[side] = run_once(roots[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()),
                      file=sys.stderr, flush=True)
            runs.append(pair)

    env = runs[0]["change"]["env"] if runs else {}
    record = {
        "commits": {s: runs[0][s]["env"]["commit"] for s in SIDES} if runs else {},
        "src_trees": {s: src_tree(roots[s]) for s in SIDES},
        "numpy": env.get("numpy"), "nproc": env.get("nproc"), "cpu": env.get("cpu"),
        "seconds": seconds, "seeds": args.seeds,
        "summary": summarise(runs, better),
        "runs": [{k: ({"metrics": v["metrics"], "failed": v["failed"],
                       "attempted": v["attempted"]} if k in SIDES else v)
                  for k, v in r.items()} for r in runs],
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
