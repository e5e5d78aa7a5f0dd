"""Run one fellbund benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; fellbund is imported
from its ``src`` directory.  One client runs the workload's ops in a closed
loop, whole cycles at a time, until ``--seconds`` have passed, and checks
every answer against an oracle.  With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics, every time in them scaled to
the reference speed of the probe in ``speed.py``; with ``--trace 1`` the same
cycle is run alternately without and with the outside-in tracer on
identical inputs, and the object carries the per-layer metrics.  The line
before it holds the details (environment, tail percentile, failures).
Without fellbund's sources it exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
import time

NPROC = len(os.sched_getaffinity(0))


# Single-threaded BLAS, pinned before numpy loads OpenBLAS (a setting of
# this process only): the benchmark is one client, and on a shared 2-core
# box a second BLAS thread made small ops slower and noisier
# (section-stream: ~600 against ~685 ops/s).
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
os.environ.pop("FELLBUND_SEED", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".out")

if not os.path.isfile(os.path.join(SRC, "fellbund", "__init__.py")):
    print(f"error: fellbund sources not found under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import envstamp  # noqa: E402
import workloads  # noqa: E402
from speed import REF_S, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

IMPORT_REPEATS = 5
SETUP_REPEATS = 7

# metric -> unit, as declared in BENCHMARK.json.  Per-layer names
# "<span>.calls" and "<span>.self_s" are read from the trace window's span
# table, other names from its counters.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}


def layer_value(metric: str, windows: list[dict], ratios: list[float]) -> float:
    """A per-layer metric from the traced cycles: counts from the first,
    self times as the median over all of them."""
    first = windows[0]
    if metric == "trace.overhead_ratio":
        return statistics.median(ratios)
    if metric == "envelope.block_decomposition.attempts_per_call":
        calls = first["calls"].get("envelope.block_decomposition", 0)
        return first["counters"]["envelope.block_decomposition.attempts"] / calls if calls else 0.0
    span, _, kind = metric.rpartition(".")
    if kind == "calls":
        return first["calls"].get(span, 0)
    if kind == "self_s":
        return statistics.median(w["self_s"].get(span, 0.0) for w in windows)
    return first["counters"].get(metric, 0)


class Tally:
    """Latencies of successful ops and the failures of one loop.  With a
    ``sampler`` the latencies are scaled to the probe's reference speed,
    and the measured ones are kept in ``raw``."""

    def __init__(self, sampler: Sampler | None = None) -> None:
        self.sampler = sampler
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, op) -> None:
        """Time ``op``; if it returns a check, run that untimed."""
        self.attempted += 1
        mark = self.sampler.mark() if self.sampler else None
        t = time.perf_counter()
        try:
            check = op()
            latency = time.perf_counter() - t
            scaled_latency = self.sampler.since(mark, latency) if self.sampler else latency
            if check is not None:
                check()
        except workloads.Mismatch as exc:
            self.failures.append(f"{label}: wrong answer: {exc}")
            return
        except Exception as exc:  # an op that raises is a failed op, not a crash
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.failures.append(f"{label}: {type(exc).__name__}: {exc} "
                                 f"({os.path.basename(where.filename)}:{where.lineno})")
            return
        self.raw.append(latency)
        self.latencies.append(scaled_latency)


def run_cycle(workload, rng, tally: Tally, tracer: Tracer | None = None) -> float:
    """One pass over the workload's ops; its wall time."""
    t = time.perf_counter()
    for label, op in workload.ops(rng):
        if tracer is not None:
            tracer.current_op = tally.attempted
        tally.run(label, op)
    return time.perf_counter() - t


def hd_quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples: a
    Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics.  With
    39 ops of 39 different kinds, the plain sample median is one op's time
    and jumps whenever two neighbouring ops swap places; this weights the
    few order statistics around it instead."""
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    x = np.linspace(0.0, 1.0, 200_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(weights @ np.asarray(ordered))


def window_metrics(latencies: list[float]) -> dict:
    """Throughput, median and tail latency of one window.  With one client
    in a closed loop, throughput is ops over the time spent in them, which
    leaves out the untimed oracle checks.  The tail is the highest
    percentile with at least 10 samples beyond it: p = (n - 10)/n for a
    window of n samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return {"ops_per_s": n / sum(ordered), "p50_s": hd_quantile(ordered, 0.5),
            "tail_s": hd_quantile(ordered, rank / n), "tail_rank": rank, "samples": n}


def import_times() -> list[float]:
    """fellbund's import time in IMPORT_REPEATS fresh interpreters, one
    after another, each scaled to the probe's reference speed."""
    cmd = [sys.executable, os.path.join(HERE, "import_time.py")]
    return [float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(IMPORT_REPEATS)]


def set_up(cls, seed: int, sampler: Sampler | None):
    """Build the workload SETUP_REPEATS times; the last one, and each
    set-up time, scaled to the probe's reference speed if ``sampler``."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        mark = sampler.mark() if sampler else None
        t = time.perf_counter()
        workload = cls(ROOT, WORKDIR, seed)
        elapsed = time.perf_counter() - t
        times.append(sampler.since(mark, elapsed) if sampler else elapsed)
    return workload, times


def end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Whole cycles until ``seconds`` have passed, cut into windows of the
    workload's ``window_cycles`` cycles; each metric is the median over the
    windows.  A window has a fixed number of ops, so the tail percentile
    does not move with the machine's speed, and a burst of outside load
    that covers less than half the windows does not move the medians."""
    rng = np.random.default_rng([seed, 1])
    bounds = [0]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        run_cycle(workload, rng, tally)
        bounds.append(len(tally.latencies))
    elapsed = time.perf_counter() - t0
    k = workload.window_cycles
    edges = bounds[::k] if len(bounds) > k else [0, bounds[-1]]
    windows = [window_metrics(tally.latencies[a:b]) for a, b in zip(edges, edges[1:]) if b > a]
    if not windows:
        raise SystemExit(f"error: no op succeeded; first failure: {tally.failures[:1]}")
    return {"cycles": len(bounds) - 1, "elapsed_s": elapsed, "windows": len(windows),
            "ops_per_s_overall": len(tally.latencies) / elapsed,
            "window": {"cycles": k, "samples": windows[0]["samples"],
                       "tail_rank": windows[0]["tail_rank"],
                       "tail_percentile": 100.0 * windows[0]["tail_rank"] / windows[0]["samples"]},
            "per_window": {key: [w[key] for w in windows] for key in ("ops_per_s", "p50_s", "tail_s")},
            **{key: statistics.median(w[key] for w in windows)
               for key in ("ops_per_s", "p50_s", "tail_s")}}


def traced(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced cycles on identical inputs."""
    tracer = Tracer()
    windows, ratios = [], []
    t0 = time.perf_counter()
    while True:
        plain = run_cycle(workload, np.random.default_rng([seed, 1]), tally)
        tracer.install()
        try:
            mark = tracer.mark()
            wall = run_cycle(workload, np.random.default_rng([seed, 1]), tally, tracer)
        finally:
            tracer.uninstall()
        windows.append(tracer.window(mark))
        ratios.append(wall / plain)
        if time.perf_counter() - t0 >= seconds:
            break
    first = windows[0]
    repeat = all(w["calls"] == first["calls"] and w["counters"] == first["counters"]
                 for w in windows)
    metrics = {m: {"value": layer_value(m, windows, ratios), "unit": unit}
               for m, unit in PER_LAYER.items()}
    os.makedirs(WORKDIR, exist_ok=True)
    stem = os.path.join(WORKDIR, f"trace-{workload.name}-{seed}")
    tracer.save(stem + ".npz")
    with open(stem + ".json", "w") as fh:
        json.dump({"cycles": len(windows), "overhead_ratios": ratios,
                   "counts_repeat": repeat, "windows": windows}, fh, indent=1, sort_keys=True)
    return metrics, {"trace_cycles": len(windows), "counts_repeat": repeat,
                     "trace_file": os.path.relpath(stem + ".npz", ROOT)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    os.makedirs(WORKDIR, exist_ok=True)
    imports = import_times()
    cls = workloads.WORKLOADS[args.workload]
    # the traced run reports self times as measured, and takes no probes
    with contextlib.nullcontext() if args.trace else Sampler() as sampler:
        workload, setup_times = set_up(cls, args.seed, sampler)
        tally = Tally(sampler)
        try:
            if args.trace:
                metrics, details = traced(workload, args.seed, args.seconds, tally)
            else:
                details = end_to_end(workload, args.seed, args.seconds, tally)
        finally:
            workload.close()

    failed = len(tally.failures)
    for line in tally.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": tally.attempted, "failed": failed,
        "failed_frac": failed / max(tally.attempted, 1),
        "import_runs_s": imports, "setup_runs_s": setup_times,
        "env": envstamp.stamp(ROOT, BLAS_THREADS, NPROC),
    })
    if not args.trace:
        details["probe"] = {"ref_s": REF_S, "probes": len(sampler.probes),
                            "median_s": statistics.median(sampler.probes),
                            "min_s": min(sampler.probes), "max_s": max(sampler.probes)}
        details["unscaled"] = {"ops_per_s": len(tally.raw) / sum(tally.raw),
                               "p50_ms": 1e3 * statistics.median(tally.raw)}
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "ops_per_s": details.pop("ops_per_s"),
            "latency_p50_ms": 1e3 * details.pop("p50_s"),
            "latency_tail_ms": 1e3 * details.pop("tail_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        for k, v in values.items():
            print(f"{args.workload} {k} = {v:.6g} {END_TO_END[k]}", file=sys.stderr)
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print(f"error: non-finite metric in {metrics}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
