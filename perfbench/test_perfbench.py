"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # first: puts fellbund's src directory on sys.path
import speed
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def test_wrong_oracle_value_counts_as_failed_not_as_crash(monkeypatch, tmp_path):
    certify = workloads.Certify(run.ROOT, str(tmp_path), seed=1)
    try:
        # the closed form of a pair(3) line bundle is one 3x3 block of
        # multiplicity 3; claim something else
        monkeypatch.setattr(workloads, "expected_blocks",
                            lambda kind, n: [{"size": n + 1, "multiplicity": n}])
        ops = dict(certify.ops(None))
        tally = run.Tally()
        tally.run("envelope line-pair3", ops["envelope line-pair3"])
        tally.run("validate line-pair3", ops["validate line-pair3"])
    finally:
        certify.close()
    assert tally.attempted == 2
    assert len(tally.latencies) == 1
    assert len(tally.failures) == 1
    assert "wrong answer" in tally.failures[0]


def test_raising_op_counts_as_failed():
    tally = run.Tally()
    tally.run("boom", lambda: 1 / 0)
    tally.run("fine", lambda: None)
    assert tally.attempted == 2 and len(tally.latencies) == 1
    assert "ZeroDivisionError" in tally.failures[0]


def test_scaled_time_leaves_out_probing_and_uses_the_mean_probe():
    sampler = speed.Sampler()
    sampler.probes = [speed.REF_S]
    mark = sampler.mark()
    # two probes during the op, one at the reference speed and one three
    # times slower, took 0.1 s of the 1.1 s measured
    sampler.probes += [speed.REF_S, 3 * speed.REF_S]
    sampler.spent += 0.1
    assert sampler.since(mark, 1.1) == pytest.approx(1.0 / (5 / 3))


def test_tail_has_ten_samples_beyond_it():
    w = run.window_metrics([float(i) for i in range(39, 0, -1)])
    assert w["samples"] == 39 and w["tail_rank"] == 29 and w["ops_per_s"] == 39 / 780
    # on the samples 1..n a Harrell-Davis estimate sits at n * p + 1/2
    assert w["p50_s"] == pytest.approx(20.0)
    assert w["tail_s"] == pytest.approx(29.5)


def test_plan_cost_from_dimension_tables():
    bundle = workloads.fb.gallery.pair_line_bundle(2)
    flops, nbytes = tracing.plan_cost(bundle.conv_plan())
    # pair(2) has 8 composable pairs of 1-dimensional fibres
    assert flops == 8 * 8
    assert nbytes == 8 * 16 * (1 + 1 + 1 + 2)


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    ideals, spectrum, envelope = (sys.modules[f"fellbund.{m}"]
                                  for m in ("ideals", "spectrum", "envelope"))
    original = envelope.block_decomposition
    t = tracing.Tracer()
    t.install()
    try:
        for module in (ideals, spectrum, envelope):
            assert module.block_decomposition.__wrapped__ is original
        mark = t.mark()
        bundle = workloads.fb.gallery.a4_bundle()
        found = ideals.enumerate_fell_ideals(bundle)
        window = t.window(mark)
    finally:
        t.uninstall()
    assert envelope.block_decomposition is original
    assert ideals.block_decomposition is original
    assert window["counters"]["ideals.found"] == len(found) == 4
    # a4 has three objects with one unit-fibre block each: 2^3 families
    assert window["counters"]["ideals.candidates"] == 8
    assert window["calls"]["envelope.block_decomposition"] >= 3


def test_irrep_frame_retries_are_not_decomposition_attempts():
    t = tracing.Tracer()
    t.install()
    try:
        mark = t.mark()
        sys.modules["fellbund.envelope"].irreducible_envelope_blocks(
            workloads.fb.gallery.a4_bundle())
        window = t.window(mark)
    finally:
        t.uninstall()
    calls = window["calls"]
    attempts = window["counters"]["envelope.block_decomposition.attempts"]
    # each irreducible-frame search makes at least one clustering call of
    # its own, and none of them is a decomposition attempt
    assert calls["envelope.irrep_frame"] >= 1
    assert calls["envelope.block_decomposition"] <= attempts
    assert attempts <= calls["linalg.cluster_eigenvalues"] - calls["envelope.irrep_frame"]


def _bench(*args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_traced_roundtrip_bypasses_kernel_and_gram_builds():
    proc = _bench("--workload", "roundtrip", "--seed", "3", "--seconds", "0.5", "--trace", "1",
                  cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["kernels.convolve.calls"]["value"] == 0
    assert metrics["envelope.RegularRepAt.build.calls"]["value"] == 0
    assert metrics["reps.disintegrate.self_s"]["value"] > 0
    assert details["counts_repeat"]


def test_end_to_end_line_has_every_metric_with_its_unit():
    proc = _bench("--workload", "section-stream", "--seed", "2", "--seconds", "0.5",
                  cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert result["correct"] and result["attempted"] >= 15
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("kind,n,want", [("pair", 4, [{"size": 4, "multiplicity": 4}]),
                                          ("cyclic", 3, [{"size": 1, "multiplicity": 1}] * 3)])
def test_generated_line_bundles_match_closed_form(kind, n, want):
    bundle = workloads.line_bundle(kind, n, seed=5)
    env = workloads.fb.envelope_algebra(bundle)
    assert env.injective and env.block_summary() == want
