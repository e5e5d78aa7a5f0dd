"""``scripts/bench_record.py`` runs every benchmark with the bytecode cache
out of the checkout's reach, so that ``setup_s`` compares code, not the
``__pycache__`` state of the two checkouts."""

import importlib.util
import json
import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_run_compiles_from_source_with_a_fresh_empty_cache(monkeypatch, tmp_path):
    bench_record = load_bench_record()
    seen = []

    def fake_run(cmd, **kwargs):
        env = kwargs["env"]
        prefix = env["PYTHONPYCACHEPREFIX"]
        seen.append((env["PYTHONDONTWRITEBYTECODE"], prefix, os.listdir(prefix)))
        details = {"env": {"commit": "abc"}}
        result = {"failed": 0, "attempted": 3, "metrics": {"setup_s": {"value": 0.1}}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(details) + "\n"
                                           + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    runs = [bench_record.run_once(str(tmp_path / side), "certify", 2, 1.0)
            for side in ("parent", "change")]
    assert [r["metrics"] for r in runs] == [{"setup_s": 0.1}] * 2
    assert [s[0] for s in seen] == ["1", "1"]
    assert [s[2] for s in seen] == [[], []]
    prefixes = [s[1] for s in seen]
    assert len(set(prefixes)) == 2 and str(tmp_path) not in prefixes
    # the caches are removed after their runs
    assert not any(os.path.exists(p) for p in prefixes)
