"""Smoke test of the benchmark harness at the smallest input size.

    python3 perfbench/test_harness.py        (or: python3 -m pytest perfbench)

Runs every workload once untraced and once traced with --tiny, and checks
that the last output line names every metric of BENCHMARK.json with its
unit.  Also checks that the harness refuses to run without the sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_every_metric_is_emitted_with_its_unit():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0
            assert isinstance(last["attempted"], int) and last["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in last["metrics"].items()}
            assert got == want, (w["name"], trace)
            for name, m in last["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    test_refuses_to_run_without_sources()
    print("ok")
