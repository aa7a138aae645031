"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

    python3 perfbench/smoke.py

For each run it asserts that the result line holds exactly the metrics
BENCHMARK.json names for that mode, each with its unit and a numeric value,
and that the output checks ran and passed. It also asserts that the benchmark
refuses to run, without printing a result, from a directory holding only
BENCHMARK.json and perfbench/. Timings are never checked.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV_KEYS = {"numpy", "blas", "blas_version", "blas_threads", "pmap_workers", "nproc",
            "python", "loadavg_start", "loadavg_end"}


def run(script, workload, trace):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    proc = run(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = (json.loads(line) for line in proc.stdout.splitlines())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert detail["checks"] and all(bad == 0 for _, bad in detail["checks"].values()), \
        detail["checks"]
    if trace:   # two repetitions (untraced, traced), so reruns are compared
        assert detail["checks"].get("rerun_identical", [0])[0] >= 1, detail["checks"]
    assert ENV_KEYS <= set(detail["environment"]), detail["environment"]
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, set(got) ^ set(want)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    print(f"ok {workload} trace={trace}: {len(got)} metrics, checks {detail['checks']}")


def check_bare_checkout(spec):
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out"))
        proc = run(bare / "perfbench" / "run.py", "train", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare checkout refused")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_bare_checkout(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
