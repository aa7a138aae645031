"""downgen benchmark: one workload, closed loop, checked outputs, JSON result.

    python3 perfbench/run.py --workload {train,infer,e2e} --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is this file's parent directory. Each
operation starts when the previous one returns. Set-up runs five times and
reports its median; repetitions of the timed part run until the next one
would end after --seconds (train and infer run at least two, so reruns can be
compared bitwise; a traced run always has two).

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 times
half the budget untraced and half with every layer wrapped, then runs the
kernel sheet, and prints the per-layer metrics; spans are written to
perfbench/out/. The line before the result holds the environment, the
checks, the workload's own throughput figures and every layer metric.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: outputs are bitwise reproducible
# only at a fixed BLAS thread count, and pmap's threads already use the CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("DOWNGEN_THREADS", None)   # pmap keeps its default worker count

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def blas_info():
    """(name, version, configuration, threads) of the BLAS numpy loaded."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    conf = threads = None
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            try:
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                get_conf = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            get_threads.restype, get_conf.restype = ctypes.c_int, ctypes.c_char_p
            threads, conf = get_threads(), get_conf().decode()
            break
    return blas.get("name"), blas.get("version"), conf, threads


def environment():
    import numpy as np
    from downgen import parallel
    name, version, conf, threads = blas_info()
    return {"numpy": np.__version__, "blas": name, "blas_version": version,
            "blas_config": conf, "blas_threads": threads, "blas_threads_pinned": BLAS_THREADS,
            "pmap_workers": parallel.worker_count(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": loadavg()}


def run_reps(wl, state, seconds, min_reps, tracer):
    """Repeat the timed part while the next repetition is predicted to fit."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(wl.rep(state, len(reps), tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall_s for r in reps)
        if len(reps) >= min_reps and elapsed + typical > seconds:
            return reps


def median_of(reps, attr):
    return statistics.median(getattr(r, attr) for r in reps)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train", "infer", "e2e"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["demo", "tiny"], default="demo",
                   help="tiny: small nets and grids, for the smoke test")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    needed = [ROOT / "src" / "downgen" / "__init__.py", ROOT / "configs" / "demo.ini", spec_path]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: missing {', '.join(missing)}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    from downgen import parallel
    from kernels import kernel_sheet
    from workloads import WORKLOADS

    (ROOT / "perfbench" / "out").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / "perfbench" / "out"))
    try:
        env = environment()
        wl = WORKLOADS[args.workload](ROOT, args.seed, args.size, run_dir)
        setup_s = []
        for i in range(1 if args.trace else SETUPS):
            t0 = time.perf_counter()
            state = wl.setup(i)
            setup_s.append(time.perf_counter() - t0)

        detail = {}
        if not args.trace:
            with tracing.Tracer().install(wl.stage_targets) as stages:
                reps = run_reps(wl, state, args.seconds, wl.min_reps, stages)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wall_s, debias_s, sr_s = (median_of(reps, a) for a in ("wall_s", "debias_s", "sr_s"))
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "wall_s": (wall_s, "s"),
                "debias_stage_s": (debias_s, "s"),
                "sr_stage_s": (sr_s, "s"),
                "cpu_s": (median_of(reps, "cpu_s"), "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                **wl.throughput(wall_s, debias_s, sr_s),
            }
            wanted = spec["end_to_end"]
        else:
            half = args.seconds / 2
            with tracing.Tracer().install(wl.stage_targets) as stages:
                plain = run_reps(wl, state, half, 1, stages)
            tracer = tracing.Tracer().install(tracing.LAYER_TARGETS + wl.stage_targets,
                                              pmap=True)
            with tracer:
                traced = run_reps(wl, state, half, 1, tracer)
            reps = plain + traced
            metrics = tracing.layer_metrics(tracer.spans, len(traced), parallel.worker_count())
            metrics["trace.overhead_share"] = (
                median_of(traced, "wall_s") / median_of(plain, "wall_s") - 1.0, "1")
            notes = [r.notes.get("grid.bytes_written", 0) for r in traced]
            metrics["grid.bytes_written"] = (statistics.median(notes), "B")
            metrics.update(kernel_sheet(ROOT, args.seed, run_dir, quick=args.size == "tiny"))
            trace_file = (ROOT / "perfbench" / "out"
                          / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
            tracer.write(trace_file)
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            wanted = spec["per_layer"]

        attempted = sum(r.attempted for r in reps)
        failed = sum(r.failed for r in reps)
        env["loadavg_end"] = loadavg()
        detail.update({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "environment": env, "setup_s_each": setup_s,
            "reps": len(reps), "rep_wall_s": [r.wall_s for r in reps],
            "ops": attempted, "ops_failed": failed, "checks": wl.checks,
            "notes": [r.notes for r in reps],
            "layers" if args.trace else "metrics": {
                k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        })
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            print(f"benchmark: metrics not produced: {missing}", file=sys.stderr)
            return 1
        result = {"correct": failed == 0 and bool(wl.checks), "attempted": attempted,
                  "failed": failed,
                  "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                          "unit": metrics[m["name"]][1]} for m in wanted}}
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
