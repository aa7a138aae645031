"""Span tracing of downgen's public functions, from outside the package.

Each target function is replaced, at the module attribute its callers look up,
by a wrapper that records one span: (id, name, start, end, parent id, CPU
seconds for ``cli.*`` stages). Spans stay in memory until the run ends. The
package source is never modified; ``Tracer.uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import threading
import time

import numpy as np

# (span name, [(module, attribute), ...]): every place a caller looks the name up.
LAYER_TARGETS = [
    ("autodiff.conv2d", [("downgen.autodiff", "conv2d")]),
    ("autodiff.silu", [("downgen.autodiff", "silu")]),
    ("autodiff.backward", [("downgen.reflow", "backward"), ("downgen.diffusion", "backward")]),
    ("nets.velocity_forward", [("downgen.reflow", "velocity_forward")]),
    ("nets.denoiser_forward", [("downgen.diffusion", "denoiser_forward")]),
    ("nets.save_checkpoint", [("downgen.reflow", "save_checkpoint"),
                              ("downgen.diffusion", "save_checkpoint")]),
    ("nets.load_checkpoint", [("downgen.reflow", "load_checkpoint"),
                              ("downgen.diffusion", "load_checkpoint")]),
    ("optim.adam_step", [("downgen.reflow", "adam_step"), ("downgen.diffusion", "adam_step")]),
    ("reflow.sample_coupling", [("downgen.reflow", "sample_coupling")]),
    ("reflow.reflow_loss", [("downgen.reflow", "reflow_loss")]),
    ("reflow.integrate_velocity", [("downgen.reflow", "integrate_velocity")]),
    ("reflow.train_reflow", [("downgen.reflow", "train_reflow"), ("downgen.cli", "train_reflow")]),
    ("reflow.transport", [("downgen.reflow", "transport"), ("downgen.cli", "transport")]),
    ("diffusion.denoise_loss", [("downgen.diffusion", "denoise_loss")]),
    ("diffusion.train_sr", [("downgen.diffusion", "train_sr"), ("downgen.cli", "train_sr")]),
    ("diffusion.cfg_denoise", [("downgen.multidiffusion", "cfg_denoise")]),
    ("diffusion.sde_step_exponential", [("downgen.multidiffusion", "sde_step_exponential")]),
    ("multidiffusion.sample_long", [("downgen.multidiffusion", "sample_long"),
                                    ("downgen.cli", "sample_long")]),
    ("multidiffusion.consolidate", [("downgen.multidiffusion", "consolidate")]),
    ("grid.read_array", [("downgen.cli", "read_array")]),
    ("grid.write_array", [("downgen.cli", "write_array")]),
    ("grid.compute_climatology", [("downgen.cli", "compute_climatology"),
                                  ("downgen.diffusion", "compute_climatology")]),
    ("synthdata.make_synth_pair", [("downgen.synthdata", "make_synth_pair"),
                                   ("downgen.cli", "make_synth_pair")]),
    ("baselines.qm_debias", [("downgen.baselines", "qm_debias"), ("downgen.cli", "qm_debias")]),
    ("baselines.bcsd_pipeline", [("downgen.cli", "bcsd_pipeline")]),
    ("cyclones.detect_cyclones", [("downgen.cli", "detect_cyclones")]),
    ("report.write", [("downgen.report:MetricReport", "write"),
                      ("downgen.report:MetricReport", "write_comparison")]),
    ("plots", [("downgen.cli", "heatmap_svg"), ("downgen.cli", "curves_svg")]),
]

# CLI stages, timed in every e2e run (untraced runs too: ten calls cost nothing).
STAGE_TARGETS = [
    ("cli.gen-data", [("downgen.cli", "stage_gen_data")]),
    ("cli.train-debias", [("downgen.cli", "stage_train_debias")]),
    ("cli.train-sr", [("downgen.cli", "stage_train_sr")]),
    ("cli.debias", [("downgen.cli", "stage_debias")]),
    ("cli.baselines", [("downgen.cli", "stage_baseline_qm"),
                       ("downgen.cli", "stage_baseline_bcsd")]),
    ("cli.sample", [("downgen.cli", "stage_sample")]),
    ("cli.evaluate", [("downgen.cli", "stage_evaluate")]),
]

PMAP = ("downgen.multidiffusion", "pmap")


def _owner(spec):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans around wrapped functions; one instance per traced phase."""

    def __init__(self):
        self.spans = []            # (id, name, t0, t1, parent, cpu_s)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def _wrap(self, name, fn):
        timed_cpu = name.startswith("cli.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            c0 = time.process_time() if timed_cpu else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.process_time() - c0 if timed_cpu else 0.0
                stack.pop()
                self.spans.append((sid, name, t0, t1, parent, cpu))

        return wrapper

    def _wrap_pmap(self, fn):
        """pmap span plus one ``parallel.pmap.task`` span per item, in its worker thread."""
        @functools.wraps(fn)
        def wrapper(task_fn, items):
            parent = next(self._ids)

            def task(x):
                # pmap may run a task in a pool thread or, with one worker, inline
                prev = getattr(self._local, "stack", None)
                sid = next(self._ids)
                self._local.stack = [parent, sid]
                t0 = time.perf_counter()
                try:
                    return task_fn(x)
                finally:
                    self.spans.append((sid, "parallel.pmap.task", t0, time.perf_counter(),
                                       parent, 0.0))
                    self._local.stack = prev

            stack = self._stack()
            stack.append(parent)       # the pmap span's own id, allocated above
            t0 = time.perf_counter()
            try:
                return fn(task, items)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((parent, "parallel.pmap", t0, t1, stack[-1], 0.0))

        return wrapper

    def install(self, targets, pmap=False):
        for name, places in targets:
            for spec, attr in places:
                owner = _owner(spec)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        if pmap:
            owner = _owner(PMAP[0])
            original = getattr(owner, PMAP[1])
            self._saved.append((owner, PMAP[1], original))
            setattr(owner, PMAP[1], self._wrap_pmap(original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        """All spans as gzip-compressed JSON lines, in end-time order."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for sid, name, t0, t1, parent, cpu in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "cpu_s": cpu}) + "\n")


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: calls, total wall, self time (wall minus child coverage), CPU."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for sid, name, t0, t1, _, cpu in spans:
        agg = out.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        agg["calls"] += 1
        agg["wall_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        agg["cpu_s"] += cpu
    return out


def train_step_ms(spans, loop_name):
    """Per-step wall times (ms) of a training loop: gaps between successive
    ``optim.adam_step`` ends inside each `loop_name` span (first step skipped)."""
    by_id = {s[0]: s for s in spans}

    def loop_of(s):
        p = s[4]
        while p in by_id:
            if by_id[p][1] == loop_name:
                return p
            p = by_id[p][4]
        return None

    ends = {}
    for s in spans:
        if s[1] == "optim.adam_step":
            loop = loop_of(s)
            if loop is not None:
                ends.setdefault(loop, []).append(s[3])
    steps = []
    for e in ends.values():
        e.sort()
        steps.extend(np.diff(e) * 1e3)
    return steps


def count_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {s[0]: s for s in spans}
    n = 0
    for s in spans:
        if s[1] != name:
            continue
        p = s[4]
        while p in by_id:
            if by_id[p][1] == ancestor:
                n += 1
                break
            p = by_id[p][4]
    return n


SPAN_NAMES = [name for name, _ in LAYER_TARGETS] + ["parallel.pmap"]
STAGE_CPU = ("cli.train-sr", "cli.debias", "cli.sample")
IO_LAYERS = ("grid.read_array", "grid.write_array", "grid.compute_climatology",
             "synthdata.make_synth_pair", "baselines.qm_debias", "baselines.bcsd_pipeline",
             "cyclones.detect_cyclones", "report.write", "plots")


def layer_metrics(spans, n_reps, workers):
    """Per-layer metrics, per traced repetition: name -> (value, unit).

    Layers a workload leaves idle read 0 (counts, times) or None (percentiles).
    """
    agg = summarize(spans)
    zero = {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
    get = lambda name: agg.get(name, zero)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (get(name)["calls"] / n_reps, "count")
        out[f"{name}.self_s"] = (get(name)["self_s"] / n_reps, "s")
    for name in IO_LAYERS:
        out[f"{name}.s"] = (get(name)["wall_s"] / n_reps, "s")
    for name, _ in STAGE_TARGETS:
        out[f"{name}.wall_s"] = (get(name)["wall_s"] / n_reps, "s")
        if name in STAGE_CPU:
            out[f"{name}.cpu_s"] = (get(name)["cpu_s"] / n_reps, "s")
    pmap_wall = get("parallel.pmap")["wall_s"]
    out["parallel.pmap.wall_s"] = (pmap_wall / n_reps, "s")
    out["parallel.pmap.busy_ratio"] = (
        get("parallel.pmap.task")["wall_s"] / (pmap_wall * workers) if pmap_wall else 0.0, "1")
    for loop in ("reflow.train_reflow", "diffusion.train_sr"):
        steps = train_step_ms(spans, loop)
        prefix = loop.split(".")[0]
        for q in (50, 90):
            out[f"{prefix}.train_step_ms.p{q}"] = (
                float(np.percentile(steps, q)) if steps else None, "ms")
    out["reflow.velocity_evals"] = (
        count_under(spans, "nets.velocity_forward", "reflow.integrate_velocity") / n_reps, "count")
    steps = get("multidiffusion.consolidate")["calls"]
    out["multidiffusion.denoiser_calls_per_step"] = (
        get("diffusion.cfg_denoise")["calls"] / steps if steps else 0.0, "count")
    return out
