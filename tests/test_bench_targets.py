"""The benchmark's tracer wraps functions at the module attributes their callers
look up, and its environment block calls `downgen.parallel.worker_count`; every
attribute it names must exist and be callable, or the benchmark breaks when
code moves. A traced run also reports every `per_layer` name of BENCHMARK.json,
or exits 1."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from downgen import cli, parallel
from test_cli import TINY

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    """Import perfbench/tracing.py without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _load_kernels():
    """Import perfbench/kernels.py, which imports its sibling modules by their
    bare names, without writing a bytecode cache beside them or leaving them
    importable afterwards."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("kernels")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        for name in ("kernels", "workloads", "tracing"):
            sys.modules.pop(name, None)


tracing = _load_tracing()
TARGETS = [(name, owner, attr)
           for name, places in tracing.LAYER_TARGETS + tracing.STAGE_TARGETS
           for owner, attr in places] + [("parallel.pmap",) + tracing.PMAP,
                                         ("env.pmap_workers", "downgen.parallel", "worker_count")]


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[f"{n}@{o}.{a}" for n, o, a in TARGETS])
def test_target_resolves_to_callable(name, owner, attr):
    assert callable(getattr(tracing._owner(owner), attr, None)), \
        f"{name}: {owner}.{attr} is not a callable attribute"


def test_worker_count_is_a_positive_int():
    """The environment block records it as `pmap_workers`, outside the tracer."""
    n = parallel.worker_count()
    assert isinstance(n, int) and n >= 1


def test_every_span_records_a_call(tmp_path):
    """One TINY e2e with cyclone detection reaches every wrapped function through
    the attribute the tracer replaced: a span with no call names traced work
    that its callers reach some other way, such as through a closure."""
    config = tmp_path / "tiny.ini"
    config.write_text(TINY)
    spans = tracing.LAYER_TARGETS + tracing.STAGE_TARGETS
    with tracing.Tracer().install(spans) as tracer:
        assert cli.main(["e2e", "--config", str(config), "--out", str(tmp_path / "run"),
                         "--set", "evaluate.cyclones=true"]) == 0
    calls = tracing.summarize(tracer.spans)
    assert [name for name, _ in spans if name not in calls] == []


def test_traced_run_reports_every_per_layer_name(tmp_path):
    """A traced run's layer metrics are the tracer's and the kernel sheet's; a
    `per_layer` name neither produces, such as a conv level a net no longer
    has, makes the run exit 1. `trace.overhead_share` is the runner's own."""
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    sheet = _load_kernels().kernel_sheet(ROOT, 5, tmp_path, quick=True)
    produced = set(sheet) | set(tracing.layer_metrics([], 1, 1))
    assert sorted(declared - produced - {"trace.overhead_share"}) == []
