"""The benchmark's tracer wraps functions at the module attributes their callers
look up; every attribute it names must exist and be callable, or the traced
benchmark breaks when code moves."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


tracing = _load_tracing()
TARGETS = [(name, owner, attr)
           for name, places in tracing.LAYER_TARGETS + tracing.STAGE_TARGETS
           for owner, attr in places] + [("parallel.pmap",) + tracing.PMAP]


@pytest.mark.parametrize("name, owner, attr", TARGETS,
                         ids=[f"{n}@{o}.{a}" for n, o, a in TARGETS])
def test_target_resolves_to_callable(name, owner, attr):
    assert callable(getattr(tracing._owner(owner), attr, None)), \
        f"{name}: {owner}.{attr} is not a callable attribute"
