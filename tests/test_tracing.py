"""The benchmark's tracer names monodom functions by module and attribute;
a renamed or deleted layer must fail here, not crash a traced bench run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from monodom import kernel

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_monodom_function():
    for module, name, _ in load_tracing().TARGETS:
        assert callable(getattr(importlib.import_module(f"monodom.{module}"), name, None)), (
            f"monodom.{module}.{name}")


def test_any_reach_calls_decode_and_closure_as_traced_layers():
    """any_reach looks decode_rows and closure_rows up as module globals, so
    their spans nest under its span: one of each per call."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    codes = np.zeros((70, 15), dtype=np.uint8)
    with tracer.installed():
        kernel.any_reach(codes, 6)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["kernel.any_reach", "kernel.decode_rows", "kernel.closure_rows"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0]
    assert not hasattr(kernel.any_reach, "__wrapped__")  # the patches are undone
