"""The benchmark's tracer wraps wgscatter functions by name.

`bench/tracing.py` is loaded from its path, unchanged, and every target it
would wrap must still resolve, so that deleting or renaming a traced
function fails here rather than only in the benchmark's own suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("wgscatter_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = list(load_tracing().Tracer()._targets())
    assert targets
    for name, fn, after, errors in targets:
        assert callable(fn), name
        assert after is None or callable(after), name
