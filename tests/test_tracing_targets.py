"""The per-layer tracer in ``perfbench/tracing.py`` patches functions by
name; every name it lists must still exist, or ``perfbench/run.py --trace 1``
breaks.  The module is loaded by path and its tracer is never installed."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    missing = []
    for layer, qual, _kind in tracing.TARGETS:
        home = tracing.LAYERS[layer]
        cls_name, _, meth = qual.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name, None)
            found = cls is not None and meth in cls.__dict__
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(f"{layer}.{qual}")
    assert not missing, f"tracer targets not found: {missing}"
