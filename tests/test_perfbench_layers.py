"""The benchmark's per-layer tracer names entry points of the library.

``perfbench/tracer.py`` wraps functions by (module, name).  A rename in the
library breaks the traced benchmark run; this test catches it first.  The
tracer module is only loaded, never installed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_entry_point_resolves():
    tracer = _load_tracer()
    missing = [
        f"{layer}: {mod.__name__}.{fname}"
        for layer, fns in tracer.LAYERS.items()
        for mod, fname in fns
        if not callable(getattr(mod, fname, None))
    ]
    assert not missing
    traced = {fname for fns in tracer.LAYERS.values() for _, fname in fns}
    assert set(tracer.Tracer()._observers) <= traced
