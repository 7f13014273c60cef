"""The module attributes the benchmark's tracer wraps must exist.

bench/tracer.py replaces each (module, attribute) of its LAYERS table by a
recording wrapper, in traced and untraced workers alike, so a name that
disappears from the package makes every benchmark worker fail.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_attribute_exists():
    layers = _layers()
    assert layers
    missing = [(mod, attr) for mod, attr, _, _ in layers
               if not hasattr(importlib.import_module(f"shadow_wlo.{mod}"),
                              attr)]
    assert not missing
