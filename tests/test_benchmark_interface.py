"""The traced benchmark run wraps package functions by name.

perfbench/spans.py looks up every name in its LAYERS table with getattr, so
renaming or deleting one of them breaks `perfbench/run.py --trace 1`.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"thetabody.{module}.{name}"
        for module, names in spans.LAYERS.items()
        for name in names
        if not hasattr(importlib.import_module(f"thetabody.{module}"), name)
    ]
    assert spans.LAYERS and not missing
