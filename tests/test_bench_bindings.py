"""The names the benchmark's layer trace binds still resolve.

``perfbench/layers.py`` wraps pgstkit functions by (module, name) and
counts ``SparsePoly`` methods by attribute, so renaming or deleting one of
them in ``src/`` breaks ``perfbench/run.py --trace 1``. This test loads the
module from its path, unedited, and fails on such a change in the fast
suite rather than only in the benchmark's smoke run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from pgstkit import SparsePoly

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    layers = _load_layers()
    assert layers.SPANNED and layers.COUNTED
    for module, name in layers.SPANNED:
        assert hasattr(importlib.import_module(f"pgstkit.{module}"), name), f"{module}.{name}"
    for counter, attr in layers.COUNTED.items():
        assert attr in SparsePoly.__dict__, counter
