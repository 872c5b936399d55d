"""The names the benchmark's layer trace binds still resolve.

``perfbench/layers.py`` wraps pgstkit functions by (module, name) and
counts ``SparsePoly`` methods by attribute, so renaming or deleting one of
them in ``src/`` breaks ``perfbench/run.py --trace 1``. Its observers also
read argument names and spectrum attributes. These tests load the module
from its path, unedited, and fail on such a change in the fast suite
rather than only in the benchmark's smoke run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from pgstkit import SparsePoly, cli

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


def test_tracer_observes_a_simulated_analysis(capsys):
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        code = cli.main(["analyze", "@G_A", "--u", "3", "--v", "6", "--simulate", "--tmax", "10", "--steps", "50"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = tracer.metrics()
    for name in (
        "walk.sym_eig.dim_sum",
        "walk.fidelity_scan.grid_points",
        "certify.integer_relation_search.calls",
    ):
        assert metrics[name] > 0, name
