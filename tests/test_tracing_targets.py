"""The benchmark's tracer patches names inside the package; they must keep existing."""

import importlib
import importlib.util
import sys
from pathlib import Path

from medtriplet import pipeline

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing(monkeypatch):
    """Import benchmarks/tracing.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_medtriplet_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_layer_patch_targets_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for module_name, attr, span, _ in tracing.LAYER_PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr, span)


def test_stage_dispatch_table_matches_stages():
    assert tuple(pipeline._STAGE_FUNCS) == pipeline.STAGES
