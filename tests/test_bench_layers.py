"""Every function the benchmark tracer wraps still exists in the library."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    # the lookup Tracer.install makes, without wrapping anything
    for layer, (where, names, _) in _layers().items():
        module_name, _, cls_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        for name in names:
            assert callable(getattr(owner, name, None)), f"{layer}: {where} has no {name}"
