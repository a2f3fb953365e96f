"""Every name the per-layer tracer of ``perfbench/tracer.py`` rebinds must
exist in catspan, so that a refactor dropping one fails here rather than
in a traced benchmark run. The tracer is read, not changed."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_HOOKS = _tracer()
HOOKED = sorted({*_HOOKS.SPANS, *_HOOKS.COUNTED, ("fileformat", "read_document")})


@pytest.mark.parametrize("module, attr", HOOKED, ids=[f"{m}.{a}" for m, a in HOOKED])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"catspan.{module}"), attr, None))


def test_traced_method_exists():
    from catspan.isbell import ConjugatePair

    assert callable(getattr(ConjugatePair, "label_of", None))
