"""The benchmark's tracer finds every library function it wraps by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS


@pytest.mark.parametrize(
    "module, function", [(mod, fn) for mod, fn, _, _ in tracer_functions()]
)
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"elmap.{module}"), function))
