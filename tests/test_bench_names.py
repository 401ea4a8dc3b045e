"""The benchmark's tracer finds every library function it wraps by name,
and installs its wrappers on the library's functions and classes."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


# Installs every wrapper, including the class attributes, then records one
# stacked u evaluation and one inner fit.
INSTALL = """
import tracer
from elmap import estimators, prob
t = tracer.Tracer()
t.install()
t.active = True
prob.mean_model().u_matrix([0.0, 1.0, 2.0], [[0.5], [1.5]])
estimators.el_inner(prob.Sample((0.0, 1.0, 2.0)), prob.mean_model(), [1.2])
names = {span[1] for span in t.spans}
assert {"prob.u_matrix", "prob.Sample", "projection.dual_newton"} <= names, names
"""


def test_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
