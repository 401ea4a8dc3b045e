"""Pieces shared by the workload modules."""

from __future__ import annotations

import numpy as np


class Op:
    """One operation of a workload: a label and a call into the program.

    ``fault(op, out)``, when given, checks the output for a known fault of
    the program and returns what it found; an operation whose output shows
    the fault counts as failed, not as a wrong output.
    """

    def __init__(self, label: str, fn, *args, fault=None):
        self.label = label
        self.fn = fn
        self.args = args
        self.fault = fault

    def run(self):
        return self.fn(*self.args)


def workload_rng(seed: int, name: str) -> np.random.Generator:
    """Generator for one workload's inputs, fixed by the workload seed."""
    return np.random.default_rng([int(seed), sum(name.encode())])


def close(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol
