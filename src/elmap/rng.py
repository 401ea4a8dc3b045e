"""Deterministic random number generation for experiments.

Streams are counter-based (Philox) and keyed by hashing an arbitrary tuple
of labels, typically (experiment, cell, replicate).  Two streams with
different labels are statistically independent, and a given label tuple
yields the same stream on every platform and in any execution order, so
each experiment cell reproduces on its own.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEP = b"\x1f"


def _digest(parts: tuple) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(_SEP)
    return h.digest()


def rng_from(*parts) -> np.random.Generator:
    """Return a Philox generator keyed by the given labels."""
    key = int.from_bytes(_digest(parts)[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*parts) -> int:
    """Collapse labels into a 63-bit integer seed for nested cells."""
    return int.from_bytes(_digest(parts)[:8], "little") >> 1
