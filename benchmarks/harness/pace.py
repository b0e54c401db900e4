"""A fixed reference task, timed next to every measurement.

The benchmark host shares its cores with other tenants: the same batch
can take twice as long while a neighbour is busy, for tens of seconds at
a time, and CPU time swings with wall time. Timing a fixed task just
before and after each batch reads the host's current speed, and scaling
by it leaves the speed of the program under test. The task mixes the
kinds of work the campaigns do (SHA-256, Philox set-up and draws, small
and 64x64 SVDs, float formatting) but calls nothing in entbound, so a
change to the package cannot move it.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

# Time of reference_task() on an uncontended core of the 2-vCPU x86-64
# host the benchmark was tuned on. It only fixes the unit: a paced figure
# is what the wall-clock one would read at this reference speed.
REFERENCE_S = 0.011

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((4, 8, 8)) + 1j * _RNG.standard_normal((4, 8, 8))
_WIDE = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))


def reference_task() -> float:
    """Run the fixed task once and return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(120):
        digest = hashlib.sha256(b"%d" % k).digest()
        seq = np.random.SeedSequence(int.from_bytes(digest, "big"))
        acc += float(np.random.Generator(np.random.Philox(seq)).standard_normal((8, 8))[0, 0])
        acc += float((np.linalg.svd(_SMALL, compute_uv=False) ** 2).sum())
        acc += len(format(acc, ".17g")) + len(str({"a": [1.5, 2.5], "k": k}))
    for _ in range(9):
        acc += float(np.linalg.svd(_WIDE, compute_uv=False)[0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference task produced a non-finite sum")
    return elapsed


def host_scale(before: float, after: float) -> float:
    """How much slower than the reference the host ran around one measurement."""
    return (before + after) / (2 * REFERENCE_S)
