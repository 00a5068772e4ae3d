"""A fixed reference loop that measures the host's current speed.

On a shared host the same run can take 30% longer in one half hour than in
the next. The benchmark times this loop beside the runs and reports times
scaled to a host on which the loop takes REFERENCE_S seconds. The loop does
the kind of work the package's hot path does (seeding numpy generators, small
matmuls, building small frozen dataclasses, stacking rows), but never calls
the package, so a change to the package does not change it.
"""

import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.04
_ITERS = 300


@dataclass(frozen=True)
class _Row:
    values: np.ndarray
    tag: int


def reference_loop():
    x = np.linspace(-1.0, 1.0, 56 * 10).reshape(56, 10)
    w1 = np.linspace(-0.5, 0.5, 10 * 64).reshape(10, 64)
    w2 = np.linspace(-0.2, 0.2, 64 * 64).reshape(64, 64)
    total = 0.0
    for i in range(_ITERS):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([i, 7])))
        rows = [_Row(r, i) for r in gen.normal(size=(12, 10))]
        batch = np.vstack([x, np.stack([r.values for r in rows])])
        h1 = np.maximum(batch @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        total += float((h1.T @ ((h2 > 0) @ w2.T)).sum()) + len(rows)
    return total


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
