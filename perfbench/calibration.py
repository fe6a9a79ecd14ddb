"""A fixed reference computation that measures how fast the machine runs now.

The machines this benchmark runs on are shared: the speed of the same
single-threaded work changes by up to 1.8x over minutes as other load comes
and goes (README.md, "Steadiness").  Wall times alone then spread too far
between runs to show a 25% regression.  So each run also times this
reference computation between its timed pieces of work, and the benchmark's
time metrics are rescaled to the speed at which the reference takes
``REF_S`` seconds:

    rescaled = wall * REF_S / mean(reference times of the same run)

The reference does the two things heatbound's time goes to: sparse
matrix-vector products through scipy, whose per-call overhead dominates at
these sizes, and plain interpreter work.  It never imports heatbound, so a
change to the program cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy import sparse

REF_S = 0.2        # rescaled seconds of one reference computation
SIZE = 200         # vertices of the reference walk
MATVECS = 12_000   # sparse products per reference computation
LOOP = 1_200_000   # interpreter iterations per reference computation


def _walk_matrix():
    """Transition matrix of a lazy walk on a cycle with one fixed chord per
    vertex; built from index arithmetic alone, so it never changes."""
    i = np.arange(SIZE)
    rows = np.tile(i, 4)
    cols = np.concatenate([i, (i + 1) % SIZE, (i - 1) % SIZE, (7 * i + 3) % SIZE])
    return sparse.csr_matrix((np.full(4 * SIZE, 0.25), (rows, cols)),
                             shape=(SIZE, SIZE))


def reference_seconds():
    """Wall seconds of one run of the reference computation."""
    walk = _walk_matrix()
    v = np.zeros(SIZE)
    v[0] = 1.0
    t0 = perf_counter()
    for _ in range(MATVECS):
        v = walk @ v
    total = 0
    for k in range(LOOP):
        total += k * k
    return perf_counter() - t0


def speed_factor(references):
    """Multiplier from wall seconds to rescaled seconds for one run.

    Uses the mean, not the median, of the run's reference times: one
    reference is short and can land in a brief slowdown, while the mean of
    all of them follows the average speed the run's operations ran at."""
    return REF_S / statistics.fmean(references)
