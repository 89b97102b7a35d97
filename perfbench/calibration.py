"""Scale measured times to a nominal host speed with a fixed reference kernel.

On the shared 2-vCPU VM this benchmark was built on, the host slows the whole
process by up to 2x for stretches of seconds to minutes.  The process stays
on the CPU throughout (its thread time equals its wall time), so the
slowdown is invisible to the guest except as slower execution.  Raw wall
times then spread by 0.13 to 0.40 of their median from one 35 s run to the
next, whatever statistic a run reports.

The reference kernel below uses numpy alone, with the simulator's mix of
operations: a keyed ``SeedSequence`` generator build, a 2010-long uniform
draw, a norm, and the small matrix products of the logistic and mlp
gradients.  It runs no qhetfed code, so no change to the package can change
its time.  It is timed right before and right after each measured interval,
and the interval is scaled by ``NOMINAL_S`` over the mean of the two kernel
times.  On a quiet host the scaled time is close to the raw time; on a
slowed host both stretch together and the ratio stays.  In five consecutive
35 s runs of 10-round flip_d2010 calls, the median raw call time drifted
from 1.79 s to 2.94 s while the median scaled call time stayed between
1.68 s and 1.81 s.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.012  # roughly the kernel's time on a quiet host of the kind described above
_REPEATS = 3
_A = np.full((5, 200), 0.5)
_W = np.full((10, 200), 0.01)
_X = np.full((100, 20), 0.5)
_W1 = np.full((64, 20), 0.01)


def _kernel() -> float:
    acc = 0.0
    for i in range(200):
        draws = np.random.default_rng(np.random.SeedSequence((7, i, 3))).random(2010)
        acc += float(np.linalg.norm(draws))
        acc += float((_A @ _W.T).sum()) + float(np.tanh(_X @ _W1.T).sum())
    return acc


def reference_s() -> float:
    """Fastest of a few kernel runs: the host's current speed, in kernel seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def timed(fn):
    """Run ``fn()``; return its result, its raw seconds and its seconds scaled to nominal host speed."""
    before = reference_s()
    start = perf_counter()
    result = fn()
    raw = perf_counter() - start
    after = reference_s()
    return result, raw, raw * NOMINAL_S / ((before + after) / 2.0)
