"""How fast the host is right now: a fixed kernel timed beside every sample.

The box the suite is measured on is a few hardware threads of a shared
host.  When a neighbour computes on the sibling thread everything here
runs 1.3-1.5x slower, and the neighbour comes and goes: within seconds
in some quarters of an hour, for minutes at a time in others (README.md,
"What makes the numbers repeat").  No statistic over the repetitions of
one run removes that when every repetition of the run is slower.  So the
harness times this fixed kernel immediately before and after every timed
sample, and reports the sample in *reference seconds*::

    sample_s * NOMINAL_S / mean(kernel before, kernel after)

that is, the time the sample would have taken on a host on which the
kernel takes ``NOMINAL_S``.  The kernel is the benchmark's, not the
program's: no change to the program can move it, so a change that makes
the program faster or slower moves the reported number exactly as it
moves the raw one.  Records keep the raw seconds and the kernel times
next to the reported value.

The kernel mixes what the workloads mix: interpreter-bound Python (the
serving path, the workflow shepherds), many small numpy calls (the
model's time step), streaming over arrays larger than the caches (the
dense analysis' temporaries) and a BLAS product.  A neighbour does not
slow all of these alike (measured: Python 1.2-1.5x, BLAS 1.3-2x,
streaming 1.0-1.1x), so the correction is first-order; what it leaves
is in the README's tables.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.clock import MONOTONIC

#: Kernel time on the quiet 2-core reference box; fixes the unit only.
NOMINAL_S = 0.0165

_SMALL = np.linspace(0.0, 1.0, 256)
_STREAM = np.linspace(0.0, 1.0, 1 << 20)
_SQUARE = np.linspace(0.0, 1.0, 160 * 160).reshape(160, 160)
_OUT = np.empty_like(_STREAM)


def kernel() -> float:
    """A fixed amount of Python, small-array, streaming and BLAS work."""
    table: dict[int, int] = {}
    total = 0
    for i in range(66000):
        total += i * i % 7
        table[i & 255] = total
    for _ in range(3300):
        np.add(_SMALL, 1.0, out=_OUT[:256])
    for _ in range(3):
        np.multiply(_STREAM, 1.0001, out=_OUT)
        np.add(_OUT, _STREAM, out=_OUT)
    for _ in range(21):
        _SQUARE @ _SQUARE
    return float(total)


def sample() -> float:
    """Seconds one kernel takes now: the fastest of three in a row.

    The fastest, because a timer tick or a page fault inside a 17 ms
    sample is not the host's speed; a busy neighbour slows all three.
    """
    best = float("inf")
    for _ in range(3):
        start = MONOTONIC()
        kernel()
        best = min(best, MONOTONIC() - start)
    return best
