"""Injectable monotonic time sources for the telemetry subsystem.

Every component that needs "now" takes a zero-argument callable instead
of calling :func:`time.perf_counter` directly, so that

- live runs use the process monotonic clock, and
- tests inject a :class:`FakeClock` and make timing assertions exact.
"""

from __future__ import annotations

import time

#: The default live clock: monotonic, sub-microsecond, process-local.
MONOTONIC = time.perf_counter


class FakeClock:
    """A manually advanced clock for deterministic timing tests.

    Examples
    --------
    >>> clock = FakeClock()
    >>> clock()
    0.0
    >>> clock.advance(2.5)
    >>> clock()
    2.5
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        """Current fake time (seconds)."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward; negative steps are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot move a monotonic clock backwards: {seconds}")
        self._now += seconds
