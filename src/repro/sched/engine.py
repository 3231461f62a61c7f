"""A minimal discrete-event simulation engine.

Deterministic: events at equal times fire in scheduling order (a strictly
increasing sequence number breaks ties), so simulations are exactly
reproducible -- a property the campaign tests rely on.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class Simulator:
    """Event queue with virtual time.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self):
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable]] = []
        self._seq = itertools.count()
        self._cancelled: set[int] = set()
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable) -> int:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Returns an event handle usable with :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        handle = next(self._seq)
        heapq.heappush(self._queue, (self.now + delay, handle, callback))
        return handle

    def schedule_at(self, time: float, callback: Callable) -> int:
        """Schedule at an absolute virtual time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.schedule(time - self.now, callback)

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled event (lazy removal)."""
        self._cancelled.add(handle)

    def run(self) -> None:
        """Process events in time order until none is left."""
        while self._queue:
            time, handle, callback = heapq.heappop(self._queue)
            if handle in self._cancelled:
                self._cancelled.discard(handle)
                continue
            self.now = time
            self.events_processed += 1
            callback()

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return len(self._queue) - len(self._cancelled)
