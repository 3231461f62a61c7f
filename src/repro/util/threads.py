"""Fixed work items mapped over the CPUs this process may run on: the
driver's member batches and :mod:`repro.util.linalg`'s product blocks."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_on_usable_cpus(fn, items):
    """``map(fn, items)`` with the items run on every usable CPU.

    ``min(usable CPUs, len(items))`` threads, the calling thread
    included: the caller runs items ``0, w, 2w, ...`` and a pool of
    ``w - 1`` threads the rest, in order.  Results are yielded in item
    order on the calling thread.  An item must hold enough numpy work to
    release the interpreter lock for most of its time (a whole member
    batch, a block of a tall product).  With one usable CPU, or one item,
    this is ``map`` and no thread starts.
    """
    width = min(_usable_cpus(), len(items))
    if width < 2:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=width - 1) as pool:
        pending = {
            k: pool.submit(fn, item)
            for k, item in enumerate(items)
            if k % width
        }
        try:
            for k, item in enumerate(items):
                yield fn(item) if k % width == 0 else pending.pop(k).result()
        finally:
            for future in pending.values():
                future.cancel()
