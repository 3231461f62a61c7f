"""I/O models: shared (NFS) bandwidth with processor sharing, local disks.

Paper Sec 5.2.1 tests "one [scenario] that uses NFS for the large input
files and another that prestages (to every local disk) all input files".
The NFS file server is modelled as a processor-sharing bandwidth resource:
``capacity_mbps`` is divided equally among all active transfers, and
completion events are recomputed whenever a transfer starts or finishes --
this is what makes 210 simultaneous ``pert`` reads crawl (the paper's ~20%
CPU utilization) while a single reader gets the full pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.sched.engine import Simulator


class IOMode(Enum):
    """Where job input files live."""

    NFS = "nfs"  # read inputs from the shared server at job start
    PRESTAGED = "prestaged"  # inputs already on every local disk


@dataclass(frozen=True)
class IOConfiguration:
    """Input locality and sizes for a campaign.

    Parameters
    ----------
    mode:
        NFS or prestaged inputs.
    pert_input_mb / pemodel_input_mb:
        Input volume read by each task kind at start; the defaults sum to
        ~1.1 GB/member, consistent with the paper's "1.5GB input data"
        campaign sizing.
    output_mb:
        Useful output copied back to the NFS server at the end of each
        *pemodel* ("in all cases the useful output files are copied
        back"; 11 MB/member in the Sec 5.4.2 example).  ``pert`` writes
        its initial conditions to the local directory only, so it has no
        copy-back.
    prestage_cost_s:
        One-time per-campaign cost of distributing the inputs (incurred
        before the first job in PRESTAGED mode).
    """

    mode: IOMode = IOMode.PRESTAGED
    pert_input_mb: float = 250.0
    pemodel_input_mb: float = 850.0
    output_mb: float = 11.0
    prestage_cost_s: float = 120.0

    def __post_init__(self):
        for name in (
            "pert_input_mb",
            "pemodel_input_mb",
            "output_mb",
            "prestage_cost_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def input_mb(self, kind: str) -> float:
        """Input volume for a task kind."""
        return {
            "pert": self.pert_input_mb,
            "pemodel": self.pemodel_input_mb,
        }.get(kind, 0.0)

    def output_mb_for(self, kind: str) -> float:
        """Copy-back volume for a task kind (pert stores its IC locally)."""
        return 0.0 if kind == "pert" else self.output_mb


class SharedBandwidth:
    """Processor-sharing bandwidth resource (the NFS server / a WAN link).

    Parameters
    ----------
    sim:
        The simulation clock.
    capacity_mbps:
        Aggregate bandwidth; shared equally among active transfers.

    Notes
    -----
    On every start/finish the remaining bytes of in-flight transfers are
    updated for the elapsed interval at the old rate, then completions are
    rescheduled at the new rate.  Transfers of zero size complete
    immediately (same event).
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity_mbps: float,
        congestion=None,
    ):
        if capacity_mbps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity_mbps
        # Optional congestion model: ``congestion(n_streams) -> factor`` in
        # (0, 1] scaling the *aggregate* capacity.  Models gateway thrash
        # under very many concurrent streams (paper Sec 5.3.2); default is
        # ideal processor sharing (factor 1).
        self._congestion = congestion
        # transfer id -> [remaining_mb, callback, event_handle]
        self._active: dict[int, list] = {}
        self._next_id = 0
        self._last_update = 0.0
        self.total_transferred_mb = 0.0

    def _effective_capacity(self) -> float:
        if self._congestion is None or not self._active:
            return self.capacity
        factor = self._congestion(len(self._active))
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"congestion factor out of (0, 1]: {factor}")
        return self.capacity * factor

    @property
    def active_count(self) -> int:
        """Number of in-flight transfers."""
        return len(self._active)

    def _advance(self) -> None:
        """Consume elapsed time: decrement remaining sizes at the old rate."""
        elapsed = self.sim.now - self._last_update
        if elapsed > 0 and self._active:
            rate = self._effective_capacity() / len(self._active)
            for entry in self._active.values():
                entry[0] = max(entry[0] - rate * elapsed, 0.0)
        self._last_update = self.sim.now

    def _reschedule(self) -> None:
        """Recompute every completion event at the new sharing rate."""
        if not self._active:
            return
        rate = self._effective_capacity() / len(self._active)
        for tid, entry in self._active.items():
            if entry[2] is not None:
                self.sim.cancel(entry[2])
            delay = entry[0] / rate
            entry[2] = self.sim.schedule(delay, lambda t=tid: self._finish(t))

    def _finish(self, tid: int) -> None:
        self._advance()
        entry = self._active.pop(tid, None)
        if entry is None:
            return
        self._reschedule()
        entry[1]()

    def transfer(self, size_mb: float, callback: Callable) -> None:
        """Start a transfer; ``callback`` fires when it completes."""
        if size_mb < 0:
            raise ValueError("size must be >= 0")
        self.total_transferred_mb += size_mb
        if size_mb == 0:
            self.sim.schedule(0.0, callback)
            return
        self._advance()
        tid = self._next_id
        self._next_id += 1
        self._active[tid] = [size_mb, callback, None]
        self._reschedule()
