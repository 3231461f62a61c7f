"""Output-return strategies for remote ESSE execution (paper Sec 5.3.2).

When ensembles run on remote Grid/cloud resources, the member outputs must
come home.  The paper weighs three designs:

- **push**: every execution host pushes its output the moment it finishes.
  "The batch nature of the runs results in a very large number of
  concurrent remote transfer attempts followed by no network activity
  whatsoever.  This can seriously slow down the gateway nodes."
- **pull**: an agent on the home cluster fetches files from the remote
  repository with bounded concurrency, "pac[ing] the file transfers so
  that they happen more or less continuously and perform much better".
- **two-stage put**: nodes store outputs on the remote shared filesystem
  and an independent agent ships them home in batches.

All three are simulated over the same completion-time trace and WAN model
(processor-sharing bandwidth + per-connection setup cost), so the designs
are compared apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.sched.engine import Simulator
from repro.sched.iomodel import SharedBandwidth


class OutputReturnPlan(Enum):
    """The three Sec 5.3.2 designs."""

    PUSH = "push"
    PULL = "pull"
    TWO_STAGE = "two_stage"


#: The link between the remote resource and the home cluster: aggregate WAN
#: bandwidth (MB/s), shared by concurrent transfers, and the per-connection
#: establishment cost (s; authentication, TCP ramp-up) -- what makes many
#: tiny concurrent transfers expensive and batched transfers cheap.
WAN_BANDWIDTH_MBPS = 40.0
WAN_SETUP_SECONDS = 2.0
#: Beyond this many simultaneous streams the home gateway degrades: each
#: extra stream adds ``GATEWAY_PENALTY_S`` to every stream's setup, and the
#: aggregate throughput falls by ``CONGESTION_ALPHA`` per extra stream (the
#: paper's "very large number of concurrent remote transfer attempts ... can
#: seriously slow down the gateway nodes").
GATEWAY_CONCURRENCY_LIMIT = 16
GATEWAY_PENALTY_S = 1.0
CONGESTION_ALPHA = 0.05


def congestion_factor(n_streams: int) -> float:
    """Aggregate-capacity factor ``1 / (1 + alpha * excess)`` at ``n_streams``."""
    excess = max(n_streams - GATEWAY_CONCURRENCY_LIMIT, 0)
    return 1.0 / (1.0 + CONGESTION_ALPHA * excess)


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one output-return simulation."""

    plan: OutputReturnPlan
    all_home_time: float  # when the last file reached the home cluster
    peak_concurrent_streams: int
    mean_file_delay: float  # mean (arrival - production) per file
    transfers_started: int


#: Maximum simultaneous fetches of the pull agent.
PULL_CONCURRENCY = 4
#: Files bundled into one transfer by the two-stage agent.
TWO_STAGE_BATCH_SIZE = 50
#: Remote shared-filesystem staging rate of the two-stage agent (MB/s).
STAGE_RATE_MBPS = 400.0


def simulate_output_return(
    completion_times: list[float] | np.ndarray,
    file_mb: float,
    plan: OutputReturnPlan,
) -> TransferReport:
    """Simulate returning one output file per completion time.

    Parameters
    ----------
    completion_times:
        When each member's output is produced on the remote resource (s).
    file_mb:
        Size of each output file.
    plan:
        PUSH, PULL or TWO_STAGE.

    The WAN and its gateway are the module constants.
    """
    times = np.sort(np.asarray(completion_times, dtype=float))
    if times.size == 0:
        raise ValueError("need at least one completion time")
    if file_mb <= 0:
        raise ValueError("file_mb must be positive")
    sim = Simulator()
    link = SharedBandwidth(sim, WAN_BANDWIDTH_MBPS, congestion=congestion_factor)
    arrivals: list[float] = []
    produced: list[float] = []
    peak = {"value": 0}
    started = {"value": 0}

    def effective_setup() -> float:
        extra = max(link.active_count - GATEWAY_CONCURRENCY_LIMIT, 0)
        return WAN_SETUP_SECONDS + extra * GATEWAY_PENALTY_S

    def start_transfer(size_mb: float, produce_time: float, count: int = 1):
        started["value"] += 1
        peak["value"] = max(peak["value"], link.active_count + 1)

        def begin():
            link.transfer(size_mb, lambda: finish())

        def finish():
            for _ in range(count):
                arrivals.append(sim.now)
                produced.append(produce_time)

        sim.schedule(effective_setup(), begin)

    if plan is OutputReturnPlan.PUSH:
        for t in times:
            sim.schedule_at(float(t), lambda t=t: start_transfer(file_mb, float(t)))
        sim.run()

    elif plan is OutputReturnPlan.PULL:
        queue: list[float] = []
        in_flight = {"value": 0}

        def pump():
            while in_flight["value"] < PULL_CONCURRENCY and queue:
                produce_time = queue.pop(0)
                in_flight["value"] += 1
                started["value"] += 1
                peak["value"] = max(peak["value"], link.active_count + 1)

                def begin(pt=produce_time):
                    link.transfer(file_mb, lambda: land(pt))

                def land(pt):
                    arrivals.append(sim.now)
                    produced.append(pt)
                    in_flight["value"] -= 1
                    pump()

                sim.schedule(effective_setup(), begin)

        for t in times:
            def enqueue(t=t):
                queue.append(float(t))
                pump()

            sim.schedule_at(float(t), enqueue)
        sim.run()

    elif plan is OutputReturnPlan.TWO_STAGE:
        # stage to the remote shared FS, then bundle-transfer batches home
        staged: list[float] = []

        def stage_done(produce_time: float):
            staged.append(produce_time)
            if len(staged) % TWO_STAGE_BATCH_SIZE == 0:
                flush(staged[-TWO_STAGE_BATCH_SIZE:])

        def flush(batch: list[float]):
            start_transfer(
                file_mb * len(batch), min(batch), count=len(batch)
            )

        stage_delay = file_mb / STAGE_RATE_MBPS
        for t in times:
            sim.schedule_at(float(t) + stage_delay, lambda t=t: stage_done(float(t)))

        def flush_tail():
            tail = len(staged) % TWO_STAGE_BATCH_SIZE
            if tail:
                flush(staged[-tail:])

        sim.schedule_at(float(times[-1]) + stage_delay + 1e-6, flush_tail)
        sim.run()
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown plan {plan}")

    if len(arrivals) != times.size:
        raise RuntimeError(
            f"transfer accounting error: {len(arrivals)} arrivals for "
            f"{times.size} files"
        )
    delays = np.asarray(arrivals) - np.asarray(produced)
    return TransferReport(
        plan=plan,
        all_home_time=float(max(arrivals)),
        peak_concurrent_streams=peak["value"],
        mean_file_delay=float(delays.mean()),
        transfers_started=started["value"],
    )
