"""The ESSE many-task workflow implementations.

This package reproduces the paper's Sec 4 -- the transformation of the
serial ESSE job shepherd (Fig 3) into a decoupled many-task pipeline
(Fig 4):

- :mod:`~repro.workflow.statefiles` -- per-perturbation-index status files
  carrying singleton exit codes (Sec 4.2 dependency tracking); a run's
  progress and its failed attempts are read back from the same directory,
  the monitoring Sec 5.3.1 asks for,
- :mod:`~repro.workflow.covfile` -- the three-file covariance handoff
  that decouples the differ from the SVD without a race: an append-only
  memmap column store published through a versioned header
  (``docs/COVFILE_PROTOCOL.md``),
- :mod:`~repro.workflow.serial` -- the serial implementation with its four
  bottlenecks, instrumented so the benches can show them, a client of the
  one stage loop :func:`repro.core.ensemble.grow_ensemble`,
- :mod:`~repro.workflow.pool` -- the one fault-tolerant task pool
  (retry/backoff, straggler cancel-and-replace, fault injection, loss)
  that members and analysis tiles both run on, and
  :class:`TileTaskPool`, its tile client
  (``docs/FAILURE_MODEL.md``, ``docs/ASSIMILATION.md``),
- :mod:`~repro.workflow.parallel` -- the MTC implementation: the Fig 4
  pipeline (a member pool kept ahead of the stage being grown, a differ
  folding members in completion order, each stage's SVD on the published
  snapshot, cancellation of superfluous members) as a client of that
  pool and of the same stage loop,
- :mod:`~repro.workflow.policies` -- cancellation and retry policies,
- :mod:`~repro.workflow.faults` -- deterministic fault injection (crash /
  corrupt output / straggler stall / transient submit failure) for
  exercising the retry machinery; the failure model is documented in
  ``docs/FAILURE_MODEL.md``,
- :mod:`~repro.workflow.ensemble` -- the ensemble engine: the same stage
  loop over vectorized member batches and the published memmap column
  store; process-parallel members are the Fig 4 pipeline with
  ``use_processes=True`` (``docs/ENSEMBLE_ENGINE.md``).
"""

from repro.workflow.statefiles import StatusDirectory, TaskStatus
from repro.workflow.covfile import (
    ColumnSnapshot,
    CovarianceReadError,
    MemmapCovarianceStore,
)
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.workflow.policies import CancellationPolicy, RetryPolicy
from repro.workflow.faults import FaultEvent, FaultInjector, FaultKind
from repro.workflow.serial import SerialESSEWorkflow, SerialTimings
from repro.workflow.pool import TaskOutcome, TaskPool, TileTaskPool
from repro.workflow.parallel import (
    ParallelESSEWorkflow,
    WorkflowEvent,
    WorkflowResult,
)
from repro.workflow.ensemble import EngineResult, EnsembleEngine

__all__ = [
    "StatusDirectory",
    "TaskStatus",
    "ColumnSnapshot",
    "CovarianceReadError",
    "MemmapCovarianceStore",
    "CancellationPolicy",
    "RetryPolicy",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "SerialESSEWorkflow",
    "SerialTimings",
    "DegradedEnsembleWarning",
    "ParallelESSEWorkflow",
    "WorkflowEvent",
    "WorkflowResult",
    "TaskOutcome",
    "TaskPool",
    "TileTaskPool",
    "EngineResult",
    "EnsembleEngine",
]
