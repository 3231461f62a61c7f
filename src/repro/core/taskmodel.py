"""Shared task-execution vocabulary for the execution layers.

Table 1 of the paper gives the single-task CPU times on the local
cluster's Opteron 250 reference node; the sched simulator calibrates its
clusters and Grid/EC2 site models from them.  They live in ``core`` (not
``sched``) because a workflow task-graph analysis, since deleted, read
them too: this module replaced the last ``workflow -> sched`` edge,
making the package DAG (REP005) cycle-free.
:class:`DegradedEnsembleWarning` lives here because both the workflow
task pools and the core tiled analysis raise it, and ``core`` must not
import ``workflow``.
"""

from __future__ import annotations

import warnings


class DegradedEnsembleWarning(UserWarning):
    """Tasks were lost terminally; statistics come from survivors only.

    Ensemble methods are sensitive to member loss in high dimensions, so
    degradation is surfaced loudly rather than absorbed silently -- see
    ``docs/FAILURE_MODEL.md`` for the semantics.  Raised by the member
    pool (lost forecast members) and by the tiled analysis (tiles that
    keep their prior after retries are exhausted).
    """


def warn_lost_members(n_lost: int) -> None:
    """Warn the caller of a staged run that ``n_lost`` members were lost."""
    warnings.warn(
        f"ensemble degraded: {n_lost} member(s) lost terminally "
        "(retries exhausted or disabled); the error subspace is "
        "estimated from the surviving members only (see "
        "docs/FAILURE_MODEL.md)",
        DegradedEnsembleWarning,
        stacklevel=3,
    )


#: Measured single-task reference times on the local Opteron 250 (Table 1).
REFERENCE_PERT_SECONDS = 6.21
REFERENCE_PEMODEL_SECONDS = 1531.33
#: Acoustic singletons executed "for approximately 3 minutes" (Sec 5.2.1).
REFERENCE_ACOUSTIC_SECONDS = 180.0


def reference_task_times() -> dict[str, float]:
    """Reference CPU seconds per task kind on the local cluster."""
    return {
        "pert": REFERENCE_PERT_SECONDS,
        "pemodel": REFERENCE_PEMODEL_SECONDS,
        "acoustic": REFERENCE_ACOUSTIC_SECONDS,
    }
