"""Regression tests for the decoupled SVD/convergence worker.

These drive :meth:`ParallelESSEWorkflow._svd_loop` directly against
hand-published covariance snapshots, pinning the two checkpoint-accounting
bugs fixed in this PR:

- a snapshot whose count jumps past several growth checkpoints must
  satisfy *all* of them with one SVD (the old loop advanced one
  checkpoint per snapshot, so later same-count republishes fired
  spurious SVDs);
- on shutdown the last published snapshot must always get a final SVD
  when it holds unfactored members, even below the next checkpoint (the
  old loop silently exempted the completed ensemble from the
  convergence test).

Plus the torn-safe-file resilience contract: an unreadable snapshot is
"no snapshot yet" with structured, bounded retries.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import ESSEConfig
from repro.telemetry.clock import MONOTONIC
from repro.telemetry.metrics import MetricsRegistry
from repro.workflow import ParallelESSEWorkflow
from repro.workflow.covfile import CovarianceReadError, MemmapCovarianceStore

# One store since the npz file set was deleted; the parameter survives only
# so these tests keep the ids the tier-1 floor lists them under.
BACKENDS = ("memmap",)


def make_workflow(tmp_path, **cfg_kw):
    defaults = dict(
        initial_ensemble_size=4,
        max_ensemble_size=16,
        convergence_tolerance=1.0,  # never converge: count every SVD
        max_subspace_rank=8,
    )
    defaults.update(cfg_kw)
    return ParallelESSEWorkflow(
        runner=None,  # the SVD loop never touches the runner
        config=ESSEConfig(**defaults),
        workdir=tmp_path,
        poll_interval=0.002,
        metrics=MetricsRegistry(),
    )


def publish(wf, count, n=24, seed=0):
    """Publish a count-member snapshot through the workflow's store.

    Republishing the same count bumps the version without changing the
    data -- exactly what a differ publish with no new members since the
    reader's last poll looks like.
    """
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((n, count))
    new = count - wf.covset.count
    if new > 0:
        ids = np.arange(count - new, count)
        wf.covset.append(columns[:, count - new :], ids)
    wf.covset.publish()


class LoopHarness:
    """Run ``_svd_loop`` on a background thread with clean shutdown."""

    def __init__(self, wf):
        self.wf = wf
        self.out = {}
        self.stop = threading.Event()
        self.converged = threading.Event()
        self.errors = []
        from repro.core.convergence import ConvergenceCriterion

        self.criterion = ConvergenceCriterion(
            tolerance=wf.config.convergence_tolerance
        )
        checkpoints = wf.config.stage_sizes()

        def body():
            try:
                wf._svd_loop(
                    self.criterion, checkpoints, self.converged, self.stop, self.out
                )
            except BaseException as exc:
                self.errors.append(exc)

        self.thread = threading.Thread(target=body, name="test-svd-loop")

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "svd loop failed to stop"

    def events_of(self, kind):
        with self.wf._events_lock:
            return [e for e in self.wf._events if e.kind == kind]

    def wait_for(self, kind, count, timeout=5.0):
        deadline = MONOTONIC() + timeout
        while MONOTONIC() < deadline:
            if len(self.events_of(kind)) >= count:
                return
            time.sleep(0.002)
        raise AssertionError(
            f"timed out waiting for {count} {kind!r} events; "
            f"have {self.events_of(kind)}"
        )

    def settle(self, polls=10):
        """Give the loop enough polls to act on anything published."""
        time.sleep(polls * self.wf.poll_interval)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCheckpointAccounting:
    def test_snapshot_jumping_checkpoints_gets_one_svd(self, tmp_path, backend):
        """count=16 satisfies checkpoints [4, 8, 16]: one SVD, not three."""
        wf = make_workflow(tmp_path)
        with LoopHarness(wf) as h:
            publish(wf, 16)
            h.wait_for("svd_done", 1)
            # a republish with the same count (new version, no new members)
            # must not fire the checkpoints the jump already satisfied
            publish(wf, 16)
            h.settle()
            assert len(h.events_of("svd_start")) == 1
        # shutdown drain: nothing unfactored, so still exactly one SVD
        assert len(h.events_of("svd_start")) == 1
        assert h.out["count"] == 16

    def test_republished_count_fires_no_spurious_svd(self, tmp_path, backend):
        wf = make_workflow(tmp_path)
        with LoopHarness(wf) as h:
            publish(wf, 4)
            h.wait_for("svd_done", 1)
            publish(wf, 4)  # differ republish, no growth
            h.settle()
            assert len(h.events_of("svd_start")) == 1
        assert h.out["count"] == 4

    def test_final_snapshot_below_checkpoint_gets_final_svd(
        self, tmp_path, backend
    ):
        """The completed ensemble is factored even below the next checkpoint."""
        wf = make_workflow(tmp_path)
        with LoopHarness(wf) as h:
            publish(wf, 4)
            h.wait_for("svd_done", 1)
            publish(wf, 6)  # below the next checkpoint (8) when the run ends
        done = h.events_of("svd_done")
        assert len(done) == 2
        assert "count=6" in done[-1].detail
        assert "final=1" in done[-1].detail
        assert h.out["count"] == 6
        assert self_history_counts(h) == [6]

    def test_final_drain_without_any_checkpoint_svd(self, tmp_path, backend):
        """A run that ends before the first checkpoint still gets its SVD."""
        wf = make_workflow(tmp_path)
        with LoopHarness(wf) as h:
            publish(wf, 3)  # below the first checkpoint (4)
            h.settle()
            assert h.events_of("svd_start") == []
        done = h.events_of("svd_done")
        assert len(done) == 1
        assert "final=1" in done[0].detail
        assert h.out["count"] == 3


def self_history_counts(harness):
    """Ensemble sizes the convergence criterion recorded."""
    return [count for count, _ in harness.criterion.history]


class TestTornSafeFile:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_loop_survives_garbage_safe_file(self, tmp_path, backend):
        """A torn safe snapshot reads as None; the loop retries and recovers."""
        wf = make_workflow(tmp_path)
        wf.covset.header_path.write_bytes(b"torn mid-replace, not a valid file")
        with LoopHarness(wf) as h:
            h.wait_for("io_retry", 1)
            # recovery: a good publish lands and the loop factors it
            publish(wf, 4)
            h.wait_for("svd_done", 1)
        assert h.errors == []
        assert h.out["count"] == 4
        retries = h.events_of("io_retry")
        assert all("target=cov_safe" in e.detail for e in retries)
        assert (
            wf.metrics.counter("differ_io_retries", kind="cov_safe").value > 0
        )

    def test_unreadable_past_bound_surfaces_as_error(self, tmp_path):
        """Permanent corruption must not be an infinite silent spin."""
        wf = make_workflow(tmp_path)
        wf.covset = MemmapCovarianceStore(tmp_path, max_unreadable_reads=4)
        wf.covset.header_path.write_bytes(b"permanently corrupt")
        with LoopHarness(wf) as h:
            deadline = MONOTONIC() + 5.0
            while not h.errors and MONOTONIC() < deadline:
                time.sleep(0.002)
        assert len(h.errors) == 1
        assert isinstance(h.errors[0], CovarianceReadError)
