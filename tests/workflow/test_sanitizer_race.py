"""Detection-power check: the sanitizer catches the PR 3 sweep-count race.

PR 3's static lock rule (REP003) caught an unlocked mutation of the
parallel workflow's ``_missing_sweeps`` dict -- the differ thread bumped
the per-member I/O sweep counter while the main loop read it under
``_fault_lock``.  This test re-introduces exactly that bug in a fixture
pool and proves the *dynamic* layer (the Eraser-style lockset detector)
reports it too, under a deterministic two-thread schedule; the fixed
locking discipline stays clean.  If a refactor ever weakens the
detector, this test fails before a real race can slip through.

The corner it models is gone from the workflow: the Fig 4 differ now runs
on the thread that polls the pool, with no sweep counter and no lock.
The fixture keeps the shape of the bug because the test is about the
sanitizer, not about the workflow.
"""

import threading

from repro.util.sanitizer import new_lock, sanitized, track


class SweepPool:
    """The fault-signal corner of ``ParallelESSEWorkflow``, reduced.

    ``locked`` selects between the shipped discipline (every
    ``_missing_sweeps`` access under ``_fault_lock``) and the pre-PR 3
    bug (the differ-side bump skips the lock).
    """

    def __init__(self, locked: bool):
        self.locked = locked
        self._fault_lock = new_lock("SweepPool._fault_lock")
        self._missing_sweeps = {}
        track(self, "_missing_sweeps")

    def note_missing(self, index: int) -> None:
        """Differ-thread side: count a status-before-file sweep."""
        if self.locked:
            with self._fault_lock:
                sweeps = self._missing_sweeps.get(index, 0) + 1
                self._missing_sweeps[index] = sweeps
        else:
            sweeps = self._missing_sweeps.get(index, 0) + 1
            self._missing_sweeps[index] = sweeps  # repro-lint: disable=REP003 -- the planted PR 3 race

    def check_stragglers(self) -> int:
        """Main-loop side: read the counters under the lock."""
        with self._fault_lock:
            return sum(self._missing_sweeps.values())


def run_schedule(pool: SweepPool) -> None:
    """One deterministic two-thread interleaving over the pool.

    Barriers sequence the phases -- main-loop read, then differ bump,
    then main-loop read -- so the verdict never depends on scheduler
    luck: the lockset detector judges the locking discipline, not
    whether the threads actually collided.
    """
    phase = threading.Barrier(2, timeout=10.0)

    def differ():
        phase.wait()  # let the main loop touch the dict first
        pool.note_missing(3)
        pool.note_missing(3)
        phase.wait()

    def main_loop():
        assert pool.check_stragglers() == 0
        phase.wait()
        phase.wait()
        assert pool.check_stragglers() == 2

    t = threading.Thread(target=differ, name="esse-differ")
    t.start()
    main_loop()
    t.join()


class TestSweepRaceDetection:
    def test_unlocked_sweep_bump_is_caught(self):
        with sanitized() as monitor:
            pool = SweepPool(locked=False)
            run_schedule(pool)
            races = monitor.races
            assert len(races) == 1
            assert races[0].var == "SweepPool._missing_sweeps"
            assert races[0].thread == "esse-differ"
            # The planted race is this test's *purpose*: clear it so the
            # suite-level REPRO_SANITIZE fixture does not fail the test.
            monitor.clear()

    def test_locked_discipline_is_clean(self):
        with sanitized() as monitor:
            pool = SweepPool(locked=True)
            run_schedule(pool)
            assert monitor.reports == ()
