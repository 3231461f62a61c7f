"""A run's step workspace: what a run returns is its own, and it is the steps.

``PEModel.run`` and ``run_ensemble`` build one workspace of halo buffers and
stencil views and hand it to every step.  The workspace belongs to the run,
never to the shared model, and no returned array is a view of it:

- a callback that keeps every state it is handed still holds, after the
  run, exactly what it was handed;
- two threads running one shared model at once get the bits of the same
  runs done one after the other;
- a run is, bit for bit, as many one-step runs.
"""

import copy
import sys
import threading

import numpy as np
import pytest

from repro.ocean import PEModel, StochasticForcing
from repro.ocean.dynamics import SharedBlock
from repro.ocean.model import EnsembleState
from repro.ocean.stochastic import BatchedStochasticForcing
from tests.ocean.test_step_kernel import FIELDS, GRIDS, start_states

N_STEPS = 200
THREADS = 3


def assert_same_bits(state, reference):
    assert state.time == reference.time
    for name in FIELDS:
        assert np.array_equal(getattr(state, name), getattr(reference, name)), name


def assert_disjoint(states):
    """No field of one state shares memory with a field of another."""
    arrays = [getattr(s, name) for s in states for name in FIELDS]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def batched_forcing(model, count, seed=100):
    rngs = [np.random.default_rng(seed + i) for i in range(count)]
    return BatchedStochasticForcing(model.grid, rngs=rngs)


@pytest.fixture(scope="module")
def model():
    return PEModel(grid=GRIDS["monterey"]())


class TestSharedBlock:
    def test_turns_share_memory_and_views_of_one_turn_are_disjoint(self):
        block = SharedBlock()
        first = block.take((2, 3), (4,))
        assert [a.shape for a in first] == [(2, 3), (4,)]
        assert not np.shares_memory(*first)
        second = block.take((5,))
        assert np.shares_memory(second[0], first[0])
        # A turn larger than the block gets memory of its own.
        third = block.take((20,))
        assert not any(np.shares_memory(third[0], a) for a in first + second)


class TestKeptStatesStayPut:
    def test_run_callback_states(self, model):
        noisy = model.with_noise(
            StochasticForcing(model.grid, rng=np.random.default_rng(5))
        )
        kept, copies = [], []

        def keep(_step, state):
            kept.append(state)
            copies.append(copy.deepcopy(state))

        final = noisy.run(start_states(model, count=1)[0], 12 * model.config.dt, keep)
        assert len(kept) == 12 and kept[-1] is final
        for state, twin in zip(kept, copies):
            assert_same_bits(state, twin)
        assert_disjoint(kept)

    def test_one_step_ensemble_runs(self, model):
        state = EnsembleState.from_states(start_states(model, count=3))
        noise = batched_forcing(model, 3)
        kept, copies = [], []
        for _ in range(6):
            state, _ = model.run_ensemble(state, model.config.dt, noise)
            kept.append(state)
            copies.append(copy.deepcopy(state))
        for state, twin in zip(kept, copies):
            assert_same_bits(state, twin)
        assert_disjoint(kept)

    def test_run_ensemble_results(self, model):
        start = EnsembleState.from_states(start_states(model, count=3))
        duration = 5 * model.config.dt
        first, failed = model.run_ensemble(start, duration, batched_forcing(model, 3))
        twin = copy.deepcopy(first)
        second, _ = model.run_ensemble(first, duration, batched_forcing(model, 3, 7))
        assert failed == {}
        assert_same_bits(first, twin)
        assert_disjoint([start, first, second])


class TestSharedModelAcrossThreads:
    def test_concurrent_runs_equal_serial_runs(self, model):
        # Three threads, more than the cores, each running a single state and
        # then a batch from its own start, with a short switch interval: runs
        # of one shape overlap in time on the one shared model.
        singles = start_states(model, count=THREADS)
        members = start_states(model, count=2 * THREADS)
        batches = [EnsembleState.from_states(members[k::THREADS]) for k in range(THREADS)]
        duration = 60 * model.config.dt

        def job(k):
            forcing = batched_forcing(model, 2, seed=10 * k)
            return (
                model.run(singles[k], duration),
                model.run_ensemble(batches[k], duration, forcing)[0],
            )

        serial = [job(k) for k in range(THREADS)]
        results = [None] * THREADS
        barrier = threading.Barrier(THREADS)

        def worker(k):
            barrier.wait()
            results[k] = job(k)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for pair, reference in zip(results, serial):
            for result, twin in zip(pair, reference):
                assert_same_bits(result, twin)


class TestRunIsItsSteps:
    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_run_equals_single_steps(self, grid, noisy, count):
        model = PEModel(grid=GRIDS[grid]())
        states = start_states(model, count=count)
        dt = model.config.dt
        duration = N_STEPS * dt
        if count == 1:
            def member():
                rng = np.random.default_rng(9)
                return model.with_noise(StochasticForcing(model.grid, rng=rng))

            runner, stepper = (member(), member()) if noisy else (model, model)
            final = runner.run(states[0], duration)
            stepped = states[0]
            for _ in range(N_STEPS):
                stepped = stepper.run(stepped, dt)
        else:
            start = EnsembleState.from_states(states)
            noise = batched_forcing(model, count) if noisy else None
            final, failed = model.run_ensemble(start, duration, noise)
            assert failed == {}
            noise = batched_forcing(model, count) if noisy else None
            stepped = start
            for _ in range(N_STEPS):
                stepped, failed = model.run_ensemble(stepped, dt, noise)
                assert failed == {}
        assert_same_bits(final, stepped)
