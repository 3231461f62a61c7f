"""Batched ensemble stepping: bit-identity with the serial member path."""

import numpy as np
import pytest

from repro.ocean import StochasticForcing
from repro.ocean.model import CHECK_INTERVAL, EnsembleState
from repro.ocean.stochastic import BatchedStochasticForcing
from tests.ocean.conftest import member as batch_member

N = 3


def perturbed_states(model, base, n=N, amplitude=0.01):
    """Small deterministic per-member temperature bumps on a base state."""
    states = []
    for i in range(n):
        member = base.copy()
        member.temp = member.temp + amplitude * (i + 1) * model.grid.mask
        states.append(member)
    return states


class TestEnsembleState:
    def test_from_states_round_trip(self, small_model, spun_up_state):
        states = perturbed_states(small_model, spun_up_state)
        batch = EnsembleState.from_states(states)
        assert batch.count == N
        assert batch.time == spun_up_state.time
        for i, state in enumerate(states):
            member = batch_member(batch, i)
            assert np.array_equal(member.u, state.u)
            assert np.array_equal(member.temp, state.temp)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleState.from_states([])

    def test_time_disagreement_rejected(self, small_model, spun_up_state):
        late = spun_up_state.copy()
        late.time = spun_up_state.time + 400.0
        with pytest.raises(ValueError, match="disagree"):
            EnsembleState.from_states([spun_up_state.copy(), late])


class TestMatrixRoundTrip:
    def test_columns_match_to_vector(self, small_model, spun_up_state):
        states = perturbed_states(small_model, spun_up_state)
        batch = EnsembleState.from_states(states)
        matrix = small_model.ensemble_to_matrix(batch)
        assert matrix.shape == (small_model.layout.size, N)
        for j, state in enumerate(states):
            assert np.array_equal(matrix[:, j], small_model.to_vector(state))

    def test_from_matrix_round_trip(self, small_model, spun_up_state):
        states = perturbed_states(small_model, spun_up_state)
        batch = EnsembleState.from_states(states)
        matrix = small_model.ensemble_to_matrix(batch)
        again = small_model.ensemble_from_matrix(matrix, time=batch.time)
        for i in range(N):
            # The unpacked batch is re-masked; wet points round-trip
            # exactly and land points come back zeroed.
            wet = small_model.grid.mask
            assert np.array_equal(again.u[i][wet], batch.u[i][wet])
            assert np.array_equal(
                again.temp[i][:, wet], batch.temp[i][:, wet]
            )


class TestDeterministicBatchEquality:
    def test_step_matches_serial(self, small_model, spun_up_state):
        dt = small_model.config.dt
        states = perturbed_states(small_model, spun_up_state)
        batch, failed = small_model.run_ensemble(EnsembleState.from_states(states), dt)
        assert failed == {}
        for i, state in enumerate(states):
            serial = small_model.run(state, dt)
            member = batch_member(batch, i)
            assert np.array_equal(member.u, serial.u)
            assert np.array_equal(member.v, serial.v)
            assert np.array_equal(member.eta, serial.eta)
            assert np.array_equal(member.temp, serial.temp)
            assert np.array_equal(member.salt, serial.salt)

    def test_run_matches_serial(self, small_model, spun_up_state):
        duration = 4 * small_model.config.dt
        states = perturbed_states(small_model, spun_up_state)
        batch, failed = small_model.run_ensemble(
            EnsembleState.from_states(states), duration
        )
        assert failed == {}
        for i, state in enumerate(states):
            serial = small_model.run(state, duration)
            member = batch_member(batch, i)
            assert member.time == serial.time
            assert np.array_equal(member.u, serial.u)
            assert np.array_equal(member.temp, serial.temp)


class TestNoisyBatchEquality:
    def test_batched_forcing_matches_per_member_serial(
        self, small_model, spun_up_state
    ):
        """Member i of a noisy batched run is bitwise the serial run
        of a model forced by the same generator."""
        duration = 3 * small_model.config.dt
        states = perturbed_states(small_model, spun_up_state)
        noise = BatchedStochasticForcing(
            small_model.grid,
            rngs=[np.random.default_rng(100 + i) for i in range(N)],
        )
        batch, failed = small_model.run_ensemble(
            EnsembleState.from_states(states), duration, noise=noise
        )
        assert failed == {}
        for i, state in enumerate(states):
            serial_model = small_model.with_noise(
                StochasticForcing(
                    small_model.grid, rng=np.random.default_rng(100 + i)
                )
            )
            serial = serial_model.run(state, duration)
            member = batch_member(batch, i)
            assert np.array_equal(member.u, serial.u)
            assert np.array_equal(member.eta, serial.eta)
            assert np.array_equal(member.temp, serial.temp)
            assert np.array_equal(member.salt, serial.salt)

    def test_member_count_must_match(self, small_model, spun_up_state):
        states = perturbed_states(small_model, spun_up_state)
        noise = BatchedStochasticForcing(
            small_model.grid, rngs=[np.random.default_rng(0)]
        )
        with pytest.raises(ValueError, match="batch size"):
            small_model.run_ensemble(
                EnsembleState.from_states(states), small_model.config.dt, noise=noise
            )


class TestBlowupIsolation:
    def test_exploding_member_does_not_poison_siblings(
        self, small_model, spun_up_state
    ):
        duration = CHECK_INTERVAL * small_model.config.dt
        states = perturbed_states(small_model, spun_up_state)
        bomb = spun_up_state.copy()
        bomb.u = bomb.u + 1e6 * small_model.grid.mask  # CFL catastrophe
        batch, failed = small_model.run_ensemble(
            EnsembleState.from_states(states + [bomb]), duration
        )
        assert list(failed) == [N]
        assert "blow-up" in failed[N]
        # The lost member's slice is zeroed, the survivors are bitwise
        # what a batch without the bomb produces.
        assert np.array_equal(batch.u[N], np.zeros_like(batch.u[N]))
        clean, clean_failed = small_model.run_ensemble(
            EnsembleState.from_states(states), duration
        )
        assert clean_failed == {}
        for i in range(N):
            assert np.array_equal(batch.u[i], clean.u[i])
            assert np.array_equal(batch.temp[i], clean.temp[i])
