"""Unit tests for PEModel: stepping, packing, stability, stochastic spread."""

import numpy as np
import pytest

from repro.ocean import ModelConfig, PEModel, StochasticForcing
from repro.ocean.diagnostics import kinetic_energy, max_current_speed
from tests.ocean.conftest import CalmForcing


class TestConstruction:
    def test_default_model_builds(self, small_model):
        assert small_model.grid.nz == 4
        assert small_model.layout.size > 0

    def test_rejects_cfl_violating_dt(self, small_monterey_grid):
        with pytest.raises(ValueError, match="CFL"):
            PEModel(grid=small_monterey_grid, config=ModelConfig(dt=1e5))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="dt"):
            ModelConfig(dt=-1.0)


class TestRestState:
    def test_at_rest(self, small_model):
        s = small_model.rest_state()
        assert np.all(s.u == 0) and np.all(s.v == 0) and np.all(s.eta == 0)

    def test_stratified(self, small_model):
        s = small_model.rest_state()
        wet = small_model.grid.mask
        surface = s.temp[0][wet].mean()
        deep = s.temp[-1][wet].mean()
        assert surface > deep  # warm on top


class TestStepping:
    def test_time_advances(self, small_model):
        s = small_model.rest_state()
        s2 = small_model.run(s, small_model.config.dt)
        assert s2.time == pytest.approx(small_model.config.dt)

    def test_run_duration_rounds_up(self, small_model):
        s = small_model.rest_state()
        dt = small_model.config.dt
        out = small_model.run(s, duration=2.5 * dt)
        assert out.time == pytest.approx(3 * dt)

    def test_run_zero_duration_is_copy(self, small_model):
        s = small_model.rest_state()
        out = small_model.run(s, 0.0)
        assert out.time == s.time
        assert out is not s

    def test_run_negative_duration_raises(self, small_model):
        with pytest.raises(ValueError, match="duration"):
            small_model.run(small_model.rest_state(), -1.0)

    def test_input_state_not_modified(self, small_model):
        s = small_model.rest_state()
        u0 = s.u.copy()
        small_model.run(s, 10 * small_model.config.dt)
        assert np.array_equal(s.u, u0)

    def test_callback_invoked_each_step(self, small_model):
        seen = []
        small_model.run(
            small_model.rest_state(),
            3 * small_model.config.dt,
            callback=lambda k, st: seen.append(k),
        )
        assert seen == [0, 1, 2]

    def test_wind_spins_up_flow(self, small_model, spun_up_state):
        assert kinetic_energy(small_model.grid, spun_up_state) > 0
        assert max_current_speed(small_model.grid, spun_up_state) > 1e-5

    def test_week_long_run_remains_bounded(self, small_model, spun_up_state):
        s = small_model.run(spun_up_state, 4 * 86400.0)
        wet = small_model.grid.mask
        assert max_current_speed(small_model.grid, s) < 2.0
        assert np.abs(s.eta[wet]).max() < 20.0
        assert 0.0 < s.temp[0][wet].min() < s.temp[0][wet].max() < 25.0

    def test_quiet_model_preserves_climatology(self, small_monterey_grid):
        m = PEModel(grid=small_monterey_grid, forcing=CalmForcing(small_monterey_grid))
        s0 = m.rest_state()
        s1 = m.run(s0, 2 * 86400.0)
        wet = small_monterey_grid.mask
        assert np.allclose(s1.temp[..., wet], s0.temp[..., wet], atol=1e-6)

    def test_blowup_raises_floating_point_error(self, small_monterey_grid):
        m = PEModel(grid=small_monterey_grid)
        s = m.rest_state()
        s.u = m.grid.apply_mask(np.full(m.grid.shape2d, 1e6))
        with pytest.raises(FloatingPointError, match="blow-up"):
            m.run(s, 100 * m.config.dt)


class TestVectorRoundTrip:
    def test_round_trip(self, small_model, spun_up_state):
        vec = small_model.to_vector(spun_up_state)
        back = small_model.from_vector(vec, time=spun_up_state.time)
        for name in ("u", "v", "eta", "temp", "salt"):
            assert np.allclose(getattr(back, name), getattr(spun_up_state, name))
        assert back.time == spun_up_state.time

    def test_vector_size_matches_layout(self, small_model, spun_up_state):
        vec = small_model.to_vector(spun_up_state)
        assert vec.shape == (small_model.layout.size,)

    def test_from_vector_masks_land(self, small_model):
        vec = np.ones(small_model.layout.size)
        state = small_model.from_vector(vec)
        assert np.all(state.u[~small_model.grid.mask] == 0)


class TestStochasticEnsembleSpread:
    def test_members_diverge(self, noisy_model, small_monterey_grid):
        base = noisy_model.run(noisy_model.rest_state(), 86400.0)
        m1 = PEModel(
            grid=small_monterey_grid,
            noise=StochasticForcing(small_monterey_grid, rng=np.random.default_rng(1)),
        )
        m2 = PEModel(
            grid=small_monterey_grid,
            noise=StochasticForcing(small_monterey_grid, rng=np.random.default_rng(2)),
        )
        s1 = m1.run(base, 86400.0)
        s2 = m2.run(base, 86400.0)
        wet = small_monterey_grid.mask
        assert not np.allclose(s1.temp[0][wet], s2.temp[0][wet])

    def test_same_seed_reproduces(self, small_monterey_grid):
        def run_with_seed(seed):
            m = PEModel(
                grid=small_monterey_grid,
                noise=StochasticForcing(
                    small_monterey_grid, rng=np.random.default_rng(seed)
                ),
            )
            return m.run(m.rest_state(), 86400.0)

        a = run_with_seed(7)
        b = run_with_seed(7)
        assert np.array_equal(a.temp, b.temp)
        assert np.array_equal(a.u, b.u)

    def test_with_noise_clone_shares_grid(self, small_model, small_monterey_grid):
        clone = small_model.with_noise(
            StochasticForcing(small_monterey_grid, rng=np.random.default_rng(0))
        )
        assert clone.grid is small_model.grid
        assert clone.noise.is_active()
        assert not small_model.noise.is_active()
