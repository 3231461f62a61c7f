"""Tests for the one-way-coupled phytoplankton tracer."""

import numpy as np
import pytest

from repro.ocean import biology
from repro.ocean.biology import PhytoplanktonModel


@pytest.fixture()
def bio(small_model):
    return PhytoplanktonModel(small_model)


class TestInitialField:
    def test_shape_and_masking(self, bio, small_model):
        p0 = bio.initial_field()
        assert p0.shape == small_model.grid.shape3d
        assert np.all(p0[..., ~small_model.grid.mask] == 0)

    def test_decays_with_depth(self, bio, small_model):
        p0 = bio.initial_field()
        wet = small_model.grid.mask
        assert p0[0][wet].mean() > p0[-1][wet].mean()


class TestStepping:
    def test_concentrations_stay_nonnegative(self, bio, small_model, spun_up_state):
        phyto = bio.initial_field()
        state = spun_up_state
        for _ in range(20):
            phyto = bio.step(phyto, state)
        assert np.all(phyto >= 0)
        assert np.all(np.isfinite(phyto))

    def test_surface_grows_faster_than_deep(self, bio, small_model, spun_up_state):
        phyto = bio.initial_field()
        wet = small_model.grid.mask
        ratio0 = phyto[0][wet].mean() / max(phyto[-1][wet].mean(), 1e-12)
        for _ in range(60):
            phyto = bio.step(phyto, spun_up_state)
        ratio1 = phyto[0][wet].mean() / max(phyto[-1][wet].mean(), 1e-12)
        assert ratio1 > ratio0  # light limitation differentiates the levels

    def test_upwelling_feeds_growth(self, bio, small_model, spun_up_state):
        """Uplifted-interface (eta < 0) regions grow faster."""
        state_up = spun_up_state.copy()
        state_up.eta = small_model.grid.apply_mask(
            np.full(small_model.grid.shape2d, -5.0)
        )
        state_down = spun_up_state.copy()
        state_down.eta = small_model.grid.apply_mask(
            np.full(small_model.grid.shape2d, +5.0)
        )
        p_up = p_down = bio.initial_field()
        for _ in range(50):
            p_up = bio.step(p_up, state_up)
            p_down = bio.step(p_down, state_down)
        wet = small_model.grid.mask
        assert p_up[0][wet].mean() > p_down[0][wet].mean()

    def test_mortality_caps_the_bloom(self, bio, small_model, spun_up_state, monkeypatch):
        """Quadratic mortality caps the bloom below the logistic level.

        Growth ``MAX_GROWTH x light x nutrient`` against the loss
        ``MORTALITY x P`` balances at ``P* = MAX_GROWTH x light x nutrient /
        MORTALITY``; the richest cell (surface light, strongest uplift)
        sets the ceiling.  Over 20 days the capped bloom climbs to about
        0.6 of it (0.79 against 1.26 on this grid), and the same run
        without mortality overshoots it (2.47).
        """
        light = np.exp(-small_model.grid.z_levels[0] / biology.LIGHT_EFOLDING_DEPTH)
        uplift = np.clip(-spun_up_state.eta, 0.0, None).max()
        nutrient = min(0.2 + biology.NUTRIENT_UPWELLING_GAIN * uplift, 1.0)
        ceiling = biology.MAX_GROWTH_PER_DAY * light * nutrient / biology.MORTALITY_PER_DAY

        def bloom():
            phyto = bio.initial_field()
            for _ in range(int(20 * 86400 / small_model.config.dt)):  # 20 days
                phyto = bio.step(phyto, spun_up_state)
            return phyto.max()

        capped = bloom()
        monkeypatch.setattr(biology, "MORTALITY_PER_DAY", 0.0)
        uncapped = bloom()
        assert 0.5 * ceiling < capped <= ceiling
        assert uncapped > ceiling


class TestCoupledRun:
    def test_run_along_returns_consistent_pair(self, bio, small_model, spun_up_state):
        phyto, state = bio.run_along(spun_up_state, 0.5 * 86400.0)
        assert phyto.shape == small_model.grid.shape3d
        assert state.time == pytest.approx(
            spun_up_state.time + 0.5 * 86400.0, rel=0.01
        )
        assert np.all(phyto >= 0)

    def test_surface_chlorophyll_extraction(self, bio):
        phyto = bio.initial_field()
        sfc = bio.surface_chlorophyll(phyto)
        assert np.array_equal(sfc, phyto[0])

    def test_coastal_bloom_structure(self, bio, small_model, spun_up_state):
        """After a few days the surface chlorophyll is spatially
        structured (blooms where the physics upwells)."""
        phyto, _ = bio.run_along(spun_up_state, 2 * 86400.0)
        wet = small_model.grid.mask
        sfc = bio.surface_chlorophyll(phyto)[wet]
        assert sfc.std() > 0.01 * sfc.mean()
