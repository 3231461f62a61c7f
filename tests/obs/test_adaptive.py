"""Tests for adaptive (uncertainty-guided) sampling."""

import numpy as np
import pytest

from repro.core import ESSEAnalysis, ESSEConfig, ESSEDriver, synthetic_initial_subspace
from repro.obs.adaptive import (
    AdaptiveSampler,
    SamplingSuggestion,
    suggest_sampling_locations,
)
from repro.obs.network import ObservationNetwork


@pytest.fixture(scope="module")
def forecast_setup(small_model, spun_up_state):
    subspace = synthetic_initial_subspace(
        small_model.layout,
        small_model.grid.shape2d,
        small_model.grid.nz,
        rank=10,
        seed=4,
    )
    driver = ESSEDriver(
        small_model,
        ESSEConfig(
            initial_ensemble_size=8,
            max_ensemble_size=16,
            convergence_tolerance=0.9,
            max_subspace_rank=10,
        ),
        root_seed=3,
    )
    forecast = driver.forecast(
        spun_up_state, subspace, duration=4 * small_model.config.dt
    )
    return small_model, forecast


class TestSuggestions:
    def test_count_and_ordering(self, forecast_setup):
        model, forecast = forecast_setup
        picks = suggest_sampling_locations(
            forecast.subspace, model.layout, model.grid, count=5
        )
        assert len(picks) == 5
        variances = [p.predicted_variance for p in picks]
        # first pick has the globally largest variance
        assert variances[0] == max(variances)

    def test_all_points_wet_and_distinct(self, forecast_setup):
        model, forecast = forecast_setup
        picks = suggest_sampling_locations(
            forecast.subspace, model.layout, model.grid, count=8
        )
        seen = set()
        for p in picks:
            assert model.grid.mask[p.j, p.i]
            assert (p.j, p.i) not in seen
            seen.add((p.j, p.i))

    def test_first_pick_matches_variance_field(self, forecast_setup):
        model, forecast = forecast_setup
        layout = model.layout
        picks = suggest_sampling_locations(
            forecast.subspace, layout, model.grid, count=1
        )
        var = layout.view(forecast.subspace.variance_field(), "temp")[0]
        var = np.where(model.grid.mask, var, -np.inf)
        j, i = np.unravel_index(np.argmax(var), var.shape)
        assert (picks[0].j, picks[0].i) == (j, i)

    def test_conditioning_spreads_picks(self, forecast_setup):
        """Greedy-with-conditioning picks are more spread than pure top-K."""
        model, forecast = forecast_setup
        layout = model.layout
        picks = suggest_sampling_locations(
            forecast.subspace, layout, model.grid, count=4
        )
        var = layout.view(forecast.subspace.variance_field(), "temp")[0]
        var = np.where(model.grid.mask, var, -np.inf)
        flat_order = np.argsort(var.ravel())[::-1][:4]
        topk = {tuple(np.unravel_index(k, var.shape)) for k in flat_order}
        chosen = {(p.j, p.i) for p in picks}
        # conditioning must change at least one pick vs naive top-K
        # (uncertainty lobes span several contiguous points)
        assert chosen != topk or len(topk) < 4

    def test_validation(self, forecast_setup):
        model, forecast = forecast_setup
        with pytest.raises(ValueError, match="count"):
            suggest_sampling_locations(
                forecast.subspace, model.layout, model.grid, count=0
            )


class TestAdaptiveSampler:
    def test_requires_suggestions(self):
        with pytest.raises(ValueError):
            AdaptiveSampler([])

    def test_observes_at_suggested_points(self, forecast_setup):
        model, forecast = forecast_setup
        picks = suggest_sampling_locations(
            forecast.subspace, model.layout, model.grid, count=3
        )
        sampler = AdaptiveSampler(picks)
        rng = np.random.default_rng(0)
        obs = sampler.observe(model.grid, forecast.central, rng)
        assert len(obs) == 3
        assert {(o.j, o.i) for o in obs} == {(p.j, p.i) for p in picks}

    def test_adaptive_beats_uninformed_sampling(self, forecast_setup):
        """Same budget of observations: adaptive placement reduces the
        posterior uncertainty more than uniform placement."""
        model, forecast = forecast_setup
        layout, grid = model.layout, model.grid
        analysis = ESSEAnalysis(layout)
        x = model.to_vector(forecast.central)
        rng = np.random.default_rng(1)
        budget = 6

        picks = suggest_sampling_locations(
            forecast.subspace, layout, grid, count=budget
        )
        adaptive = ObservationNetwork(
            grid, layout, [AdaptiveSampler(picks)], rng=rng
        ).observe(forecast.central)

        # uninformed: evenly spread wet points
        wet_j, wet_i = np.nonzero(grid.mask)
        step = max(len(wet_j) // budget, 1)
        fixed_picks = [
            SamplingSuggestion("temp", 0, int(wet_j[k]), int(wet_i[k]), 0.0)
            for k in range(0, budget * step, step)
        ][:budget]
        fixed = ObservationNetwork(
            grid, layout, [AdaptiveSampler(fixed_picks)], rng=np.random.default_rng(1)
        ).observe(forecast.central)

        post_adaptive = analysis.update(x, forecast.subspace, adaptive.operator)
        post_fixed = analysis.update(x, forecast.subspace, fixed.operator)
        assert (
            post_adaptive.subspace.total_variance
            < post_fixed.subspace.total_variance
        )
