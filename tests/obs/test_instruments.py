"""Unit tests for the synthetic instruments and the observation network."""

import numpy as np
import pytest

from repro.obs import (
    AUVTrack,
    CTDStation,
    GliderTransect,
    ObservationNetwork,
    SSTSwath,
    aosn2_network,
)
from repro.obs.instruments import AUV_DEPTH, GLIDER_MAX_DEPTH, GLIDER_PROFILES
from repro.ocean.model import state_layout


@pytest.fixture()
def grid(small_monterey_grid):
    return small_monterey_grid


@pytest.fixture()
def layout(grid):
    return state_layout(grid)


@pytest.fixture()
def truth(small_model, spun_up_state):
    return spun_up_state


class TestCTD:
    def test_profiles_all_levels(self, grid):
        ctd = CTDStation(x=10000.0, y=10000.0)
        pts = ctd.sample_points(grid)
        temps = [p for p in pts if p[0] == "temp"]
        salts = [p for p in pts if p[0] == "salt"]
        assert len(temps) == grid.nz
        assert len(salts) == grid.nz

    def test_single_station(self, grid):
        pts = CTDStation(x=10000.0, y=10000.0).sample_points(grid)
        positions = {(j, i) for _, _, j, i in pts}
        assert len(positions) == 1

    def test_values_near_truth(self, grid, truth):
        ctd = CTDStation(x=10000.0, y=10000.0)
        rng = np.random.default_rng(0)
        obs = ctd.observe(grid, truth, rng)
        for o in obs:
            arr = truth.temp if o.field == "temp" else truth.salt
            assert abs(o.value - arr[o.level, o.j, o.i]) < 6 * o.noise_std


class TestAUV:
    def test_requires_two_waypoints(self, grid):
        with pytest.raises(ValueError, match="waypoints"):
            AUVTrack(waypoints=[(0.0, 0.0)]).sample_points(grid)

    def test_constant_depth(self, grid):
        auv = AUVTrack(waypoints=[(5000.0, 5000.0), (30000.0, 5000.0)])
        pts = auv.sample_points(grid)
        levels = {p[1] for p in pts}
        assert levels == {grid.level_index(AUV_DEPTH)}

    def test_samples_along_track(self, grid):
        auv = AUVTrack(waypoints=[(5000.0, 5000.0), (40000.0, 5000.0)])
        pts = auv.sample_points(grid)
        assert len(pts) >= 5

    def test_no_duplicate_points(self, grid):
        auv = AUVTrack(
            waypoints=[(5000.0, 5000.0), (30000.0, 5000.0), (5000.0, 5000.0)]
        )
        pts = auv.sample_points(grid)
        assert len(pts) == len(set(pts))


class TestGlider:
    def test_profile_count(self, grid):
        gl = GliderTransect(start=(5000.0, 5000.0), end=(40000.0, 30000.0))
        pts = gl.sample_points(grid)
        stations = {(j, i) for _, _, j, i in pts}
        assert 1 <= len(stations) <= GLIDER_PROFILES

    def test_depth_limited(self, grid):
        gl = GliderTransect(start=(5000.0, 5000.0), end=(40000.0, 30000.0))
        levels = {level for _, level, _, _ in gl.sample_points(grid)}
        shallow = {k for k, z in enumerate(grid.z_levels) if z <= GLIDER_MAX_DEPTH}
        assert levels == shallow


class TestSSTSwath:
    def test_surface_only(self, grid):
        pts = SSTSwath().sample_points(grid)
        assert all(level == 0 and f == "temp" for f, level, _, _ in pts)

    def test_decimation_reduces_count(self, grid):
        dense = len(SSTSwath(decimation=1, coverage=1.0).sample_points(grid))
        sparse = len(SSTSwath(decimation=3, coverage=1.0).sample_points(grid))
        assert sparse < dense / 4

    def test_coverage_fraction(self, grid):
        full = len(SSTSwath(decimation=1, coverage=1.0).sample_points(grid))
        half = len(SSTSwath(decimation=1, coverage=0.5).sample_points(grid))
        assert half / full == pytest.approx(0.5, abs=0.1)

    def test_coverage_deterministic(self, grid):
        a = SSTSwath(coverage=0.7).sample_points(grid)
        b = SSTSwath(coverage=0.7).sample_points(grid)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="decimation"):
            SSTSwath(decimation=0)
        with pytest.raises(ValueError, match="coverage"):
            SSTSwath(coverage=0.0)


class TestNetwork:
    def test_requires_instruments(self, grid, layout):
        with pytest.raises(ValueError, match="instrument"):
            ObservationNetwork(grid, layout, [])

    def test_observe_produces_batch(self, grid, layout, truth):
        net = aosn2_network(grid, layout, rng=np.random.default_rng(0))
        batch = net.observe(truth)
        assert batch.size > 20
        assert batch.period_index == 0
        assert batch.time == truth.time

    def test_period_index_increments(self, grid, layout, truth):
        net = aosn2_network(grid, layout, rng=np.random.default_rng(0))
        assert net.observe(truth).period_index == 0
        assert net.observe(truth).period_index == 1

    def test_land_points_skipped(self, grid, layout, truth):
        net = aosn2_network(grid, layout, rng=np.random.default_rng(0))
        batch = net.observe(truth)
        for o in batch.operator.observations:
            assert grid.mask[o.j, o.i]

    def test_instrument_mix(self, grid, layout, truth):
        net = aosn2_network(grid, layout, rng=np.random.default_rng(0))
        counts = net.observe(truth).operator.by_instrument()
        assert {"ctd", "glider", "sst"} <= set(counts)

    def test_reproducible_with_seed(self, grid, layout, truth):
        a = aosn2_network(grid, layout, rng=np.random.default_rng(5)).observe(truth)
        b = aosn2_network(grid, layout, rng=np.random.default_rng(5)).observe(truth)
        assert np.array_equal(a.operator.values, b.operator.values)
