"""Unit tests for repro.ocean.grid."""

import numpy as np
import pytest

from repro.ocean.grid import OceanGrid, demo_grid


def make_grid(**kw):
    defaults = dict(nx=8, ny=6, dx=1000.0, dy=2000.0, z_levels=(5.0, 20.0, 50.0))
    defaults.update(kw)
    return OceanGrid(**defaults)


class TestConstruction:
    def test_basic_properties(self):
        g = make_grid()
        assert g.nz == 3
        assert g.shape2d == (6, 8)
        assert g.shape3d == (3, 6, 8)
        assert g.n_ocean == 48  # default mask is all ocean

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError, match="at least 4x4"):
            make_grid(nx=2)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            make_grid(dx=-1.0)

    def test_rejects_descending_levels(self):
        with pytest.raises(ValueError, match="ascending"):
            make_grid(z_levels=(50.0, 20.0))

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            make_grid(z_levels=(-5.0, 20.0))

    def test_rejects_wrong_mask_shape(self):
        with pytest.raises(ValueError, match="mask shape"):
            make_grid(mask=np.ones((3, 3), dtype=bool))

    def test_coriolis_positive_in_northern_hemisphere(self):
        g = make_grid()
        assert 8.0e-5 < g.coriolis < 9.5e-5



class TestIndexing:
    def test_level_index_nearest(self):
        g = make_grid()
        assert g.level_index(4.0) == 0
        assert g.level_index(22.0) == 1
        assert g.level_index(1000.0) == 2

    def test_nearest_point_simple(self):
        g = make_grid()
        assert g.nearest_point(0.0, 0.0) == (0, 0)
        assert g.nearest_point(3000.0, 4000.0) == (2, 3)

    def test_nearest_point_clips_outside_domain(self):
        g = make_grid()
        j, i = g.nearest_point(1e9, 1e9)
        assert (j, i) == (5, 7)

    def test_nearest_point_avoids_land(self):
        mask = np.ones((6, 8), dtype=bool)
        mask[0, 0] = False
        g = make_grid(mask=mask)
        j, i = g.nearest_point(0.0, 0.0)
        assert g.mask[j, i]
        assert (j, i) != (0, 0)

    def test_nearest_point_all_land_raises(self):
        mask = np.zeros((6, 8), dtype=bool)
        g = make_grid(mask=mask)
        with pytest.raises(ValueError, match="no ocean"):
            g.nearest_point(0.0, 0.0)


class TestNearestPoints:
    """The vectorized lookup equals ``nearest_point`` point by point."""

    @staticmethod
    def coast_grid():
        mask = np.ones((6, 8), dtype=bool)
        mask[:, :3] = False  # a coast along the west edge
        mask[4:, 5] = False  # and an island
        return make_grid(mask=mask)

    def test_matches_nearest_point(self):
        g = self.coast_grid()
        rng = np.random.default_rng(3)
        xs = np.concatenate([rng.uniform(-4000.0, 12000.0, 40), [0.0, 5000.0, 1e9, -1e9]])
        ys = np.concatenate([rng.uniform(-5000.0, 16000.0, 40), [0.0, 9000.0, 1e9, 5000.0]])
        j, i = g.nearest_points(xs, ys)
        assert [(int(a), int(b)) for a, b in zip(j, i)] == [
            g.nearest_point(x, y) for x, y in zip(xs, ys)
        ]
        assert np.all(g.mask[j, i])
        # the sample covers land cells (the fallback) and the outside (clipping)
        raw_i = np.clip(np.rint(xs / g.dx), 0, g.nx - 1).astype(int)
        raw_j = np.clip(np.rint(ys / g.dy), 0, g.ny - 1).astype(int)
        assert np.any(~g.mask[raw_j, raw_i])
        assert np.any((xs < 0) | (xs > (g.nx - 1) * g.dx))

    def test_land_falls_back_to_nearest_wet_point(self):
        j, i = self.coast_grid().nearest_points(np.array([0.0, 5000.0]), np.array([0.0, 10000.0]))
        assert list(j) == [0, 5] and list(i) == [3, 4]

    def test_all_land_raises(self):
        g = make_grid(mask=np.zeros((6, 8), dtype=bool))
        with pytest.raises(ValueError, match="no ocean"):
            g.nearest_points(np.array([0.0, 1000.0]), np.array([0.0, 0.0]))


class TestMasking:
    def test_apply_mask_2d(self):
        mask = np.ones((6, 8), dtype=bool)
        mask[2, 3] = False
        g = make_grid(mask=mask)
        fld = np.ones(g.shape2d)
        out = g.apply_mask(fld)
        assert out[2, 3] == 0.0
        assert out[0, 0] == 1.0
        assert fld[2, 3] == 1.0  # input untouched

    def test_apply_mask_3d(self):
        mask = np.ones((6, 8), dtype=bool)
        mask[1, 1] = False
        g = make_grid(mask=mask)
        out = g.apply_mask(np.ones(g.shape3d))
        assert np.all(out[:, 1, 1] == 0.0)

    def test_apply_mask_wrong_shape(self):
        g = make_grid()
        with pytest.raises(ValueError, match="incompatible"):
            g.apply_mask(np.ones((3, 3)))


def test_demo_grid_is_closed_basin():
    g = demo_grid()
    assert not g.mask[0, :].any()
    assert not g.mask[-1, :].any()
    assert not g.mask[:, 0].any()
    assert not g.mask[:, -1].any()
    assert g.mask[5, 5]
