"""Unit tests for the synthetic Monterey bathymetry."""

import numpy as np
import pytest

from repro.ocean.bathymetry import (
    SyntheticBathymetry,
    monterey_bathymetry,
    monterey_grid,
)


class TestMontereyBathymetry:
    def test_shapes_and_mask(self):
        b = monterey_bathymetry(nx=42, ny=36)
        assert b.depth.shape == (36, 42)
        assert b.mask.shape == (36, 42)
        assert b.mask.dtype == bool

    def test_coast_on_east_side(self):
        b = monterey_bathymetry()
        ny, nx = b.mask.shape
        # west interior column mostly ocean, east edge all land
        assert b.mask[1:-1, 1].all()
        assert not b.mask[:, -1].any()

    def test_outer_ring_closed(self):
        b = monterey_bathymetry()
        assert not b.mask[0, :].any()
        assert not b.mask[-1, :].any()
        assert not b.mask[:, 0].any()

    def test_bay_indentation(self):
        """The bay pushes the waterline east at the bay-centre latitude."""
        b = monterey_bathymetry(nx=60, ny=50)
        ny = b.mask.shape[0]
        bay_row = int(0.55 * (ny - 1))
        far_row = 3
        bay_extent = np.max(np.nonzero(b.mask[bay_row])[0])
        far_extent = np.max(np.nonzero(b.mask[far_row])[0])
        assert bay_extent > far_extent

    def test_canyon_is_deep(self):
        b = monterey_bathymetry()
        assert b.max_depth > 2000.0

    def test_land_has_zero_depth(self):
        b = monterey_bathymetry()
        assert np.all(b.depth[~b.mask] == 0.0)


class TestSyntheticBathymetryValidation:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="non-negative"):
            SyntheticBathymetry(
                depth=np.full((4, 4), -1.0), mask=np.ones((4, 4), dtype=bool)
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            SyntheticBathymetry(
                depth=np.ones((4, 4)), mask=np.ones((5, 4), dtype=bool)
            )


class TestMontereyGrid:
    def test_default_dimensions(self):
        g = monterey_grid()
        assert (g.ny, g.nx, g.nz) == (36, 42, 10)

    def test_levels_stretched_toward_surface(self):
        g = monterey_grid()
        dz = np.diff(g.z_levels)
        assert np.all(dz > 0)
        assert dz[0] < dz[-1]  # finer near the surface

    def test_mask_matches_bathymetry(self):
        g = monterey_grid(nx=30, ny=24)
        b = monterey_bathymetry(nx=30, ny=24)
        assert np.array_equal(g.mask, b.mask)
