"""Tests for bathymetry-aware (range-dependent) acoustic sections."""

import numpy as np
import pytest

from repro.acoustics import extract_section, transmission_loss
from repro.ocean.bathymetry import monterey_bathymetry


@pytest.fixture()
def bathy(small_monterey_grid):
    return monterey_bathymetry(
        nx=small_monterey_grid.nx, ny=small_monterey_grid.ny
    )


def shelf_section(model, state, bathy, **kw):
    grid = model.grid
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    defaults = dict(
        n_ranges=12,
        max_depth=200.0,
        bathymetry=bathy.depth if bathy is not None else None,
    )
    defaults.update(kw)
    return extract_section(
        grid, state, (0.7 * lx, 0.2 * ly), (0.1 * lx, 0.2 * ly), **defaults
    )


class TestShelfBathymetry:
    def test_shelf_exists(self, bathy):
        wet_depths = bathy.depth[bathy.mask]
        assert wet_depths.min() == pytest.approx(120.0, rel=0.2)
        # a noticeable fraction of the ocean is shelf (< 300 m)
        assert np.mean(wet_depths < 300.0) > 0.05

    def test_canyon_still_deep(self, bathy):
        assert bathy.depth.max() > 2000.0


class TestRangeDependentSections:
    def test_water_depth_varies_along_section(
        self, small_model, spun_up_state, bathy
    ):
        sec = shelf_section(small_model, spun_up_state, bathy)
        assert sec.water_depth.min() < sec.water_depth.max()
        assert sec.water_depth.min() == pytest.approx(120.0, rel=0.25)

    def test_flat_section_without_bathymetry(self, small_model, spun_up_state):
        sec = shelf_section(small_model, spun_up_state, None, bathymetry=None)
        assert np.all(sec.water_depth == sec.water_depth[0])

    def test_bathymetry_shape_validated(self, small_model, spun_up_state):
        with pytest.raises(ValueError, match="bathymetry shape"):
            shelf_section(
                small_model, spun_up_state, None, bathymetry=np.ones((3, 3))
            )

    def test_tl_differs_from_flat_bottom(self, small_model, spun_up_state, bathy):
        sec_rd = shelf_section(small_model, spun_up_state, bathy)
        sec_flat = shelf_section(small_model, spun_up_state, None, bathymetry=None)
        tl_rd = transmission_loss(sec_rd, 150.0, source_depth=30.0)
        tl_flat = transmission_loss(sec_flat, 150.0, source_depth=30.0)
        assert not np.allclose(tl_rd.tl, tl_flat.tl)
        assert np.all(np.isfinite(tl_rd.tl))

    def test_modes_vanish_below_the_seabed(self, small_model, spun_up_state, bathy):
        """Receivers below the local bottom sit in the TL floor."""
        sec = shelf_section(small_model, spun_up_state, bathy)
        tl = transmission_loss(sec, 150.0, source_depth=30.0)
        # first receiver column is over the 120 m shelf: below ~120 m the
        # padded modes are zero -> floor value
        shelf_cols = np.nonzero(sec.water_depth[1:] < 150.0)[0]
        if shelf_cols.size:
            below = sec.depths > sec.water_depth[1:][shelf_cols[0]] + 8.0
            assert np.all(tl.tl[below, shelf_cols[0]] >= 150.0)
