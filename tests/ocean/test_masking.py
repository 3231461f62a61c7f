"""Unit tests for the coastal land-fill stencil."""

import numpy as np
import pytest

from repro.ocean.dynamics import halo_buffer
from repro.ocean.masking import LandFiller
from tests.ocean.test_step_kernel import ref_fill_land

NZ, BATCH = 3, 4


def cross_mask():
    """5x5 mask with a single land cell in the middle."""
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 2] = False
    return mask


def wet_neighbours(mask):
    """Each cell's number of wet 4-neighbours (the array edge is dry)."""
    wet = np.pad(mask, 1).astype(int)
    return wet[:-2, 1:-1] + wet[2:, 1:-1] + wet[1:-1, :-2] + wet[1:-1, 2:]


def coast_mask():
    """Land cells with none and with one to four wet neighbours."""
    mask = np.ones((7, 9), dtype=bool)
    mask[3, 2] = False  # an island cell: four
    mask[0, 5] = False  # on the rim: three
    mask[5:, 6:] = False  # a corner block: two, one, and none at (6, 7)
    return mask


class TestBoundFillMatchesReference:
    """The bound fill is byte-equal to the dense reference sums.

    A filler with a 2-D mask treats every axis ahead of ``(ny, nx)`` as a
    batch; one with the ``(2, nz)`` stack mask gathers over the stack at
    once and treats only the axes ahead of it as a batch.
    """

    def test_mask_has_every_neighbour_count(self):
        mask = coast_mask()
        assert set(wet_neighbours(mask)[~mask].tolist()) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("layout", ["plain", "halo"])
    @pytest.mark.parametrize(
        "levels, lead",
        [
            ((), ()),
            ((), (2, NZ)),
            ((), (BATCH,)),
            ((), (BATCH, 2, NZ)),
            ((2, NZ), (2, NZ)),
            ((2, NZ), (BATCH, 2, NZ)),
        ],
    )
    def test_bound_fill_is_byte_equal(self, layout, levels, lead):
        mask = coast_mask()
        filler = LandFiller(np.broadcast_to(mask, (*levels, *mask.shape)))
        rng = np.random.default_rng(len(lead) + 10 * len(levels))
        fld = rng.standard_normal((*lead, *mask.shape))
        if layout == "plain":
            buffer = fld.copy()
            interior = buffer
        else:
            buffer, interior = halo_buffer(fld.shape)
            buffer[...] = rng.standard_normal(buffer.shape)
            interior[...] = fld
            rim = buffer.copy()
        filler.bind(buffer)()
        expected = ref_fill_land(mask, fld)
        assert np.array_equal(interior.view(np.int64), expected.view(np.int64))
        if layout == "halo":
            inner = np.zeros(buffer.shape, dtype=bool)
            inner[..., 1:-1, 1:-1] = True
            assert np.array_equal(buffer[~inner], rim[~inner])

    def test_call_is_the_bound_fill(self):
        mask = coast_mask()
        fld = np.random.default_rng(3).standard_normal((2, *mask.shape))
        out = LandFiller(mask)(fld)
        assert np.array_equal(out.view(np.int64), ref_fill_land(mask, fld).view(np.int64))

    def test_rejects_a_strided_buffer(self):
        mask = coast_mask()
        buffer = np.zeros((*mask.shape[:-1], 2 * mask.shape[-1]))[..., ::2]
        with pytest.raises(ValueError, match="contiguous"):
            LandFiller(mask).bind(buffer)


class TestLandFiller:
    def test_fills_with_neighbour_mean(self):
        mask = cross_mask()
        fld = np.arange(25, dtype=float).reshape(5, 5)
        out = LandFiller(mask)(fld)
        expected = (fld[1, 2] + fld[3, 2] + fld[2, 1] + fld[2, 3]) / 4.0
        assert out[2, 2] == pytest.approx(expected)

    def test_ocean_values_unchanged(self):
        mask = cross_mask()
        fld = np.random.default_rng(0).random((5, 5))
        out = LandFiller(mask)(fld)
        assert np.array_equal(out[mask], fld[mask])

    def test_interior_land_untouched(self):
        """Land cells with no wet neighbour keep their value."""
        mask = np.ones((6, 6), dtype=bool)
        mask[2:5, 2:5] = False
        fld = np.zeros((6, 6))
        fld[3, 3] = 42.0  # fully interior land cell
        out = LandFiller(mask)(fld)
        assert out[3, 3] == 42.0

    def test_constant_field_invariant(self):
        """A uniform field stays uniform: the fill is zero-gradient."""
        mask = cross_mask()
        out = LandFiller(mask)(np.full((5, 5), 3.7))
        assert np.allclose(out, 3.7)

    def test_3d_stack(self):
        mask = cross_mask()
        fld = np.stack([np.full((5, 5), 1.0), np.full((5, 5), 2.0)])
        out = LandFiller(mask)(fld)
        assert out[0, 2, 2] == pytest.approx(1.0)
        assert out[1, 2, 2] == pytest.approx(2.0)

    def test_input_not_modified(self):
        mask = cross_mask()
        fld = np.ones((5, 5))
        fld[2, 2] = -5.0
        LandFiller(mask)(fld)
        assert fld[2, 2] == -5.0

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError, match="2-D"):
            LandFiller(np.ones(5, dtype=bool))

    def test_rejects_bad_field_shape(self):
        filler = LandFiller(cross_mask())
        with pytest.raises(ValueError, match="incompatible"):
            filler(np.ones((4, 4)))

    def test_edge_land_cell(self):
        """Coastline on the array edge is filled from the available side."""
        mask = np.ones((4, 4), dtype=bool)
        mask[0, :] = False
        fld = np.zeros((4, 4))
        fld[1, :] = 5.0
        out = LandFiller(mask)(fld)
        assert np.allclose(out[0, :], 5.0)
