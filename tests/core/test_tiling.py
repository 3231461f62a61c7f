"""Tests for the rectangular tile decomposition of the analysis grid."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from repro.core.state import FieldLayout, FieldSpec
from repro.core.tiling import Tile, TileDecomposition


class TestTile:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="invalid tile bounds"):
            Tile(index=0, j0=2, j1=2, i0=0, i1=4)
        with pytest.raises(ValueError, match="invalid tile bounds"):
            Tile(index=0, j0=-1, j1=2, i0=0, i1=4)
        with pytest.raises(ValueError, match="invalid tile bounds"):
            Tile(index=0, j0=0, j1=2, i0=4, i1=1)

    def test_n_cells(self):
        assert Tile(index=0, j0=1, j1=4, i0=2, i1=7).n_cells == 15

    def test_distance_zero_inside(self):
        tile = Tile(index=0, j0=2, j1=5, i0=3, i1=6)
        jj, ii = np.meshgrid(np.arange(2, 5), np.arange(3, 6), indexing="ij")
        assert_allclose(tile.distance_to(jj.ravel(), ii.ravel()), 0.0)

    def test_distance_axis_aligned_and_diagonal(self):
        tile = Tile(index=0, j0=2, j1=5, i0=3, i1=6)
        # Two rows above the top row of cells (j = 0 vs nearest cell j = 2).
        assert tile.distance_to(np.array([0.0]), np.array([4.0]))[0] == 2.0
        # Three columns right of the last cell column (i = 8 vs i1-1 = 5).
        assert tile.distance_to(np.array([3.0]), np.array([8.0]))[0] == 3.0
        # Diagonal corner: nearest cell is (2, 3), point is (0, 0).
        assert tile.distance_to(np.array([0.0]), np.array([0.0]))[
            0
        ] == pytest.approx(np.hypot(2.0, 3.0))


class TestTileDecomposition:
    def test_tile_count_with_ragged_edges(self):
        decomp = TileDecomposition((10, 8), (4, 4))
        assert decomp.n_tiles == 6
        # Edge tiles shrink to the grid boundary.
        last = decomp.tiles[-1]
        assert (last.j0, last.j1, last.i0, last.i1) == (8, 10, 4, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="grid shape"):
            TileDecomposition((0, 8), (4, 4))
        with pytest.raises(ValueError, match="tile shape"):
            TileDecomposition((10, 8), (4, 0))

    def test_cell_tile_map_covers_grid(self):
        decomp = TileDecomposition((7, 5), (3, 2))
        cell_map = decomp.cell_tile_map()
        assert cell_map.shape == (7, 5)
        assert set(np.unique(cell_map)) == set(range(decomp.n_tiles))
        counts = np.bincount(cell_map.ravel(), minlength=decomp.n_tiles)
        assert_array_equal(counts, [t.n_cells for t in decomp.tiles])

    def test_distances_to_matches_per_tile(self):
        """Bit-identical to each tile's own, on grids (4, 3) does and does not divide."""
        rng = np.random.default_rng(0)
        for grid in [(8, 6), (9, 7), (11, 5)]:
            decomp = TileDecomposition(grid, (4, 3))
            jj = np.concatenate([rng.uniform(-2, grid[0] + 2, 40), rng.integers(0, grid[0], 40)])
            ii = np.concatenate([rng.uniform(-2, grid[1] + 2, 40), rng.integers(0, grid[1], 40)])
            stacked = decomp.distances_to(jj, ii)
            assert stacked.shape == (decomp.n_tiles, 80)
            for tile in decomp.tiles:
                assert_array_equal(stacked[tile.index], tile.distance_to(jj, ii))

    def test_single_tile_owns_everything(self):
        decomp = TileDecomposition((6, 4), (100, 100))
        assert decomp.n_tiles == 1
        assert_array_equal(decomp.cell_tile_map(), 0)


class TestStateIndices:
    @pytest.fixture()
    def layout(self):
        return FieldLayout(
            [
                FieldSpec("ssh", (6, 4), scale=1.0),
                FieldSpec("temp", (3, 6, 4), scale=2.0),
            ]
        )

    def test_partition_is_disjoint_and_covering(self, layout):
        decomp = TileDecomposition((6, 4), (4, 3))
        indices = decomp.state_indices(layout)
        assert len(indices) == decomp.n_tiles
        combined = np.concatenate(indices)
        assert combined.size == layout.size
        assert_array_equal(np.sort(combined), np.arange(layout.size))
        for ix in indices:
            assert_array_equal(ix, np.sort(ix))

    def test_ownership_matches_cell_map_at_every_level(self, layout):
        decomp = TileDecomposition((6, 4), (4, 3))
        cell_map = decomp.cell_tile_map()
        owner = np.empty(layout.size, dtype=np.intp)
        for t, ix in enumerate(decomp.state_indices(layout)):
            owner[ix] = t
        # ssh is packed first, then temp's 3 levels; each level repeats
        # the horizontal cell -> tile map.
        expected = np.concatenate([cell_map.ravel()] * 4)
        assert_array_equal(owner, expected)

    def test_rejects_one_dimensional_field(self):
        layout = FieldLayout([FieldSpec("profile", (10,))])
        decomp = TileDecomposition((6, 4), (4, 3))
        with pytest.raises(ValueError, match="rank 1"):
            decomp.state_indices(layout)

    def test_rejects_mismatched_grid(self):
        layout = FieldLayout([FieldSpec("ssh", (5, 5))])
        decomp = TileDecomposition((6, 4), (4, 3))
        with pytest.raises(ValueError, match="grid shape"):
            decomp.state_indices(layout)
