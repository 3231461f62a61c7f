"""Rectangular tile decomposition of the analysis grid.

The tiled analysis (:class:`repro.core.assimilation.TiledESSEAnalysis`)
partitions the horizontal ``(ny, nx)`` grid into rectangular tiles; each
tile *owns* the state entries whose horizontal cell falls inside its
rectangle (every depth level of every field), updates them from the
observations inside the tile plus a halo, and the owned index sets are a
disjoint cover of the packed state vector -- so recombining per-tile
results never writes a state entry twice.

Distances are Euclidean in grid cells from an observation's cell to the
nearest cell of the tile rectangle (zero for observations inside the
tile), which is what the tapers in :mod:`repro.core.localization` expect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.state import FieldLayout


@dataclass(frozen=True)
class Tile:
    """One rectangular tile ``[j0:j1, i0:i1)`` of the analysis grid."""

    index: int
    j0: int
    j1: int
    i0: int
    i1: int

    def __post_init__(self):
        if self.j0 < 0 or self.i0 < 0 or self.j1 <= self.j0 or self.i1 <= self.i0:
            raise ValueError(
                f"invalid tile bounds [{self.j0}:{self.j1}, {self.i0}:{self.i1})"
            )

    @property
    def n_cells(self) -> int:
        """Number of horizontal grid cells the tile owns."""
        return (self.j1 - self.j0) * (self.i1 - self.i0)

    def distance_to(self, jj: np.ndarray, ii: np.ndarray) -> np.ndarray:
        """Euclidean grid-cell distance from points to the tile rectangle.

        ``jj`` / ``ii`` are (arrays of) row / column coordinates; the
        distance is to the nearest *cell* of the tile (cells ``j0..j1-1``),
        zero inside it.
        """
        jj = np.asarray(jj, dtype=np.float64)
        ii = np.asarray(ii, dtype=np.float64)
        dj = np.maximum(np.maximum(self.j0 - jj, jj - (self.j1 - 1)), 0.0)
        di = np.maximum(np.maximum(self.i0 - ii, ii - (self.i1 - 1)), 0.0)
        return np.hypot(dj, di)


class TileDecomposition:
    """A disjoint cover of the ``(ny, nx)`` grid by rectangular tiles.

    Parameters
    ----------
    grid_shape:
        Horizontal grid shape ``(ny, nx)``.
    tile_shape:
        Nominal tile shape ``(tile_ny, tile_nx)``; edge tiles are
        smaller when the grid does not divide evenly.

    Examples
    --------
    >>> decomp = TileDecomposition((10, 8), (4, 4))
    >>> decomp.n_tiles
    6
    """

    def __init__(self, grid_shape: tuple[int, int], tile_shape: tuple[int, int]):
        ny, nx = (int(s) for s in grid_shape)
        tile_ny, tile_nx = (int(s) for s in tile_shape)
        if ny < 1 or nx < 1:
            raise ValueError(f"grid shape must be positive, got {grid_shape}")
        if tile_ny < 1 or tile_nx < 1:
            raise ValueError(f"tile shape must be positive, got {tile_shape}")
        self.grid_shape = (ny, nx)
        self.tile_shape = (tile_ny, tile_nx)
        tiles: list[Tile] = []
        for j0 in range(0, ny, tile_ny):
            for i0 in range(0, nx, tile_nx):
                tiles.append(
                    Tile(
                        index=len(tiles),
                        j0=j0,
                        j1=min(j0 + tile_ny, ny),
                        i0=i0,
                        i1=min(i0 + tile_nx, nx),
                    )
                )
        self.tiles = tuple(tiles)

    @property
    def n_tiles(self) -> int:
        """Number of tiles in the cover."""
        return len(self.tiles)

    def distances_to(self, jj: np.ndarray, ii: np.ndarray) -> np.ndarray:
        """Distances from points to every tile at once, shape ``(n_tiles, m)``.

        Row ``t`` equals ``tiles[t].distance_to(jj, ii)``, bit for bit.
        Tiles in one row band share their row offsets and tiles in one
        column band their column offsets, so the offsets are taken once
        per band, ``(n_bands, m)``, and only the ``hypot`` runs per tile
        (m observations x T tiles is the dominant selection cost).
        """
        (ny, nx), (tile_ny, tile_nx) = self.grid_shape, self.tile_shape
        jj = np.asarray(jj, dtype=np.float64)
        ii = np.asarray(ii, dtype=np.float64)
        j0 = np.arange(0, ny, tile_ny, dtype=np.float64)[:, None]
        i0 = np.arange(0, nx, tile_nx, dtype=np.float64)[:, None]
        j1 = np.minimum(j0 + tile_ny, ny) - 1.0
        i1 = np.minimum(i0 + tile_nx, nx) - 1.0
        dj = np.maximum(np.maximum(j0 - jj, jj - j1), 0.0)  # (row bands, m)
        di = np.maximum(np.maximum(i0 - ii, ii - i1), 0.0)  # (column bands, m)
        # Tiles are numbered row band by row band (``__init__``).
        return np.hypot(dj[:, None], di[None]).reshape(self.n_tiles, jj.size)

    def cell_tile_map(self) -> np.ndarray:
        """The ``(ny, nx)`` array mapping each grid cell to its tile index."""
        out = np.empty(self.grid_shape, dtype=np.intp)
        for tile in self.tiles:
            out[tile.j0 : tile.j1, tile.i0 : tile.i1] = tile.index
        return out

    def state_indices(self, layout: FieldLayout) -> list[np.ndarray]:
        """Packed-state indices owned by each tile, in tile order.

        Every field in the layout must be gridded: a 2-D field of shape
        ``(ny, nx)`` or a 3-D field of shape ``(nz, ny, nx)``.  A tile
        owns an entry when the entry's horizontal cell is inside the
        tile, at every depth level.  The returned index arrays are
        sorted, pairwise disjoint, and together cover ``layout.size``.

        Raises
        ------
        ValueError
            If any field's trailing dimensions are not the grid shape.
        """
        ny, nx = self.grid_shape
        cell_map = self.cell_tile_map().ravel()
        parts: list[list[np.ndarray]] = [[] for _ in range(self.n_tiles)]
        offset = 0
        for spec in layout.specs:
            if len(spec.shape) == 2:
                levels = 1
            elif len(spec.shape) == 3:
                levels = spec.shape[0]
            else:
                raise ValueError(
                    f"field {spec.name!r} has rank {len(spec.shape)}; "
                    "tiling needs 2-D (ny, nx) or 3-D (nz, ny, nx) fields"
                )
            if spec.shape[-2:] != (ny, nx):
                raise ValueError(
                    f"field {spec.name!r} shape {spec.shape} does not end in "
                    f"the grid shape ({ny}, {nx})"
                )
            flat_map = np.tile(cell_map, levels)
            order = np.argsort(flat_map, kind="stable")
            bounds = np.searchsorted(flat_map[order], np.arange(self.n_tiles + 1))
            for t in range(self.n_tiles):
                parts[t].append(offset + order[bounds[t] : bounds[t + 1]])
            offset += spec.size
        return [np.sort(np.concatenate(p)) for p in parts]
