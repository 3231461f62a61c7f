"""Tiled / level-of-detail layout for 2-D forecast-product fields.

The paper's web-distribution step (Fig 1 middle row, Figs 5-6) serves
uncertainty maps and nowcast fields to many readers; a naive server
would re-scan every grid cell per request.  This module precomputes the
two structures that make the read path cheap:

- **Tiles**: the field is cut into fixed-size square tiles whose
  wet-cell statistics (count/min/max/mean/std) are kept as five
  ``(n_tj, n_ti)`` arrays (:func:`tile_statistics`).  A whole-domain
  overview statistic is then an ``O(tiles)`` fold over those arrays --
  never an ``O(cells)`` scan (:meth:`TiledField.domain_summary`); a
  :class:`TileSummary` record is built only for the one tile a tile
  response renders.
- **Levels of detail**: 2-3 factor-of-two mean-pooled downsamples, so a
  "whole-domain overview" image read returns ``cells / 4^L`` values.

Land/masked cells are stored as NaN and excluded from every statistic --
the per-tile ``count`` says how many wet cells contributed, and all-land
tiles summarise as NaN with ``count == 0``.  A published snapshot stores
the five arrays raw beside the levels (:meth:`TiledField.arrays`).

The layout mirrors what downstream *localized* assimilation wants: the
LETKF line of work (Ott et al., PAPERS.md) performs per-tile local
analyses, and per-tile product summaries are exactly the read unit a
tiled analysis will publish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TileSummary:
    """Precomputed statistics of one tile (wet cells only).

    ``tj``/``ti`` index the tile grid (row-major); ``count`` is the
    number of unmasked cells that contributed -- 0 for all-land tiles,
    whose statistics are NaN.
    """

    tj: int
    ti: int
    count: int
    min: float
    max: float
    mean: float
    std: float

    def to_dict(self) -> dict:
        """JSON-ready form (NaN encoded as None)."""

        def enc(x: float):
            return None if np.isnan(x) else float(x)

        return {
            "tj": self.tj,
            "ti": self.ti,
            "count": self.count,
            "min": enc(self.min),
            "max": enc(self.max),
            "mean": enc(self.mean),
            "std": enc(self.std),
        }


def _pad_to_multiple(array: np.ndarray, block: int) -> np.ndarray:
    """Pad a 2-D array with NaN so both dims are multiples of ``block``."""
    ny, nx = array.shape
    py = (-ny) % block
    px = (-nx) % block
    if py == 0 and px == 0:
        return array
    return np.pad(array, ((0, py), (0, px)), constant_values=np.nan)


def downsample(array: np.ndarray) -> np.ndarray:
    """NaN-aware mean pooling by two in both dimensions.

    Cells with no wet contributors pool to NaN (preserving the land
    mask's shape at every level instead of bleeding zeros into it).  A
    block's wet values are summed from 0.0 in row-major order over strided
    views -- the order ``np.sum`` takes over the four cells of a
    factor-two block, so every level is the same bits as that reduction.
    """
    factor = 2
    padded = _pad_to_multiple(np.asarray(array, dtype=np.float64), factor)
    land = np.isnan(padded)
    values = np.where(land, 0.0, padded)  # shape: (ny, nx) # dtype: float64
    wet = ~land
    shape = (padded.shape[0] // factor, padded.shape[1] // factor)
    sums = np.zeros(shape)  # shape: (tj, ti) # dtype: float64
    counts = np.zeros(shape, dtype=np.intp)  # shape: (tj, ti)
    for dy in range(factor):
        for dx in range(factor):
            sums += values[dy::factor, dx::factor]
            counts += wet[dy::factor, dx::factor]
    out = np.full(shape, np.nan)  # shape: (tj, ti)
    pooled = counts > 0
    out[pooled] = sums[pooled] / counts[pooled]
    return out


#: The per-tile statistics, in the order a snapshot stores their arrays.
STATISTICS = ("count", "min", "max", "mean", "std")


def tile_statistics(array: np.ndarray, tile_size: int) -> dict[str, np.ndarray]:
    """Per-tile wet-cell statistics of a 2-D field as ``(n_tj, n_ti)`` arrays.

    Keys are :data:`STATISTICS`; all-land tiles have ``count == 0`` and
    NaN elsewhere.  NaN is marked once; one working copy of the blocks is
    filled with +inf, -inf, then 0 for the min, max and moment reductions.
    """
    if tile_size < 1:
        raise ValueError(f"tile_size must be >= 1, got {tile_size}")
    padded = _pad_to_multiple(np.asarray(array, dtype=np.float64), tile_size)
    n_tj, n_ti = padded.shape[0] // tile_size, padded.shape[1] // tile_size
    blocks = (  # shape: (tj, ti, ?) # dtype: float64
        padded.reshape(n_tj, tile_size, n_ti, tile_size)
        .transpose(0, 2, 1, 3)
        .reshape(n_tj, n_ti, tile_size * tile_size)
    )
    land = np.isnan(blocks)
    counts = blocks.shape[2] - np.count_nonzero(land, axis=2)  # shape: (tj, ti)
    wet = counts > 0
    work = np.where(land, np.inf, blocks)  # shape: (tj, ti, ?) # dtype: float64
    mins = work.min(axis=2)  # shape: (tj, ti) # dtype: float64
    np.copyto(work, -np.inf, where=land)
    maxs = work.max(axis=2)  # shape: (tj, ti) # dtype: float64
    np.copyto(work, 0.0, where=land)
    sums = work.sum(axis=2)  # shape: (tj, ti) # dtype: float64
    sq = (work * work).sum(axis=2)  # shape: (tj, ti) # dtype: float64
    n = np.maximum(counts, 1)  # shape: (tj, ti)
    means = np.where(wet, sums / n, np.nan)  # shape: (tj, ti) # dtype: float64
    variances = np.where(wet, np.maximum(sq / n - means**2, 0.0), np.nan)
    return {
        "count": counts,
        "min": np.where(wet, mins, np.nan),
        "max": np.where(wet, maxs, np.nan),
        "mean": means,
        "std": np.sqrt(variances),
    }


class TiledField:
    """One named 2-D product field with tile statistics and LOD levels.

    Parameters
    ----------
    name:
        Field identifier used in manifests and URLs (``sst_sigma``...).
    data:
        Full-resolution 2-D array; masked cells are NaN.
    tile_size:
        Side of the square tiles the full-resolution field is cut into.
    levels:
        Number of factor-of-two downsampled overview levels (>= 1).

    ``levels[0]`` is the full-resolution array itself; ``level L`` has
    been mean-pooled ``L`` times.  ``statistics`` holds the
    :func:`tile_statistics` arrays of the full resolution.
    """

    def __init__(
        self,
        name: str,
        data: np.ndarray,
        tile_size: int = 8,
        levels: int = 2,
    ):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"field {name!r} must be 2-D, got shape {data.shape}")
        if tile_size < 1:
            raise ValueError(f"tile_size must be >= 1, got {tile_size}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        self.name = name
        self.tile_size = int(tile_size)
        self._levels: list[np.ndarray] = [data]
        for _ in range(levels):
            self._levels.append(downsample(self._levels[-1]))
        self.statistics = tile_statistics(data, tile_size)

    @property
    def shape(self) -> tuple[int, int]:
        """Full-resolution ``(ny, nx)`` shape."""
        return tuple(self._levels[0].shape)

    @property
    def n_levels(self) -> int:
        """Number of stored arrays (full resolution + downsamples)."""
        return len(self._levels)

    @property
    def tile_grid(self) -> tuple[int, int]:
        """Number of tiles ``(n_tj, n_ti)`` covering the full resolution."""
        ny, nx = self.shape
        return (-(-ny // self.tile_size), -(-nx // self.tile_size))

    def level(self, lod: int) -> np.ndarray:
        """The array at LOD ``lod`` (0 = full resolution)."""
        if not 0 <= lod < len(self._levels):
            raise KeyError(
                f"field {self.name!r} has levels 0..{len(self._levels) - 1}, "
                f"got {lod}"
            )
        return self._levels[lod]

    def _check_tile(self, tj: int, ti: int) -> None:
        """KeyError unless ``(tj, ti)`` is on the tile grid."""
        n_tj, n_ti = self.tile_grid
        if not (0 <= tj < n_tj and 0 <= ti < n_ti):
            raise KeyError(
                f"tile ({tj}, {ti}) outside tile grid {self.tile_grid} "
                f"of field {self.name!r}"
            )

    def tile(self, tj: int, ti: int) -> np.ndarray:
        """One full-resolution tile (edge tiles may be smaller)."""
        self._check_tile(tj, ti)
        ts = self.tile_size
        return self._levels[0][tj * ts : (tj + 1) * ts, ti * ts : (ti + 1) * ts]

    def summary(self, tj: int, ti: int) -> TileSummary:
        """The precomputed statistics of one tile, as a record."""
        self._check_tile(tj, ti)
        stats = self.statistics
        return TileSummary(
            tj, ti, int(stats["count"][tj, ti]),
            *(float(stats[key][tj, ti]) for key in STATISTICS[1:]),
        )

    def domain_summary(self) -> dict:
        """Whole-domain min/max/mean/std folded from the tile statistics.

        ``O(tiles)`` instead of ``O(cells)``: means combine count-weighted,
        variances via the pooled second moment.  This is the overview
        statistic the service serves without touching the field arrays.
        The fold is Python ``sum`` over the wet tiles in row-major order.
        """
        wet = self.statistics["count"] > 0
        if not wet.any():
            return {"count": 0, "min": None, "max": None, "mean": None, "std": None}
        counts, mins, maxs, means, stds = (
            self.statistics[key][wet].tolist() for key in STATISTICS
        )
        total = sum(counts)
        mean = sum(c * m for c, m in zip(counts, means)) / total
        second = sum(c * (s**2 + m**2) for c, m, s in zip(counts, means, stds)) / total
        var = max(second - mean**2, 0.0)
        return {
            "count": total,
            "min": float(min(mins)),
            "max": float(max(maxs)),
            "mean": float(mean),
            "std": float(np.sqrt(var)),
        }

    # -- serialization ------------------------------------------------------

    def meta(self) -> dict:
        """JSON-ready metadata (everything except the arrays)."""
        return {
            "name": self.name,
            "shape": list(self.shape),
            "tile_size": self.tile_size,
            "tile_grid": list(self.tile_grid),
            "n_levels": self.n_levels,
            "domain": self.domain_summary(),
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """The payload arrays, keyed the way the store files them: every
        level, then the tile statistics."""
        arrays = {f"{self.name}__L{lod}": level for lod, level in enumerate(self._levels)}
        arrays.update((f"{self.name}__{key}", self.statistics[key]) for key in STATISTICS)
        return arrays

    @classmethod
    def from_payload(cls, meta: dict, arrays: dict[str, np.ndarray]) -> "TiledField":
        """Rebuild a field from its :meth:`meta` plus its stored arrays.

        Levels and tile statistics come from the payload, as stored (views
        stay views), rather than being recomputed, so what is served
        matches what was published exactly.
        """
        name = meta["name"]
        levels = [f"{name}__L{lod}" for lod in range(int(meta["n_levels"]))]
        statistics = [f"{name}__{key}" for key in STATISTICS]
        missing = [k for k in levels + statistics if k not in arrays]
        if missing:
            raise KeyError(f"payload missing arrays {missing} for field {name!r}")
        field = cls.__new__(cls)
        field.name = name
        field.tile_size = int(meta["tile_size"])
        field._levels = [np.asarray(arrays[k], dtype=np.float64) for k in levels]
        grid = tuple(meta["tile_grid"])
        field.statistics = {
            key: arrays[k].reshape(grid) for key, k in zip(STATISTICS, statistics)
        }
        return field
