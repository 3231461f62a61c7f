"""Tiled/LOD field layout: statistics, downsampling, serialization.

The statistics are checked against the per-tile implementation they
replaced, kept below verbatim in its arithmetic (one ``TileSummary`` per
tile, ``nanmin`` / ``nansum`` reductions, the fold over the record list):
the five arrays, every LOD level and the domain summary must be
bit-identical to it.
"""

import json

import numpy as np
import pytest

from repro.products.tiles import (
    STATISTICS,
    TiledField,
    TileSummary,
    downsample,
    tile_statistics,
)
from tests.products.conftest import make_field

# -- the old per-tile implementation -----------------------------------------


def ref_blocked(array, block):
    """``(tj, ti, block*block)`` blocks of the NaN-padded array."""
    array = np.asarray(array, dtype=np.float64)
    ny, nx = array.shape
    py, px = (-ny) % block, (-nx) % block
    if py or px:
        array = np.pad(array, ((0, py), (0, px)), constant_values=np.nan)
    ny, nx = array.shape
    return (
        array.reshape(ny // block, block, nx // block, block)
        .transpose(0, 2, 1, 3)
        .reshape(ny // block, nx // block, block * block)
    )


def ref_downsample(array, factor=2):
    blocks = ref_blocked(array, factor)
    counts = np.sum(~np.isnan(blocks), axis=2)
    sums = np.nansum(blocks, axis=2)
    out = np.full(counts.shape, np.nan)
    wet = counts > 0
    out[wet] = sums[wet] / counts[wet]
    return out


def ref_tile_summaries(array, tile_size):
    blocks = ref_blocked(array, tile_size)
    counts = np.sum(~np.isnan(blocks), axis=2)
    wet = counts > 0
    with np.errstate(invalid="ignore"):
        mins = np.where(wet, np.nanmin(np.where(np.isnan(blocks), np.inf, blocks), axis=2), np.nan)
        maxs = np.where(wet, np.nanmax(np.where(np.isnan(blocks), -np.inf, blocks), axis=2), np.nan)
        sums = np.nansum(blocks, axis=2)
        means = np.where(wet, sums / np.maximum(counts, 1), np.nan)
        sq = np.nansum(blocks**2, axis=2)
        variances = np.where(
            wet, np.maximum(sq / np.maximum(counts, 1) - means**2, 0.0), np.nan
        )
    stds = np.sqrt(variances)
    summaries = []
    n_tj, n_ti = counts.shape
    for tj in range(n_tj):
        for ti in range(n_ti):
            summaries.append(
                TileSummary(
                    tj=tj,
                    ti=ti,
                    count=int(counts[tj, ti]),
                    min=float(mins[tj, ti]),
                    max=float(maxs[tj, ti]),
                    mean=float(means[tj, ti]),
                    std=float(stds[tj, ti]),
                )
            )
    return summaries


def ref_domain_summary(summaries):
    wet = [s for s in summaries if s.count > 0]
    if not wet:
        return {"count": 0, "min": None, "max": None, "mean": None, "std": None}
    total = sum(s.count for s in wet)
    mean = sum(s.count * s.mean for s in wet) / total
    second = sum(s.count * (s.std**2 + s.mean**2) for s in wet) / total
    var = max(second - mean**2, 0.0)
    return {
        "count": total,
        "min": float(min(s.min for s in wet)),
        "max": float(max(s.max for s in wet)),
        "mean": float(mean),
        "std": float(np.sqrt(var)),
    }


def as_arrays(summaries, grid):
    """The per-tile records as the five ``(n_tj, n_ti)`` arrays."""
    return {
        key: np.array([getattr(s, key) for s in summaries]).reshape(grid)
        for key in STATISTICS
    }


def even_field():
    """32 x 48 cut exactly by 8-cell tiles, land in a corner and a block.

    Magnitudes span 18 decades, so any change of summation order shows.
    """
    scale = 10.0 ** np.random.default_rng(4).integers(-6, 12, (32, 48))
    field = (10.0 + make_field(3, (32, 48))) * scale
    field[20:, 40:] = np.nan
    return field


REFERENCE_FIELDS = {
    "even": (even_field, 8),
    "edge-tiles": (lambda: make_field(5, (37, 29)), 8),  # 5 x 4 tiles, ragged edges
    "all-land": (lambda: np.full((12, 20), np.nan), 8),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_FIELDS))
class TestAgainstPerTileReference:
    def test_statistics_levels_and_domain_are_bit_identical(self, case):
        make, ts = REFERENCE_FIELDS[case]
        data = make()
        tf = TiledField(case, data, tile_size=ts, levels=3)
        ref = ref_tile_summaries(data, ts)
        expected = as_arrays(ref, tf.tile_grid)
        for key in STATISTICS:
            assert tf.statistics[key].shape == tf.tile_grid
            assert np.array_equal(tf.statistics[key], expected[key], equal_nan=True), key
        level = data
        for lod in range(tf.n_levels):
            assert np.array_equal(tf.level(lod), level, equal_nan=True), lod
            level = ref_downsample(level)
        assert tf.domain_summary() == ref_domain_summary(ref)
        n_tj, n_ti = tf.tile_grid
        for tj in range(n_tj):
            for ti in range(n_ti):
                assert tf.summary(tj, ti).to_dict() == ref[tj * n_ti + ti].to_dict()

    def test_payload_round_trip_is_exact(self, case):
        make, ts = REFERENCE_FIELDS[case]
        tf = TiledField(case, make(), tile_size=ts, levels=3)
        meta = json.loads(json.dumps(tf.meta(), allow_nan=False))  # as the header
        back = TiledField.from_payload(meta, tf.arrays())
        for key in STATISTICS:
            assert back.statistics[key].dtype == tf.statistics[key].dtype
            assert np.array_equal(back.statistics[key], tf.statistics[key], equal_nan=True)
        for lod in range(tf.n_levels):
            assert np.array_equal(back.level(lod), tf.level(lod), equal_nan=True)
        assert back.domain_summary() == tf.domain_summary()


class TestTileSummary:
    def test_round_trip(self, field):
        # a tile's record survives the stored statistics unchanged
        tf = TiledField("sst", field, tile_size=8)
        back = TiledField.from_payload(json.loads(json.dumps(tf.meta())), tf.arrays())
        assert back.summary(1, 2) == tf.summary(1, 2)
        assert back.summary(0, 0).to_dict() == tf.summary(0, 0).to_dict()

    def test_nan_encodes_as_none(self):
        nan = float("nan")
        s = TileSummary(tj=0, ti=0, count=0, min=nan, max=nan, mean=nan, std=nan)
        d = s.to_dict()
        assert d["min"] is None and d["std"] is None
        tf = TiledField("land", np.full((4, 4), nan), tile_size=4)
        assert tf.summary(0, 0).to_dict() == {
            "tj": 0, "ti": 0, "count": 0, "min": None, "max": None, "mean": None,
            "std": None,
        }
        stored = tf.arrays()  # as a snapshot stores them: count 0, NaN elsewhere
        assert stored["land__count"].tolist() == [[0]]
        assert all(np.isnan(stored[f"land__{key}"]).all() for key in STATISTICS[1:])


class TestDownsample:
    def test_factor_two_mean_pooling(self):
        a = np.array([[1.0, 3.0], [5.0, 7.0]])
        assert downsample(a).tolist() == [[4.0]]

    def test_nan_aware_partial_blocks(self):
        a = np.array([[1.0, np.nan], [3.0, np.nan]])
        assert downsample(a).tolist() == [[2.0]]

    def test_all_land_block_stays_nan(self):
        a = np.full((2, 4), np.nan)
        a[:, 2:] = 1.0
        out = downsample(a)
        assert np.isnan(out[0, 0])
        assert out[0, 1] == 1.0

    def test_odd_shapes_pad_with_nan(self):
        # 3x3 pools to 2x2; the padded cells never contribute
        a = np.ones((3, 3))
        out = downsample(a)
        assert out.shape == (2, 2)
        assert np.all(out == 1.0)


class TestTileSummaries:
    def test_matches_naive_per_tile_stats(self, field):
        ts = 8
        stats = tile_statistics(field, ts)
        ny, nx = field.shape
        for tj in range(-(-ny // ts)):
            for ti in range(-(-nx // ts)):
                tile = field[tj * ts : (tj + 1) * ts, ti * ts : (ti + 1) * ts]
                wet = tile[~np.isnan(tile)]
                s = {key: stats[key][tj, ti] for key in STATISTICS}
                assert s["count"] == wet.size
                if wet.size:
                    assert s["min"] == pytest.approx(wet.min())
                    assert s["max"] == pytest.approx(wet.max())
                    assert s["mean"] == pytest.approx(wet.mean())
                    assert s["std"] == pytest.approx(wet.std(), abs=1e-12)
                else:
                    assert np.isnan(s["mean"])

    def test_all_land_tile_counts_zero(self):
        a = np.full((4, 4), np.nan)
        stats = tile_statistics(a, 4)
        assert stats["count"].tolist() == [[0]]
        assert np.isnan(stats["min"][0, 0]) and np.isnan(stats["std"][0, 0])

    def test_tile_size_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            tile_statistics(np.ones((2, 2)), 0)


class TestTiledField:
    def test_shape_levels_and_tile_grid(self, field):
        tf = TiledField("sst", field, tile_size=8, levels=2)
        assert tf.shape == field.shape
        assert tf.n_levels == 3  # full res + 2 downsamples
        assert tf.tile_grid == (3, 3)  # ceil(20/8), ceil(24/8)
        assert tf.level(1).shape == (10, 12)
        assert tf.level(2).shape == (5, 6)

    def test_level_bounds(self, field):
        tf = TiledField("sst", field)
        with pytest.raises(KeyError, match="levels 0"):
            tf.level(99)

    def test_tile_slicing_and_summary_lookup(self, field):
        tf = TiledField("sst", field, tile_size=8)
        tile = tf.tile(2, 2)
        assert tile.shape == (4, 8)  # edge tile is smaller
        np.testing.assert_array_equal(tile, field[16:20, 16:24])
        s = tf.summary(1, 2)
        assert (s.tj, s.ti) == (1, 2)
        with pytest.raises(KeyError, match="outside tile grid"):
            tf.tile(3, 0)
        with pytest.raises(KeyError, match="outside tile grid"):
            tf.summary(0, 3)

    def test_domain_summary_matches_direct_scan(self, field):
        tf = TiledField("sst", field, tile_size=8)
        wet = field[~np.isnan(field)]
        domain = tf.domain_summary()
        assert domain["count"] == wet.size
        assert domain["min"] == pytest.approx(wet.min())
        assert domain["max"] == pytest.approx(wet.max())
        assert domain["mean"] == pytest.approx(wet.mean())
        assert domain["std"] == pytest.approx(wet.std(), rel=1e-9)

    def test_all_land_domain_summary(self):
        tf = TiledField("land", np.full((8, 8), np.nan))
        assert tf.domain_summary() == {
            "count": 0, "min": None, "max": None, "mean": None, "std": None,
        }

    def test_payload_round_trip(self, field):
        tf = TiledField("sst", field, tile_size=8, levels=2)
        back = TiledField.from_payload(tf.meta(), tf.arrays())
        assert back.name == tf.name
        assert back.tile_size == tf.tile_size
        for key in STATISTICS:
            assert np.array_equal(back.statistics[key], tf.statistics[key], equal_nan=True)
        for lod in range(tf.n_levels):
            np.testing.assert_array_equal(back.level(lod), tf.level(lod))

    def test_payload_missing_array_rejected(self, field):
        tf = TiledField("sst", field)
        arrays = tf.arrays()
        arrays.pop("sst__L1")
        with pytest.raises(KeyError, match="sst__L1"):
            TiledField.from_payload(tf.meta(), arrays)

    def test_constructor_validation(self, field):
        with pytest.raises(ValueError, match="2-D"):
            TiledField("bad", np.ones(5))
        with pytest.raises(ValueError, match="tile_size"):
            TiledField("bad", field, tile_size=0)
        with pytest.raises(ValueError, match="levels"):
            TiledField("bad", field, levels=0)
