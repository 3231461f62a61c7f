"""Unit tests for sections, transmission loss and the acoustic climate."""

import numpy as np
import pytest

from repro.acoustics.environment import AcousticSection, extract_section
from repro.acoustics.tl import TLField, transmission_loss
from repro.acoustics.climate import (
    AcousticClimate,
    AcousticTask,
    acoustic_climate_tasks,
)
from repro.acoustics.coupled import coupled_uncertainty_modes


def iso_section(nr=10, depth=200.0, dz=4.0, length=20000.0):
    depths = np.arange(0.0, depth + dz / 2, dz)
    ranges = np.linspace(0.0, length, nr)
    c = np.full((depths.size, nr), 1500.0)
    t = np.full((depths.size, nr), 10.0)
    return AcousticSection(
        ranges=ranges,
        depths=depths,
        sound_speed=c,
        temperature=t,
        water_depth=np.full(nr, depth),
    )


class TestSectionExtraction:
    def test_shapes(self, small_model, spun_up_state):
        sec = extract_section(
            small_model.grid,
            spun_up_state,
            (5000.0, 30000.0),
            (45000.0, 30000.0),
            n_ranges=12,
            max_depth=150.0,
        )
        assert sec.sound_speed.shape == (sec.depths.size, 12)
        assert sec.length == pytest.approx(40000.0)

    def test_sound_speed_realistic(self, small_model, spun_up_state):
        sec = extract_section(
            small_model.grid,
            spun_up_state,
            (5000.0, 30000.0),
            (45000.0, 30000.0),
            max_depth=150.0,
        )
        assert np.all((1440.0 < sec.sound_speed) & (sec.sound_speed < 1560.0))

    def test_validation(self, small_model, spun_up_state):
        with pytest.raises(ValueError, match="two range"):
            extract_section(
                small_model.grid, spun_up_state, (0.0, 0.0), (1.0, 1.0), n_ranges=1
            )

    def test_section_dataclass_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            AcousticSection(
                ranges=np.array([0.0, 0.0]),
                depths=np.array([0.0, 4.0]),
                sound_speed=np.full((2, 2), 1500.0),
                temperature=np.full((2, 2), 10.0),
                water_depth=np.full(2, 100.0),
            )


class TestTransmissionLoss:
    def test_geometry(self):
        sec = iso_section()
        fld = transmission_loss(sec, 100.0, source_depth=50.0)
        assert fld.tl.shape == (sec.depths.size, sec.ranges.size - 1)
        assert np.all(np.isfinite(fld.tl))

    def test_loss_increases_with_range_on_average(self):
        sec = iso_section(nr=20, length=40000.0)
        fld = transmission_loss(sec, 150.0, source_depth=50.0)
        # modal interference wiggles, but column-mean TL grows with range
        col_mean = fld.tl.mean(axis=0)
        assert col_mean[-1] > col_mean[0]

    def test_cylindrical_spreading_scale(self):
        """In an ideal waveguide TL ~ 10 log r + const (cylindrical)."""
        sec = iso_section(nr=40, length=40000.0)
        fld = transmission_loss(sec, 150.0, source_depth=50.0)
        col_mean = fld.tl.mean(axis=0)
        r = fld.ranges
        slope = np.polyfit(np.log10(r), col_mean, 1)[0]
        assert 5.0 < slope < 20.0

    def test_source_depth_validated(self):
        sec = iso_section()
        with pytest.raises(ValueError, match="source depth"):
            transmission_loss(sec, 100.0, source_depth=500.0)

    def test_source_below_the_seabed_rejected(self):
        """60 m of water over the source: a 150 m source used to give a
        field entirely at the 160 dB floor, with no error."""
        flat = iso_section()
        sec = AcousticSection(
            ranges=flat.ranges,
            depths=flat.depths,
            sound_speed=flat.sound_speed,
            temperature=flat.temperature,
            water_depth=np.full(flat.ranges.size, 60.0),
        )
        with pytest.raises(ValueError, match=r"source depth 150.0 outside waveguide \[0, 60.0\]"):
            transmission_loss(sec, 100.0, source_depth=150.0)
        assert np.all(transmission_loss(sec, 100.0, source_depth=50.0).tl[1:15] < 160.0)

    @pytest.mark.parametrize("max_modes", [0, -2])
    def test_nonpositive_max_modes_rejected(self, max_modes):
        with pytest.raises(ValueError, match="max_modes"):
            transmission_loss(iso_section(), 100.0, source_depth=50.0, max_modes=max_modes)

    def test_tl_positive_beyond_1m(self):
        sec = iso_section()
        fld = transmission_loss(sec, 100.0, source_depth=50.0)
        assert np.all(fld.tl > 20.0)

    def test_field_shape_validation(self):
        with pytest.raises(ValueError, match="tl shape"):
            TLField(
                ranges=np.array([1.0, 2.0]),
                depths=np.array([0.0, 4.0]),
                tl=np.zeros((3, 3)),
                frequency=100.0,
                source_depth=10.0,
            )


class TestAcousticClimate:
    def test_task_enumeration_size(self, small_model):
        tasks = acoustic_climate_tasks(
            small_model.grid, n_slices=4, frequencies=(100.0, 200.0), source_depths=(15.0,)
        )
        assert len(tasks) == 4 * 2 * 1
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_climate_runs_tasks(self, small_model, spun_up_state):
        tasks = acoustic_climate_tasks(
            small_model.grid, n_slices=2, frequencies=(100.0,), source_depths=(30.0,)
        )
        clim = AcousticClimate(small_model.grid, tasks).run(
            spun_up_state, n_ranges=8, max_depth=120.0
        )
        assert clim.completed == len(tasks)
        stats = clim.tl_statistics()
        assert 30.0 < stats["mean"] < 160.0

    def test_failures_tolerated(self, small_model, spun_up_state):
        bad = AcousticTask(
            task_id=0,
            slice_start=(0.0, 0.0),
            slice_end=(1.0, 1.0),
            frequency=-5.0,  # invalid: task fails
            source_depth=30.0,
        )
        clim = AcousticClimate(small_model.grid, [bad]).run(spun_up_state)
        assert clim.completed == 0
        assert 0 in clim.failures
        with pytest.raises(RuntimeError, match="no completed"):
            clim.tl_statistics()

    def test_requires_tasks(self, small_model):
        with pytest.raises(ValueError, match="at least one task"):
            AcousticClimate(small_model.grid, [])


class TestCoupledCovariance:
    def _ensemble(self, n=25, seed=0):
        rng = np.random.default_rng(seed)
        shared = rng.standard_normal((n, 1, 1))
        temps = shared * np.ones((1, 6, 5)) + 0.1 * rng.standard_normal((n, 6, 5))
        tls = 80.0 - 4.0 * shared * np.ones((1, 4, 7)) + 0.1 * rng.standard_normal(
            (n, 4, 7)
        )
        return temps, tls

    def test_dominant_mode_captures_coupling(self):
        temps, tls = self._ensemble()
        cc = coupled_uncertainty_modes(temps, tls)
        # one shared factor dominates: first mode carries most variance
        assert cc.variances[0] / cc.variances.sum() > 0.8
        # and splits energy between both blocks
        frac = cc.coupling_fraction()[0]
        assert 0.2 < frac < 0.8

    def test_cross_covariance_sign(self):
        temps, tls = self._ensemble()
        cc = coupled_uncertainty_modes(temps, tls)
        # warm anomalies -> lower TL (negative cross-covariance)
        assert cc.cross_covariance().mean() < 0

    def test_block_shapes(self):
        temps, tls = self._ensemble()
        cc = coupled_uncertainty_modes(temps, tls)
        assert cc.physical_block().shape[0] == 30
        assert cc.acoustic_block().shape[0] == 28

    def test_validation(self):
        temps, tls = self._ensemble()
        with pytest.raises(ValueError, match="at least 2"):
            coupled_uncertainty_modes(temps[:1], tls[:1])
        with pytest.raises(ValueError, match="members"):
            coupled_uncertainty_modes(temps, tls[:-1])
