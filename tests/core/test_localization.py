"""Tests for distance tapers, observation selection and inflation models."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from repro.core.localization import (
    AdaptiveInflation,
    CutoffTaper,
    GaspariCohnTaper,
    MultiplicativeInflation,
    make_inflation,
    make_taper,
    observation_coords,
    select_observations,
)
from repro.core.state import FieldLayout, FieldSpec
from repro.obs.operators import Observation, ObservationOperator


class TestGaspariCohnTaper:
    def test_boundary_values(self):
        taper = GaspariCohnTaper(radius=8.0)
        w = taper(np.array([0.0, 8.0, 12.0, 100.0]))
        assert w[0] == 1.0
        assert w[1] == pytest.approx(0.0, abs=1e-12)
        assert w[2] == 0.0
        assert w[3] == 0.0

    def test_monotone_decreasing_on_support(self):
        taper = GaspariCohnTaper(radius=10.0)
        d = np.linspace(0.0, 10.0, 201)
        w = taper(d)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.all((w >= 0.0) & (w <= 1.0))

    def test_halfwidth_value(self):
        # At d == c == radius/2 the polynomial evaluates to
        # -1/4 + 1/2 + 5/8 - 5/3 + 1 = 5/24.
        taper = GaspariCohnTaper(radius=6.0)
        assert taper(np.array([3.0]))[0] == pytest.approx(5.0 / 24.0)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            GaspariCohnTaper(0.0)
        with pytest.raises(ValueError, match="radius"):
            GaspariCohnTaper(-3.0)


class TestCutoffTaper:
    def test_hard_cut(self):
        taper = CutoffTaper(radius=4.0)
        assert_allclose(
            taper(np.array([0.0, 3.999, 4.0, 9.0])), [1.0, 1.0, 0.0, 0.0]
        )

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            CutoffTaper(0.0)


class TestMakeTaper:
    def test_by_name(self):
        assert make_taper("none", 5.0) is None
        assert isinstance(make_taper("gaspari_cohn", 5.0), GaspariCohnTaper)
        assert isinstance(make_taper("cutoff", 5.0), CutoffTaper)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown taper"):
            make_taper("boxcar", 5.0)


class TestObservationCoords:
    @pytest.fixture()
    def operator(self):
        layout = FieldLayout([FieldSpec("ssh", (4, 9)), FieldSpec("temp", (3, 4, 9))])
        return ObservationOperator(
            layout,
            [
                Observation(field="temp", level=2, j=2, i=7, value=1.0, noise_std=0.1),
                Observation(field="ssh", level=0, j=0, i=1, value=0.0, noise_std=0.1),
            ],
        )

    def test_coords_shape_and_order(self, operator):
        coords = observation_coords(operator)
        assert coords.shape == (2, 2) and coords.dtype == np.float64
        assert_array_equal(coords, [[2.0, 7.0], [0.0, 1.0]])  # level ignored

    def test_coords_are_built_once_and_read_only(self, operator):
        coords = observation_coords(operator)
        assert coords is observation_coords(operator)
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 5.0

    def test_empty_operator(self):
        """No operator without observations, so no empty coordinate array."""
        with pytest.raises(ValueError, match="at least one observation"):
            ObservationOperator(FieldLayout([FieldSpec("ssh", (4, 9))]), [])


class TestSelectObservations:
    def test_no_taper_no_cutoff_selects_all(self):
        idx, w = select_observations(np.array([0.0, 5.0, 100.0]))
        assert_allclose(idx, [0, 1, 2])
        assert_allclose(w, 1.0)

    def test_taper_drops_zero_weight(self):
        taper = GaspariCohnTaper(radius=4.0)
        idx, w = select_observations(np.array([0.0, 2.0, 4.0, 10.0]), taper=taper)
        assert_allclose(idx, [0, 1])
        assert w[0] == 1.0
        assert 0.0 < w[1] < 1.0

    def test_cutoff_applies_on_top_of_taper(self):
        taper = GaspariCohnTaper(radius=20.0)
        idx, _ = select_observations(
            np.array([0.0, 3.0, 6.0]), taper=taper, cutoff=5.0
        )
        assert_allclose(idx, [0, 1])

    def test_min_weight_floor(self):
        # Weight 1e-12 would inflate local R by 1e12; it must be dropped.
        taper = lambda d: np.where(d < 1.0, 1.0, 1e-12)  # noqa: E731
        idx, w = select_observations(np.array([0.5, 2.0]), taper=taper)
        assert_allclose(idx, [0])
        assert_allclose(w, [1.0])


class TestInflation:
    def test_multiplicative_constant(self):
        model = MultiplicativeInflation(1.25)
        f = model.factor(
            np.array([1.0]), np.ones((1, 3)), np.ones(3), np.array([0.1])
        )
        assert f == 1.25

    def test_multiplicative_rejects_deflation(self):
        with pytest.raises(ValueError, match="factor"):
            MultiplicativeInflation(0.9)

    def test_adaptive_unit_when_consistent(self):
        # Innovation magnitude matching tr(HPH^T) + tr(R) gives lambda = 1.
        hde = np.array([[2.0, 0.0], [0.0, 1.0]])
        variances = np.array([1.0, 1.0])
        noise_var = np.array([0.5, 0.5])
        signal = np.sum(hde**2 * variances[None, :])  # 5.0
        d = np.sqrt(signal + noise_var.sum()) * np.array([1.0, 0.0])
        f = AdaptiveInflation(min_factor=0.1, max_factor=10.0).factor(
            d, hde, variances, noise_var
        )
        assert f == pytest.approx(1.0)

    def test_adaptive_clips_to_bounds(self):
        hde = np.ones((2, 2))
        variances = np.ones(2)
        noise_var = np.full(2, 0.1)
        model = AdaptiveInflation(min_factor=1.0, max_factor=2.0)
        # Huge innovation -> clipped to max_factor.
        assert model.factor(np.full(2, 1e4), hde, variances, noise_var) == 2.0
        # Tiny innovation -> clipped up to min_factor (never deflate).
        assert model.factor(np.zeros(2), hde, variances, noise_var) == 1.0

    def test_adaptive_degenerate_signal(self):
        model = AdaptiveInflation(min_factor=1.0, max_factor=2.0)
        f = model.factor(
            np.array([3.0]), np.zeros((1, 2)), np.ones(2), np.array([0.1])
        )
        assert f == 1.0
        assert (
            model.factor(np.zeros(0), np.ones((0, 2)), np.ones(2), np.zeros(0))
            == 1.0
        )

    def test_adaptive_rejects_bad_bounds(self):
        with pytest.raises(ValueError, match="min_factor"):
            AdaptiveInflation(min_factor=0.0)
        with pytest.raises(ValueError, match="max_factor"):
            AdaptiveInflation(min_factor=2.0, max_factor=1.0)

    def test_make_inflation(self):
        assert isinstance(
            make_inflation("multiplicative", factor=1.1), MultiplicativeInflation
        )
        adaptive = make_inflation("adaptive", max_factor=3.0)
        assert isinstance(adaptive, AdaptiveInflation)
        assert adaptive.max_factor == 3.0
        with pytest.raises(ValueError, match="unknown inflation"):
            make_inflation("relaxation")
