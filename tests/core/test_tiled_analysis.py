"""Tests for the localized, tiled configuration of the ESSE analysis.

Covers the core contracts of ``TiledESSEAnalysis``:

- reference: with one locale (no decomposition, or one tile with no
  taper) the update equals the dense textbook formula written in
  ``test_assimilation.dense_kalman_update`` -- mean and covariance; the
  two configurations run the same code, so comparing them with each
  other would prove nothing,
- orientation: the posterior modes are a function of the covariance, not
  of the prior's mode signs or the order tiles ran in,
- contraction: with unit inflation the stitched posterior pointwise
  variance never exceeds the prior, for any tiling/taper combination,
- degradation: tiles whose tasks fail terminally keep their prior and
  the analysis raises :class:`DegradedEnsembleWarning`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from repro.core.assimilation import (
    ESSEAnalysis,
    TiledESSEAnalysis,
    run_tiles_serial,
)
from repro.core.localization import (
    AdaptiveInflation,
    CutoffTaper,
    GaspariCohnTaper,
)
from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace
from repro.core.taskmodel import DegradedEnsembleWarning
from repro.obs.operators import Observation, ObservationOperator
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import TraceRecorder
from tests.core.test_assimilation import assert_matches_dense, dense_kalman_update

GRID = (8, 6)


@pytest.fixture()
def layout():
    # A 2-D field and a 2-level 3-D field on the same horizontal grid,
    # with distinct scales so normalization is exercised.
    return FieldLayout(
        [
            FieldSpec("ssh", (*GRID,), scale=0.5),
            FieldSpec("temp", (2, *GRID), scale=2.0),
        ]
    )


def make_subspace(layout, p=6, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((layout.size, p)))
    sigmas = np.linspace(1.0, 0.3, p)
    return ErrorSubspace(modes=q, sigmas=sigmas, n_samples=40)


def make_operator(layout, seed=0, n_obs=12, noise_std=0.2):
    rng = np.random.default_rng(seed)
    ny, nx = GRID
    observations = []
    for _ in range(n_obs):
        field = rng.choice(["ssh", "temp"])
        level = 0 if field == "ssh" else int(rng.integers(0, 2))
        observations.append(
            Observation(
                field=str(field),
                level=level,
                j=int(rng.integers(0, ny)),
                i=int(rng.integers(0, nx)),
                value=float(rng.normal(0.0, 1.0)),
                noise_std=noise_std,
            )
        )
    return ObservationOperator(layout, observations)


def variance_field(layout, subspace):
    """Physical pointwise variance of the subspace covariance."""
    return layout.denormalize(layout.denormalize(subspace.variance_field()))


class TestValidation:
    def test_rejects_bad_energy_floor(self, layout):
        with pytest.raises(ValueError, match="local_energy_floor"):
            TiledESSEAnalysis(layout, GRID, local_energy_floor=1.0)

    def test_rejects_negative_halo(self, layout):
        with pytest.raises(ValueError, match="halo"):
            TiledESSEAnalysis(layout, GRID, halo=-1.0)

    def test_rejects_bad_mean_shape(self, layout):
        engine = TiledESSEAnalysis(layout, GRID)
        with pytest.raises(ValueError, match="forecast mean shape"):
            engine.update(
                np.zeros(3), make_subspace(layout), make_operator(layout)
            )

    def test_rejects_nongridded_layout(self):
        bad = FieldLayout([FieldSpec("profile", (7,))])
        with pytest.raises(ValueError, match="rank 1"):
            TiledESSEAnalysis(bad, GRID)

    def test_runner_length_mismatch_is_an_error(self, layout):
        engine = TiledESSEAnalysis(
            layout, GRID, tile_shape=(4, 3), task_runner=lambda tasks: []
        )
        with pytest.raises(RuntimeError, match="task runner returned"):
            engine.update(
                np.zeros(layout.size), make_subspace(layout), make_operator(layout)
            )


def make_engine(layout, one_tile):
    """The one-locale analysis, configured either way."""
    if one_tile:
        return TiledESSEAnalysis(layout, GRID, tile_shape=(64, 64))
    return ESSEAnalysis(layout)


class TestGlobalEquivalence:
    @pytest.mark.parametrize("one_tile", [False, True], ids=["no-decomposition", "one-tile"])
    @pytest.mark.parametrize(
        "sigmas",
        [np.linspace(1.0, 0.3, 6), np.geomspace(1.0, 1e-6, 6)],
        ids=["flat-spectrum", "sigmas-1e-6-to-1"],
    )
    @pytest.mark.parametrize("n_obs", [12, 3], ids=["m>p", "m<p"])
    def test_one_locale_matches_dense_reference(self, layout, one_tile, sigmas, n_obs):
        prior = make_subspace(layout)
        subspace = ErrorSubspace(modes=prior.modes, sigmas=sigmas, n_samples=40)
        operator = make_operator(layout, n_obs=n_obs)
        mean = np.random.default_rng(3).normal(0.0, 1.0, layout.size)
        result = make_engine(layout, one_tile).update(mean, subspace, operator)
        assert_matches_dense(layout, result, mean, subspace, operator)

    def test_single_tile_no_taper_matches_global(self, layout):
        """One tile, no taper *is* the global configuration: same bits."""
        subspace = make_subspace(layout)
        operator = make_operator(layout)
        mean = np.random.default_rng(3).normal(0.0, 1.0, layout.size)

        global_result = ESSEAnalysis(layout).update(mean, subspace, operator)
        tiled_result = TiledESSEAnalysis(
            layout, GRID, tile_shape=(64, 64)
        ).update(mean, subspace, operator)

        assert_allclose(tiled_result.mean, global_result.mean, rtol=1e-10)
        assert_allclose(
            tiled_result.subspace.sigmas,
            global_result.subspace.sigmas,
            rtol=1e-8,
        )
        # The orientation convention makes even the modes comparable.
        assert_allclose(
            tiled_result.subspace.modes, global_result.subspace.modes, atol=1e-10
        )

    def test_many_tiles_no_taper_same_mean_space(self, layout):
        # Without localization each tile sees every observation, so the
        # tiled mean must still match the global analysis mean exactly
        # (the mean path does not depend on the stitching).
        subspace = make_subspace(layout, seed=5)
        operator = make_operator(layout, seed=5)
        mean = np.zeros(layout.size)
        expected_mean, _ = dense_kalman_update(layout, mean, subspace, operator)
        tiled_result = TiledESSEAnalysis(
            layout, GRID, tile_shape=(3, 2)
        ).update(mean, subspace, operator)
        assert_allclose(tiled_result.mean, expected_mean, rtol=1e-10, atol=1e-13)


class TestOrientation:
    """Posterior modes are oriented: largest-magnitude entry positive."""

    ENGINES = {
        "global": lambda layout, **kw: ESSEAnalysis(layout),
        "tiled": lambda layout, **kw: TiledESSEAnalysis(
            layout, GRID, tile_shape=(4, 3), taper=GaspariCohnTaper(6.0), **kw
        ),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_largest_entry_positive(self, layout, engine):
        result = self.ENGINES[engine](layout).update(
            np.zeros(layout.size), make_subspace(layout), make_operator(layout)
        )
        modes = result.subspace.modes
        peak = modes[np.argmax(np.abs(modes), axis=0), np.arange(modes.shape[1])]
        assert np.all(peak > 0)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_prior_mode_signs_do_not_reach_the_posterior(self, layout, engine):
        """The same covariance written with flipped mode signs: same modes."""
        subspace = make_subspace(layout, seed=12)
        flips = np.random.default_rng(12).choice([-1.0, 1.0], subspace.rank)
        assert np.any(flips < 0)
        flipped = ErrorSubspace(
            modes=subspace.modes * flips, sigmas=subspace.sigmas, n_samples=40
        )
        operator = make_operator(layout, seed=12)
        mean = np.zeros(layout.size)
        one = self.ENGINES[engine](layout).update(mean, subspace, operator)
        other = self.ENGINES[engine](layout).update(mean, flipped, operator)
        assert_allclose(other.subspace.modes, one.subspace.modes, atol=1e-10)
        assert_allclose(other.subspace.sigmas, one.subspace.sigmas, rtol=1e-10)
        assert_allclose(other.mean, one.mean, atol=1e-12)

    def test_tile_order_does_not_reach_the_posterior(self, layout):
        """Tiles run last-to-first give the same modes, sign included."""

        def last_first(tasks):
            return run_tiles_serial(tasks[::-1])[::-1]

        subspace = make_subspace(layout, seed=13)
        operator = make_operator(layout, seed=13)
        mean = np.zeros(layout.size)
        forward = self.ENGINES["tiled"](layout).update(mean, subspace, operator)
        backward = self.ENGINES["tiled"](layout, task_runner=last_first).update(
            mean, subspace, operator
        )
        assert_allclose(backward.subspace.modes, forward.subspace.modes, atol=1e-10)
        assert_allclose(backward.mean, forward.mean, atol=1e-12)


class TestVarianceContraction:
    @pytest.mark.parametrize(
        "taper,tile_shape",
        [
            (None, (4, 3)),
            (GaspariCohnTaper(radius=5.0), (4, 3)),
            (CutoffTaper(radius=4.0), (2, 2)),
        ],
    )
    def test_pointwise_variance_never_grows(self, layout, taper, tile_shape):
        subspace = make_subspace(layout, seed=7)
        operator = make_operator(layout, seed=7, n_obs=16)
        prior_var = variance_field(layout, subspace)
        result = TiledESSEAnalysis(
            layout, GRID, tile_shape=tile_shape, taper=taper
        ).update(np.zeros(layout.size), subspace, operator)
        post_var = variance_field(layout, result.subspace)
        assert np.all(post_var <= prior_var * (1.0 + 1e-9) + 1e-12)

    def test_posterior_modes_orthonormal(self, layout):
        subspace = make_subspace(layout, seed=2)
        result = TiledESSEAnalysis(
            layout, GRID, tile_shape=(4, 3), taper=GaspariCohnTaper(6.0)
        ).update(np.zeros(layout.size), subspace, make_operator(layout, seed=2))
        modes = result.subspace.modes
        assert_allclose(modes.T @ modes, np.eye(modes.shape[1]), atol=1e-9)
        assert np.all(np.diff(result.subspace.sigmas) <= 1e-12)

    def test_energy_floor_truncates_but_stays_contracted(self, layout):
        subspace = make_subspace(layout, seed=9)
        operator = make_operator(layout, seed=9)
        prior_var = variance_field(layout, subspace)
        result = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(2, 2),
            taper=GaspariCohnTaper(4.0),
            local_energy_floor=0.05,
        ).update(np.zeros(layout.size), subspace, operator)
        post_var = variance_field(layout, result.subspace)
        assert np.all(post_var <= prior_var * (1.0 + 1e-9) + 1e-12)

    def test_adaptive_inflation_may_exceed_prior(self, layout):
        # Documented caveat: the contraction bound is relative to the
        # *inflated* prior; adaptive inflation can raise posterior
        # variance above the uninflated prior by design.
        subspace = make_subspace(layout, seed=11)
        subspace = ErrorSubspace(
            modes=subspace.modes,
            sigmas=subspace.sigmas * 0.05,  # overconfident prior
            n_samples=subspace.n_samples,
        )
        operator = make_operator(layout, seed=11, n_obs=20)
        result = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(4, 3),
            inflation=AdaptiveInflation(min_factor=1.0, max_factor=2.0),
        ).update(np.zeros(layout.size), subspace, operator)
        prior_var = variance_field(layout, subspace)
        post_var = variance_field(layout, result.subspace)
        assert np.any(post_var > prior_var)


class TestLocalization:
    def test_far_tiles_skipped_and_unchanged(self, layout):
        # All observations in the top-left corner with a tight cutoff:
        # the far corner tile selects nothing, keeps its prior mean, and
        # is counted as skipped.
        observations = [
            Observation(
                field="ssh", level=0, j=0, i=0, value=5.0, noise_std=0.1
            ),
            Observation(
                field="ssh", level=0, j=1, i=1, value=5.0, noise_std=0.1
            ),
        ]
        operator = ObservationOperator(layout, observations)
        subspace = make_subspace(layout, seed=4)
        metrics = MetricsRegistry()
        engine = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(4, 3),
            taper=CutoffTaper(radius=2.0),
            metrics=metrics,
        )
        mean = np.ones(layout.size)
        result = engine.update(mean, subspace, operator)
        far = engine.decomposition.tiles[-1]
        assert far.distance_to(np.array([0.0]), np.array([0.0]))[0] > 2.0
        owned = engine._tile_indices[far.index]
        assert_allclose(result.mean[owned], mean[owned])
        assert metrics.counter("analysis.tiles_skipped", kind="tile").value >= 1

    def test_telemetry_span_records_tiling(self, layout):
        recorder = TraceRecorder()
        engine = TiledESSEAnalysis(
            layout, GRID, tile_shape=(4, 3), telemetry=recorder
        )
        engine.update(
            np.zeros(layout.size), make_subspace(layout), make_operator(layout)
        )
        spans = [s for s in recorder.spans() if s.name == "analysis.update"]
        assert len(spans) == 1
        attrs = dict(spans[0].attrs)
        assert attrs["tiles"] == engine.decomposition.n_tiles
        assert attrs["updated"] + attrs["skipped"] == engine.decomposition.n_tiles
        assert attrs["degraded"] == 0

    def test_global_configuration_records_one_locale(self, layout):
        recorder = TraceRecorder()
        engine = ESSEAnalysis(layout)
        engine.telemetry = recorder
        operator = make_operator(layout)
        engine.update(np.zeros(layout.size), make_subspace(layout), operator)
        (span,) = [s for s in recorder.spans() if s.name == "analysis.update"]
        attrs = dict(span.attrs)
        assert (attrs["tiles"], attrs["updated"], attrs["skipped"]) == (1, 1, 0)
        assert (attrs["rank"], attrs["obs"], attrs["degraded"]) == (6, operator.size, 0)


class TestDegradation:
    def test_all_tiles_failed_keeps_prior(self, layout):
        subspace = make_subspace(layout, seed=6)
        operator = make_operator(layout, seed=6)
        mean = np.random.default_rng(6).normal(0.0, 1.0, layout.size)
        engine = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(4, 3),
            task_runner=lambda tasks: [None] * len(tasks),
        )
        with pytest.warns(DegradedEnsembleWarning, match="kept their prior"):
            result = engine.update(mean, subspace, operator)
        assert_allclose(result.mean, mean)
        assert_allclose(result.subspace.sigmas, subspace.sigmas, rtol=1e-10)
        assert_allclose(
            variance_field(layout, result.subspace),
            variance_field(layout, subspace),
            rtol=1e-9,
            atol=1e-13,
        )

    def test_failed_global_locale_keeps_prior(self, layout):
        """The global analysis is one locale; losing it loses the update."""
        subspace = make_subspace(layout, seed=6)
        mean = np.random.default_rng(6).normal(0.0, 1.0, layout.size)
        engine = ESSEAnalysis(layout)
        engine.task_runner = lambda tasks: [None] * len(tasks)
        with pytest.warns(DegradedEnsembleWarning, match="1 tile"):
            result = engine.update(mean, subspace, make_operator(layout, seed=6))
        assert_allclose(result.mean, mean)
        assert_allclose(result.subspace.sigmas, subspace.sigmas, rtol=1e-10)

    def test_partial_failure_updates_surviving_tiles_only(self, layout):
        subspace = make_subspace(layout, seed=8)
        operator = make_operator(layout, seed=8, n_obs=20)
        mean = np.zeros(layout.size)

        def drop_first(tasks):
            results = run_tiles_serial(tasks)
            results[0] = None
            return results

        metrics = MetricsRegistry()
        engine = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(4, 3),
            task_runner=drop_first,
            metrics=metrics,
        )
        with pytest.warns(DegradedEnsembleWarning, match="1 tile"):
            result = engine.update(mean, subspace, operator)
        # The degraded tile keeps its prior mean; with no taper every
        # tile has observations, so the first task is tile 0.
        owned = engine._tile_indices[0]
        assert_allclose(result.mean[owned], mean[owned])
        others = np.setdiff1d(np.arange(layout.size), owned)
        assert np.any(result.mean[others] != 0.0)
        assert metrics.counter("analysis.tiles_degraded", kind="tile").value == 1
        assert (
            metrics.counter("analysis.tiles_updated", kind="tile").value
            == engine.decomposition.n_tiles - 1
        )


class TestPropertyInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        one_tile=st.booleans(),
        n_obs=st.integers(1, 14),
        rank=st.integers(1, 8),
        decades=st.floats(0.0, 6.0),
    )
    def test_one_locale_matches_dense_reference(
        self, seed, one_tile, n_obs, rank, decades
    ):
        layout = FieldLayout(
            [
                FieldSpec("ssh", (*GRID,), scale=0.5),
                FieldSpec("temp", (2, *GRID), scale=2.0),
            ]
        )
        modes = make_subspace(layout, p=rank, seed=seed).modes
        subspace = ErrorSubspace(
            modes=modes, sigmas=np.geomspace(1.0, 10.0**-decades, rank), n_samples=40
        )
        operator = make_operator(layout, seed=seed, n_obs=n_obs)
        mean = np.random.default_rng(seed).normal(0.0, 1.0, layout.size)
        result = make_engine(layout, one_tile).update(mean, subspace, operator)
        assert_matches_dense(layout, result, mean, subspace, operator)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tile_ny=st.integers(1, 8),
        tile_nx=st.integers(1, 6),
        radius=st.floats(1.5, 10.0),
        floor=st.sampled_from([0.0, 0.02, 0.1]),
    )
    def test_contraction_and_orthonormality(
        self, seed, tile_ny, tile_nx, radius, floor
    ):
        layout = FieldLayout(
            [
                FieldSpec("ssh", (*GRID,), scale=0.5),
                FieldSpec("temp", (2, *GRID), scale=2.0),
            ]
        )
        subspace = make_subspace(layout, seed=seed)
        operator = make_operator(layout, seed=seed, n_obs=10)
        result = TiledESSEAnalysis(
            layout,
            GRID,
            tile_shape=(tile_ny, tile_nx),
            taper=GaspariCohnTaper(radius),
            local_energy_floor=floor,
        ).update(np.zeros(layout.size), subspace, operator)
        prior_var = variance_field(layout, subspace)
        post_var = variance_field(layout, result.subspace)
        assert np.all(post_var <= prior_var * (1.0 + 1e-9) + 1e-12)
        modes = result.subspace.modes
        assert_allclose(modes.T @ modes, np.eye(modes.shape[1]), atol=1e-8)
