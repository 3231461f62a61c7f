"""Unit tests for the shallow-water dynamics and its operators."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ocean import PEModel, dynamics
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.dynamics import (
    G_REDUCED,
    H0,
    SharedBlock,
    ShallowWaterDynamics,
    ddx,
    ddy,
    laplacian,
    replicate_rim,
    rim_pairs,
)
from repro.ocean.grid import OceanGrid, demo_grid


@pytest.fixture()
def grid():
    return demo_grid(nx=20, ny=18, nz=2)


@pytest.fixture()
def dyn(grid):
    return ShallowWaterDynamics(grid)


class TestOperators:
    def test_ddx_linear_exact(self):
        x = np.arange(10) * 2.0
        fld = np.tile(3.0 * x, (6, 1))
        assert np.allclose(ddx(fld, 2.0), 3.0)

    def test_ddy_linear_exact(self):
        y = np.arange(6)[:, None] * 4.0
        fld = np.tile(0.5 * y, (1, 10))
        assert np.allclose(ddy(fld, 4.0), 0.5)

    def test_ddx_3d_broadcast(self):
        fld = np.random.default_rng(0).random((3, 6, 10))
        out = ddx(fld, 1.0)
        assert out.shape == fld.shape
        for k in range(3):
            assert np.allclose(out[k], ddx(fld[k], 1.0))

    def test_laplacian_quadratic_interior(self):
        x = np.arange(12) * 1.0
        y = np.arange(10)[:, None] * 1.0
        fld = x**2 + y**2
        lap = laplacian(fld, 1.0, 1.0)
        assert np.allclose(lap[2:-2, 2:-2], 4.0)

    def test_laplacian_of_constant_is_zero(self):
        assert np.allclose(laplacian(np.full((8, 8), 7.0), 1.0, 1.0), 0.0)


class TestConstruction:
    def test_wave_speed(self, dyn):
        expected = np.sqrt(G_REDUCED * H0)
        assert dyn.gravity_wave_speed == pytest.approx(expected)

    def test_max_stable_dt_scales_with_spacing(self, grid):
        d1 = ShallowWaterDynamics(grid).max_stable_dt()
        g2 = OceanGrid(
            nx=grid.nx, ny=grid.ny, dx=2 * grid.dx, dy=2 * grid.dy,
            z_levels=grid.z_levels, mask=grid.mask,
        )
        d2 = ShallowWaterDynamics(g2).max_stable_dt()
        assert d2 == pytest.approx(2 * d1)


def workspace(dyn):
    """A single state's step workspace."""
    return dyn.workspace((), SharedBlock())


def constants(dyn, dt):
    """The step constants a model of step ``dt`` builds (sponge included)."""
    return dyn.step_constants(dt, dyn.sponge_factors(dt))


class TestStepDynamics:
    def test_rest_stays_at_rest(self, grid, dyn):
        zeros = np.zeros(grid.shape2d)
        step = constants(dyn, 400.0)
        u, v, eta, deta = dyn.step_dynamics(
            zeros, zeros, zeros, zeros, zeros, step, workspace(dyn)
        )
        assert np.allclose(u, 0) and np.allclose(v, 0) and np.allclose(eta, 0)
        assert np.allclose(deta, 0)

    def test_gravity_wave_stability(self, grid, dyn):
        """Noise-seeded free waves must decay, not grow (FB scheme)."""
        rng = np.random.default_rng(0)
        eta = grid.apply_mask(rng.standard_normal(grid.shape2d) * 1e-2)
        u = np.zeros(grid.shape2d)
        v = np.zeros(grid.shape2d)
        tau = np.zeros(grid.shape2d)
        step = constants(dyn, 400.0)
        work = workspace(dyn)
        amp0 = np.abs(eta).max()
        for _ in range(600):
            u, v, eta, _ = dyn.step_dynamics(u, v, eta, tau, tau, step, work)
            u, v, eta = dyn.enforce_boundaries(u, v, eta, step)
        assert np.all(np.isfinite(eta))
        assert np.abs(eta).max() < 20 * amp0  # bounded (in practice decays)

    def test_wind_accelerates_flow(self, grid, dyn):
        zeros = np.zeros(grid.shape2d)
        tau_x = grid.apply_mask(np.full(grid.shape2d, 0.05))
        step = constants(dyn, 400.0)
        u, v, eta, _ = dyn.step_dynamics(
            zeros, zeros, zeros, tau_x, zeros, step, workspace(dyn)
        )
        assert u[grid.mask].max() > 0

    def test_land_velocity_zeroed_by_boundaries(self, grid, dyn):
        ones = grid.apply_mask(np.ones(grid.shape2d)) + 1.0  # nonzero on land
        u, v, eta = dyn.enforce_boundaries(ones, ones, ones, constants(dyn, 400.0))
        assert np.all(u[~grid.mask] == 0)
        assert np.all(eta[~grid.mask] == 0)

    def test_mass_conservation_without_sponge(self, grid, monkeypatch):
        """Flux-form continuity conserves total volume (no sponge/diffusion)."""
        monkeypatch.setattr(dynamics, "ETA_DIFFUSIVITY", 0.0)
        dyn = ShallowWaterDynamics(grid)
        rng = np.random.default_rng(1)
        eta = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        u = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        v = grid.apply_mask(rng.standard_normal(grid.shape2d) * 0.01)
        tau = np.zeros(grid.shape2d)
        vol0 = eta[grid.mask].sum()
        step = dyn.step_constants(200.0, np.ones(grid.shape2d))  # no sponge
        work = workspace(dyn)
        for _ in range(50):
            u, v, eta, _ = dyn.step_dynamics(u, v, eta, tau, tau, step, work)
            u, v, eta = dyn.enforce_boundaries(u, v, eta, step)
        # interior divergence rearranges mass; edge one-sided stencils leak
        # only marginally
        assert eta[grid.mask].sum() == pytest.approx(vol0, abs=0.05 * max(abs(vol0), 1.0))


@functools.cache
def stirred_state():
    """A model on ``cycle_ref``'s grid and a state one day from rest."""
    model = PEModel(grid=monterey_grid(nx=32, ny=28, nz=4))
    return model, model.run(model.rest_state(), 86400.0)


def step_with_land_eta(land_eta):
    """One ``step_dynamics`` of the stirred state with ``land_eta`` on land."""
    model, state = stirred_state()
    eta = state.eta.copy()
    eta[~model.grid.mask] = land_eta
    tau_x, tau_y = model.forcing.wind_stress(state.time)
    work = workspace(model.dynamics)
    out = model.dynamics.step_dynamics(
        state.u, state.v, eta, tau_x, tau_y, model._constants, work
    )
    return eta, [a.copy() for a in out]


class TestLandEtaNeverReachesTheStep:
    """Why the continuity needs no land fill: every face that touches land
    has a zero diffusion factor, so no finite land value of ``eta`` reaches
    ``deta_dt``, and the pressure gradient reads the filled new ``eta``."""

    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([-0.0, 1e-3, 1.0, 1e3, 1e100]),
    )
    @settings(max_examples=25, deadline=None)
    def test_land_eta_leaves_every_output_bit_unchanged(self, seed, scale):
        model, _ = stirred_state()
        wet = model.grid.mask
        rng = np.random.default_rng(seed)
        _, reference = step_with_land_eta(0.0)
        eta, out = step_with_land_eta(scale * rng.standard_normal((~wet).sum()))
        for name, a, b in zip(("u", "v", "eta", "deta_dt"), out, reference):
            if name == "eta":  # the land value passes through deta_dt = 0
                assert np.array_equal(a[~wet], eta[~wet])
                a, b = a[wet], b[wet]
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


def four_copy_rim(halo):
    """The rim replication before it became two strided copies."""
    for rim, source in (
        (halo[..., 0, 1:-1], halo[..., 1, 1:-1]),
        (halo[..., -1, 1:-1], halo[..., -2, 1:-1]),
        (halo[..., :, 0], halo[..., :, 1]),
        (halo[..., :, -1], halo[..., :, -2]),
    ):
        np.copyto(rim, source)


class TestRimPairs:
    @pytest.mark.parametrize("shape", [(6, 6), (2, 3, 6, 6), (7, 10)])
    def test_two_copies_equal_the_four_copy_order(self, shape):
        """Rows first, so the corners take the source row's end cells."""
        halo = np.random.default_rng(0).standard_normal(shape)
        expected = halo.copy()
        four_copy_rim(expected)
        replicate_rim(rim_pairs(halo))
        assert len(rim_pairs(halo)) == 2
        assert np.array_equal(halo, expected)


class TestSponge:
    def test_factors_in_unit_interval(self, dyn):
        s = dyn.sponge_factors(400.0)
        assert np.all(s > 0) and np.all(s <= 1.0)

    def test_interior_untouched(self, dyn, grid):
        s = dyn.sponge_factors(400.0)
        assert np.all(s[8:10, 8:12] == 1.0)

    def test_stronger_at_rim(self, dyn):
        s = dyn.sponge_factors(400.0)
        assert s[5, 0] < s[5, 3] <= 1.0
