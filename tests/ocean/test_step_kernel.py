"""The fused step kernel against the formulas it replaced.

The reference below is the previous implementation kept verbatim in its
arithmetic: pad-based Laplacian, three-slice ``ddx`` / ``ddy``,
``np.where`` masks, dense :class:`LandFiller` sums and the five separate
noise scalings per step.  The kernel must agree with it to round-off and
stay bit-for-bit identical between batched and serial stepping.

The noise is drawn in the field's own basis (``Y^T Z X``), which is another
random stream than filtering one white deviate per grid point, so the old
complex-FFT filter survives here as the reference for the *law*: the
synthesis has its covariance.  The noisy step is compared with the old step
fed the same increments, and the increments with the old scalings applied
to the same unit fields.
"""

import numpy as np
import pytest

from repro.ocean import PEModel, StochasticForcing
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.dynamics import RHO0
from repro.ocean.grid import demo_grid
from repro.ocean.model import EnsembleState, ModelState
from repro.ocean.stochastic import BatchedStochasticForcing
from repro.util.randomfields import GaussianRandomField2D

FIELDS = ("u", "v", "eta", "temp", "salt")
TOLERANCE = 1e-12  # relative, set beforehand: ~50 steps x a few ulp of float64

GRIDS = {
    "monterey": lambda: monterey_grid(nx=24, ny=20, nz=4),
    "demo": lambda: demo_grid(nx=16, ny=14, nz=3),
    "odd-nx": lambda: monterey_grid(nx=17, ny=14, nz=3),
    "odd-ny": lambda: demo_grid(nx=14, ny=13, nz=2),
}


# -- the old formulas ---------------------------------------------------------


def ref_ddx(fld, dx):
    out = np.empty_like(fld)
    out[..., :, 1:-1] = (fld[..., :, 2:] - fld[..., :, :-2]) / (2.0 * dx)
    out[..., :, 0] = (fld[..., :, 1] - fld[..., :, 0]) / dx
    out[..., :, -1] = (fld[..., :, -1] - fld[..., :, -2]) / dx
    return out


def ref_ddy(fld, dy):
    out = np.empty_like(fld)
    out[..., 1:-1, :] = (fld[..., 2:, :] - fld[..., :-2, :]) / (2.0 * dy)
    out[..., 0, :] = (fld[..., 1, :] - fld[..., 0, :]) / dy
    out[..., -1, :] = (fld[..., -1, :] - fld[..., -2, :]) / dy
    return out


def ref_laplacian(fld, dx, dy):
    padded = np.pad(fld, [(0, 0)] * (fld.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    core = padded[..., 1:-1, 1:-1]
    d2x = (padded[..., 1:-1, 2:] - 2.0 * core + padded[..., 1:-1, :-2]) / dx**2
    d2y = (padded[..., 2:, 1:-1] - 2.0 * core + padded[..., :-2, 1:-1]) / dy**2
    return d2x + d2y


def ref_fill_land(mask, fld):
    wet = mask.astype(float)
    count = np.zeros_like(wet)
    count[1:, :] += wet[:-1, :]
    count[:-1, :] += wet[1:, :]
    count[:, 1:] += wet[:, :-1]
    count[:, :-1] += wet[:, 1:]
    fillable = (~mask) & (count > 0)
    masked = np.where(mask, fld, 0.0)
    neigh_sum = np.zeros_like(masked)
    neigh_sum[..., 1:, :] += masked[..., :-1, :]
    neigh_sum[..., :-1, :] += masked[..., 1:, :]
    neigh_sum[..., :, 1:] += masked[..., :, :-1]
    neigh_sum[..., :, :-1] += masked[..., :, 1:]
    out = np.array(fld, dtype=float, copy=True)
    out[..., fillable] = neigh_sum[..., fillable] / count[fillable]
    return out


def ref_step_dynamics(dyn, u, v, eta, tau_x, tau_y, dt):
    grid = dyn.grid
    dx, dy, mask = grid.dx, grid.dy, grid.mask
    face_x = mask[:, :-1] & mask[:, 1:]
    face_y = mask[:-1, :] & mask[1:, :]
    eta_filled = ref_fill_land(mask, eta)
    h = np.maximum(dyn.h0 + eta, 0.1 * dyn.h0)

    flux_x = 0.5 * (h[..., :, :-1] * u[..., :, :-1] + h[..., :, 1:] * u[..., :, 1:])
    flux_x = np.where(face_x, flux_x, 0.0)
    flux_y = 0.5 * (h[..., :-1, :] * v[..., :-1, :] + h[..., 1:, :] * v[..., 1:, :])
    flux_y = np.where(face_y, flux_y, 0.0)
    kappa = dyn.eta_diffusivity
    flux_x = flux_x - np.where(
        face_x, kappa * (eta_filled[..., :, 1:] - eta_filled[..., :, :-1]) / dx, 0.0
    )
    flux_y = flux_y - np.where(
        face_y, kappa * (eta_filled[..., 1:, :] - eta_filled[..., :-1, :]) / dy, 0.0
    )
    deta_dt = np.zeros_like(h)
    deta_dt[..., :, :-1] -= flux_x / dx
    deta_dt[..., :, 1:] += flux_x / dx
    deta_dt[..., :-1, :] -= flux_y / dy
    deta_dt[..., 1:, :] += flux_y / dy
    deta_dt = np.where(mask, deta_dt, 0.0)
    eta_new = eta + dt * deta_dt

    eta_new_filled = ref_fill_land(mask, eta_new)
    du = (
        -u * ref_ddx(u, dx)
        - v * ref_ddy(u, dy)
        - dyn.g_reduced * ref_ddx(eta_new_filled, dx)
        - dyn.bottom_drag * u
        + dyn.viscosity * ref_laplacian(u, dx, dy)
        + tau_x / (RHO0 * h)
    )
    dv = (
        -u * ref_ddx(v, dx)
        - v * ref_ddy(v, dy)
        - dyn.g_reduced * ref_ddy(eta_new_filled, dy)
        - dyn.bottom_drag * v
        + dyn.viscosity * ref_laplacian(v, dx, dy)
        + tau_y / (RHO0 * h)
    )
    u_star = u + dt * np.where(mask, du, 0.0)
    v_star = v + dt * np.where(mask, dv, 0.0)
    angle = grid.coriolis * dt
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    return (
        cos_a * u_star + sin_a * v_star,
        -sin_a * u_star + cos_a * v_star,
        eta_new,
        deta_dt,
    )


def ref_tendencies(tracers, temp, salt, u, v, deta_dt, heat_flux):
    from repro.ocean.tracers import climatological_profile

    grid = tracers.grid
    dx, dy, mask = grid.dx, grid.dy, grid.mask
    z = np.asarray(grid.z_levels)
    t_prof, s_prof = climatological_profile(z)
    vel_structure = np.exp(-z / tracers.velocity_decay_depth)[:, None, None]
    dtdz = np.gradient(t_prof, z)
    heave_structure = (np.abs(dtdz) / np.max(np.abs(dtdz)))[:, None, None]
    u3 = u[..., None, :, :] * vel_structure
    v3 = v[..., None, :, :] * vel_structure

    def advect_diffuse(c, clim):
        c_filled = ref_fill_land(mask, c)
        adv = -u3 * ref_ddx(c_filled, dx) - v3 * ref_ddy(c_filled, dy)
        diff = tracers.diffusivity * ref_laplacian(c_filled, dx, dy)
        relax = (clim[:, None, None] - c) / tracers.relaxation_time
        return adv + diff + relax

    d_temp = advect_diffuse(temp, t_prof)
    d_salt = advect_diffuse(salt, s_prof)
    heave = tracers.heave_gain * deta_dt[..., None, :, :] * heave_structure
    d_temp = d_temp + heave * 3.5
    d_salt = d_salt - heave * 0.3
    rho_cp = 1025.0 * 3990.0
    d_temp[..., 0, :, :] += heat_flux / (rho_cp * tracers.heat_capacity_depth)
    return np.where(mask, d_temp, 0.0), np.where(mask, d_salt, 0.0)


def ref_filter(shape, length_scale, white):
    """The complex-FFT round trip the noise filter used to make."""
    ky = np.fft.fftfreq(shape[0])[:, None] * 2.0 * np.pi
    kx = np.fft.fftfreq(shape[1])[None, :] * 2.0 * np.pi
    filt = np.exp(-0.5 * (ky**2 + kx**2) * length_scale**2)
    filt = filt / np.sqrt(np.mean(filt**2))
    spectrum = np.fft.fft2(white, axes=(-2, -1)) * filt
    return np.real(np.fft.ifft2(spectrum, axes=(-2, -1)))


def ref_increments(grid, unit, dt, amplitudes=(2.0e-7, 2.0e-5, 2.0e-6)):
    """The five old scalings of unit fields ``unit`` (rows u, v, eta, nz T, nz S)."""
    momentum, eta_amp, tracer = amplitudes
    nz = grid.nz

    def mask(fld):
        return np.where(grid.mask, fld, 0.0)

    scale = momentum * np.sqrt(dt) * dt
    du, dv = mask(scale * unit[0]), mask(scale * unit[1])
    d_eta = mask(eta_amp * np.sqrt(dt) * unit[2])
    z = np.asarray(grid.z_levels)
    depth_decay = np.exp(-z / max(z[-1] * 0.5, 1.0))[:, None, None]
    scale = tracer * np.sqrt(dt)
    d_temp = mask(scale * unit[3 : 3 + nz] * depth_decay)
    d_salt = mask(0.1 * scale * unit[3 + nz :] * depth_decay)
    return du, dv, d_eta, d_temp, d_salt


def ref_step(model, state, noise=None):
    """The old ``PEModel.step`` body; ``noise`` supplies the increment block."""
    dt = model.config.dt
    tau_x, tau_y = model.forcing.wind_stress(state.time)
    heat = model.forcing.heat_flux(state.time)
    u, v, eta, deta_dt = ref_step_dynamics(
        model.dynamics, state.u, state.v, state.eta, tau_x, tau_y, dt
    )
    d_temp, d_salt = ref_tendencies(
        model.tracers, state.temp, state.salt, state.u, state.v, deta_dt, heat
    )
    temp = state.temp + dt * d_temp
    salt = state.salt + dt * d_salt
    if noise is not None:
        block, nz = noise.increments(dt), model.grid.nz
        u, v, eta = u + block[0], v + block[1], eta + block[2]
        temp, salt = temp + block[3 : 3 + nz], salt + block[3 + nz :]
    mask, sponge = model.grid.mask, model._sponge
    u, v, eta = (np.where(mask, f, 0.0) * sponge for f in (u, v, eta))
    return ModelState(u=u, v=v, eta=eta, temp=temp, salt=salt, time=state.time + dt)


# -- helpers ------------------------------------------------------------------


def worst_relative_gap(state, reference) -> float:
    return max(
        np.abs(getattr(state, k) - getattr(reference, k)).max()
        / np.abs(getattr(reference, k)).max()
        for k in FIELDS
    )


def start_states(model, count=3):
    """A stirred state and ``count`` small variations of it."""
    base = model.run(model.rest_state(), 60 * model.config.dt)
    rng = np.random.default_rng(11)
    states = []
    for _ in range(count):
        member = base.copy()
        member.eta = member.eta + 0.05 * model.grid.apply_mask(
            rng.standard_normal(model.grid.shape2d)
        )
        member.temp = member.temp + 0.01 * model.grid.apply_mask(
            rng.standard_normal(model.grid.shape3d)
        )
        states.append(member)
    return states


@pytest.fixture(scope="module", params=list(GRIDS))
def case(request):
    model = PEModel(grid=GRIDS[request.param]())
    return model, start_states(model)


# -- the step -----------------------------------------------------------------


class TestStepEqualsOldFormulas:
    @pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
    @pytest.mark.parametrize("n_steps", [1, 50])
    def test_single_state_and_batch(self, case, noisy, n_steps):
        model, states = case
        seeds = [100 + i for i in range(len(states))]
        references = []
        for state, seed in zip(states, seeds):
            rng = np.random.default_rng(seed)  # the stream the kernel's forcing gets
            twin = StochasticForcing(model.grid, rng=rng) if noisy else None
            for _ in range(n_steps):
                state = ref_step(model, state, twin)
            references.append(state)

        duration = n_steps * model.config.dt
        for state, seed, reference in zip(states, seeds, references):
            noise = StochasticForcing(model.grid, rng=np.random.default_rng(seed))
            member = model.with_noise(noise) if noisy else model
            final = member.run(state, duration)
            assert worst_relative_gap(final, reference) <= TOLERANCE

        noise = BatchedStochasticForcing(
            model.grid, rngs=[np.random.default_rng(s) for s in seeds]
        )
        batch, failed = model.run_ensemble(
            EnsembleState.from_states(states), duration, noise=noise if noisy else None
        )
        assert failed == {}
        for i, reference in enumerate(references):
            assert worst_relative_gap(batch.member(i), reference) <= TOLERANCE

    def test_land_is_exactly_zero_after_a_step(self, case):
        model, states = case
        stepped = model.step(states[0])
        land = ~model.grid.mask
        for name in ("u", "v", "eta"):
            assert np.all(getattr(stepped, name)[land] == 0.0)

    def test_volume_is_conserved(self, case):
        model, states = case
        state = states[0]
        tau_x, tau_y = model.forcing.wind_stress(state.time)
        step = model.dynamics.step_constants(model.config.dt)
        *_, deta_dt = model.dynamics.step_dynamics(
            state.u, state.v, state.eta, tau_x, tau_y, step
        )
        wet = deta_dt[model.grid.mask]
        assert np.abs(wet).max() > 0
        assert abs(wet.sum()) <= 1e-13 * np.abs(wet).sum()
        assert np.all(deta_dt[~model.grid.mask] == 0.0)


class TestLongHorizon:
    """Round-off drift of a regrouped kernel shows over hundreds of steps."""

    def test_two_quiet_days_track_the_old_formulas(self):
        model = PEModel(grid=GRIDS["monterey"]())
        state = start_states(model, count=1)[0]
        n_steps = int(round(2 * 86400.0 / model.config.dt))
        assert n_steps >= 400
        reference = state
        for _ in range(n_steps):
            reference = ref_step(model, reference)
        final = model.run(state, n_steps * model.config.dt)
        assert worst_relative_gap(final, reference) <= TOLERANCE


class TestBlowupInBatch:
    def test_planted_inf_is_reported_as_serial_and_isolated(self, case):
        model, states = case
        duration = 3 * model.config.dt
        bomb = states[0].copy()
        j, i = np.argwhere(model.grid.mask)[0]
        bomb.u[j, i] = np.inf
        with pytest.raises(FloatingPointError) as serial:
            model.run(bomb, duration)
        batch, failed = model.run_ensemble(
            EnsembleState.from_states([states[0], bomb, states[1], states[2]]), duration
        )
        assert failed == {1: f"FloatingPointError: {serial.value}"}
        clean, clean_failed = model.run_ensemble(
            EnsembleState.from_states(states), duration
        )
        assert clean_failed == {}
        for position, twin in ((0, 0), (2, 1), (3, 2)):
            for name in FIELDS:
                assert np.array_equal(
                    getattr(batch, name)[position], getattr(clean, name)[twin]
                )


# -- the noise ----------------------------------------------------------------


class TestFilterWhite:
    """The synthesized field has the law of the old filtered white noise."""

    @pytest.mark.parametrize("shape", [(20, 24), (14, 17), (13, 14), (9, 9)])
    def test_equals_complex_fft_reference(self, shape):
        field = GaussianRandomField2D(shape, 3.0)
        y, x = field.bases
        n = shape[0] * shape[1]
        # the old filter is linear: its matrix is its response to the identity
        old = ref_filter(shape, 3.0, np.eye(n).reshape(n, *shape)).reshape(n, n)
        covariance = np.kron(y.T @ y, x.T @ x)
        assert np.abs(covariance - old @ old.T).max() <= 2e-9
        # one field alone is bit-for-bit its slice of the batch
        white = np.random.default_rng(0).standard_normal(
            (5, 3, *field.coefficient_shape)
        )
        smooth = field.synthesize(white)
        assert smooth.shape == (5, 3, *shape)
        assert np.array_equal(field.synthesize(white[2, 1]), smooth[2, 1])

    def test_unit_pointwise_variance(self):
        y, x = GaussianRandomField2D((13, 17), 2.0).bases
        variance = np.outer((y**2).sum(axis=0), (x**2).sum(axis=0))
        assert np.abs(variance - 1.0).max() <= 1e-12


def member_rngs(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class TestIncrements:
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_batched_slice_is_the_serial_block(self, case, n):
        model, _ = case
        grid, dt = model.grid, model.config.dt
        seeds = [40 + i for i in range(n)]
        batched = BatchedStochasticForcing(grid, rngs=member_rngs(seeds))
        # two steps: the kept coefficient buffer must not leak
        steps = [batched.increments(dt) for _ in range(2)]
        assert steps[0].shape == (n, 3 + 2 * grid.nz, *grid.shape2d)
        for i, seed in enumerate(seeds):
            serial = StochasticForcing(grid, rng=np.random.default_rng(seed))
            for blocks in steps:
                assert np.array_equal(blocks[i], serial.increments(dt))
            # both generators stand at the same point of the stream
            assert np.array_equal(
                serial.rng.standard_normal(4), batched.rngs[i].standard_normal(4)
            )

    def test_member_stream_does_not_depend_on_batch_composition(self, case):
        model, _ = case
        grid, dt = model.grid, model.config.dt
        companies = ([40, 41, 42], [7, 42, 99, 40, 3, 41, 8])
        steps = []
        for seeds in companies:
            forcing = BatchedStochasticForcing(grid, rngs=member_rngs(seeds))
            steps.append([forcing.increments(dt) for _ in range(2)])
        for seed in companies[0]:
            here, there = (seeds.index(seed) for seeds in companies)
            for first, second in zip(*steps):
                assert np.array_equal(first[here], second[there])

    def test_rows_are_the_old_scalings_of_the_members_unit_fields(self, case):
        model, _ = case
        grid, dt, rows = model.grid, model.config.dt, 3 + 2 * model.grid.nz
        serial = StochasticForcing(grid, rng=np.random.default_rng(40))
        twin = np.random.default_rng(40)
        field = GaussianRandomField2D(grid.shape2d, serial.length_scale_cells)
        for _ in range(2):
            block = serial.increments(dt)
            # one draw per step, rows in the order u, v, eta, T, S
            unit = field.synthesize(
                twin.standard_normal((rows, *field.coefficient_shape))
            )
            by_hand = np.concatenate(
                [f.reshape(-1, *grid.shape2d) for f in ref_increments(grid, unit, dt)]
            )
            scale = np.abs(by_hand).max(axis=(1, 2), keepdims=True)
            assert np.all(np.abs(block - by_hand) <= 1e-12 * scale)
            assert np.all(block[:, ~grid.mask] == 0.0)
        assert np.array_equal(serial.rng.standard_normal(4), twin.standard_normal(4))
