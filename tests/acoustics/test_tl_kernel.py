"""The array transmission-loss pass against the per-column code it replaced.

The references below are the previous implementation kept verbatim in its
arithmetic: a section gathered column by column (``nearest_point``, one
Mackenzie call and two ``np.interp`` calls per column), one eigensolve per
column with its own normalization and sign flip, and a range loop that
re-integrates the wavenumbers of all earlier columns at every receiver.

Sections must be bit-identical.  TL must agree to ``RTOL``: the adiabatic
phase is now one cumulative sum over columns, another summation order than
the per-receiver ``np.sum``, and near an interference null ``log10``
amplifies that round-off.  The other parts (norms, signs, modal sum) agree
with the reference to a few ulp.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.acoustics import AcousticSection, acoustic_climate_tasks, extract_section
from repro.acoustics.soundspeed import sound_speed_profile
from repro.acoustics.tl import transmission_loss
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_bathymetry, monterey_grid

RTOL = 1e-10  # relative; measured worst 1.3e-11, at a 124 dB null
FREQUENCIES = (100.0, 200.0, 400.0)
MAX_MODES = (40, None)
TL_FLOOR_DB = 160.0


# -- the old per-column code ------------------------------------------------


def ref_nearest_point(grid, x, y):
    if grid.n_ocean == 0:
        raise ValueError("grid has no ocean points")
    j0 = int(np.clip(round(y / grid.dy), 0, grid.ny - 1))
    i0 = int(np.clip(round(x / grid.dx), 0, grid.nx - 1))
    if grid.mask[j0, i0]:
        return j0, i0
    jj, ii = np.nonzero(grid.mask)
    d2 = (jj - j0) ** 2 * (grid.dy / grid.dx) ** 2 + (ii - i0) ** 2
    k = int(np.argmin(d2))
    return int(jj[k]), int(ii[k])


def ref_extract_section(grid, state, start, end, n_ranges, max_depth, bathymetry=None, dz=4.0):
    z_model = np.asarray(grid.z_levels)
    bottom = float(max_depth)
    depths = np.arange(0.0, bottom + dz / 2, dz)
    fracs = np.linspace(0.0, 1.0, n_ranges)
    xs = start[0] + fracs * (end[0] - start[0])
    ys = start[1] + fracs * (end[1] - start[1])
    ranges = fracs * float(np.hypot(end[0] - start[0], end[1] - start[1]))
    c_cols = np.empty((depths.size, n_ranges))
    t_cols = np.empty((depths.size, n_ranges))
    water_depth = np.full(n_ranges, bottom)
    for k, (x, y) in enumerate(zip(xs, ys)):
        j, i = ref_nearest_point(grid, x, y)
        t_prof = state.temp[:, j, i]
        s_prof = state.salt[:, j, i]
        c_model = sound_speed_profile(t_prof, s_prof, z_model)
        c_cols[:, k] = np.interp(depths, z_model, c_model)
        t_cols[:, k] = np.interp(depths, z_model, t_prof)
        if bathymetry is not None:
            floor = max(float(bathymetry[j, i]), 4 * dz)
            water_depth[k] = min(floor, bottom)
    return AcousticSection(ranges, depths, c_cols, t_cols, water_depth)


def ref_solve_modes(c, z, frequency, max_modes):
    """``(kr, psi)`` of one profile, the previous ``solve_modes``."""
    dz = float(z[1] - z[0])
    k2 = (2.0 * np.pi * frequency / c) ** 2
    n = c.size - 1
    diag = -2.0 / dz**2 + k2[1:]
    off = np.full(n - 1, 1.0 / dz**2)
    diag = diag.copy()
    diag[-1] = -2.0 / dz**2 + k2[-1] + 1.0 / dz**2
    vals, vecs = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stemr")
    keep = (vals > 0.0) & (vals <= float(np.max(k2)))
    vals, vecs = vals[keep], vecs[:, keep]
    if vals.size == 0:
        return np.empty(0), np.empty((c.size, 0))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if max_modes is not None:
        vals, vecs = vals[:max_modes], vecs[:, :max_modes]
    kr = np.sqrt(vals)
    psi = np.zeros((c.size, kr.size))
    psi[1:, :] = vecs
    psi /= np.sqrt(np.trapezoid(psi**2, dx=dz, axis=0))[None, :]
    peak = np.argmax(np.abs(psi), axis=0)
    psi *= np.where(psi[peak, np.arange(kr.size)] < 0, -1.0, 1.0)
    return kr, psi


def ref_transmission_loss(section, frequency, source_depth, max_modes):
    nz_full = section.depths.size
    modes = []
    for r_index in range(section.ranges.size):
        c_prof = section.sound_speed[:, r_index]
        water_depth = float(section.water_depth[r_index])
        n_local = int(np.searchsorted(section.depths, water_depth + 1e-9))
        n_local = max(min(n_local, nz_full), 4)
        kr, psi = ref_solve_modes(
            c_prof[:n_local], section.depths[:n_local], frequency, max_modes
        )
        psi_full = np.zeros((nz_full, kr.size))
        psi_full[:n_local] = psi
        modes.append((kr, psi_full))

    nr = section.ranges.size - 1
    tl = np.full((nz_full, nr), TL_FLOOR_DB)
    kr_src, psi_src = modes[0]
    if kr_src.size == 0:
        return tl
    pos = float(np.interp(source_depth, section.depths, np.arange(nz_full)))
    k = min(int(pos), nz_full - 2)
    w = pos - k
    amp_src = (1.0 - w) * psi_src[k] + w * psi_src[k + 1]
    for col in range(1, section.ranges.size):
        n_common = min(kr.size for kr, _ in modes[: col + 1])
        if n_common == 0:
            continue
        r = float(section.ranges[col])
        kr_path = np.stack([modes[c][0][:n_common] for c in range(col + 1)], axis=1)
        seg = np.diff(section.ranges[: col + 1])
        phase = np.sum(0.5 * (kr_path[:, 1:] + kr_path[:, :-1]) * seg, axis=1)
        kr_here, psi_here = modes[col][0][:n_common], modes[col][1][:, :n_common]
        coeff = amp_src[:n_common] * np.exp(1j * phase) / np.sqrt(kr_here)
        pressure = (psi_here @ coeff) / np.sqrt(8.0 * np.pi * r)
        with np.errstate(divide="ignore"):
            tl_col = -20.0 * np.log10(np.abs(pressure))
        tl[:, col - 1] = np.minimum(
            np.where(np.isfinite(tl_col), tl_col, TL_FLOOR_DB), TL_FLOOR_DB
        )
    return tl


# -- the sections -------------------------------------------------------------


@pytest.fixture(scope="module")
def cycle_case():
    """``cycle_ref``'s grid and TL slice, on a state with horizontal structure.

    The slice's 16 columns are closer than the grid spacing, so four of them
    repeat their neighbour's grid cell: 12 distinct columns.
    """
    grid = monterey_grid(nx=32, ny=28, nz=4)
    state = PEModel(grid=grid).rest_state()
    yy, xx = np.mgrid[0 : grid.ny, 0 : grid.nx]
    state.temp += 0.3 * np.sin(0.4 * xx + 0.3 * yy) * np.array([1.0, 0.7, 0.4, 0.2])[:, None, None]
    state.salt += 0.05 * np.cos(0.2 * xx - 0.5 * yy)
    task = acoustic_climate_tasks(grid, n_slices=1, frequencies=(100.0,), source_depths=(15.0,))[0]
    kwargs = dict(n_ranges=16, max_depth=300.0)
    return grid, state, task.slice_start, task.slice_end, kwargs


@pytest.fixture(scope="module")
def shelf_case(small_model, spun_up_state):
    """``test_range_dependence.py``'s shelf section: depth and mode count vary."""
    grid = small_model.grid
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    bathy = monterey_bathymetry(nx=grid.nx, ny=grid.ny)
    kwargs = dict(n_ranges=12, max_depth=200.0, bathymetry=bathy.depth)
    return grid, spun_up_state, (0.7 * lx, 0.2 * ly), (0.1 * lx, 0.2 * ly), kwargs


def cut_off_section():
    """A 60 m duct on a 1 m grid whose third column is 3 m deep.

    Below 125 Hz that column carries no mode, so every receiver from it on
    sits at the floor; above, it carries one or two and caps the modal sum.
    Columns 5-6 repeat column 4; column 3 has column 2's profile but not its
    depth, so it must be solved on its own.
    """
    depths = np.arange(0.0, 60.5, 1.0)
    ranges = np.linspace(0.0, 9000.0, 10)
    shift = np.array([0.0, 2.0, 1.0, 1.0, 3.0, 3.0, 3.0, -1.0, 0.0, 1.5])
    c = 1500.0 + 0.04 * np.abs(depths[:, None] - 25.0) + shift[None, :]
    water = np.array([60.0, 55.0, 1.0, 40.0, 58.0, 58.0, 58.0, 60.0, 50.0, 60.0])
    return AcousticSection(ranges, depths, c, 10.0 + 0.0 * c, water)


def extracted(case):
    grid, state, start, end, kwargs = case
    return extract_section(grid, state, start, end, **kwargs)


@pytest.fixture(params=["cycle", "shelf", "cut-off"])
def section(request, cycle_case, shelf_case):
    if request.param == "cycle":
        return extracted(cycle_case)
    if request.param == "shelf":
        return extracted(shelf_case)
    return cut_off_section()


# -- the tests ----------------------------------------------------------------


class TestSectionAgainstPerColumnGather:
    @pytest.mark.parametrize("case", ["cycle_case", "shelf_case"])
    def test_bit_identical(self, case, request):
        grid, state, start, end, kwargs = request.getfixturevalue(case)
        new = extract_section(grid, state, start, end, **kwargs)
        ref = ref_extract_section(grid, state, start, end, **kwargs)
        for name in ("ranges", "depths", "sound_speed", "temperature", "water_depth"):
            np.testing.assert_array_equal(getattr(new, name), getattr(ref, name))


class TestTLAgainstPerColumnLoop:
    @pytest.mark.parametrize("max_modes", MAX_MODES)
    @pytest.mark.parametrize("frequency", FREQUENCIES)
    def test_same_field(self, section, frequency, max_modes):
        tl = transmission_loss(section, frequency, source_depth=15.0, max_modes=max_modes)
        ref = ref_transmission_loss(section, frequency, 15.0, max_modes)
        np.testing.assert_allclose(tl.tl, ref, rtol=RTOL, atol=0)

    def test_cut_off_column_floors_the_rest_of_the_section(self):
        tl = transmission_loss(cut_off_section(), 100.0, source_depth=15.0).tl
        assert np.all(tl[:, 1:] == TL_FLOOR_DB)  # receivers 2.. are past column 2
        assert np.all(tl[1:50, 0] < TL_FLOOR_DB)  # in the water of column 1

    def test_shelf_case_varies_depth_and_mode_count(self, shelf_case):
        sec = extracted(shelf_case)
        assert sec.water_depth.min() < sec.water_depth.max()


class TestDistinctColumnsSolvedOnce:
    def test_cycle_section_makes_12_eigensolves(self, cycle_case, monkeypatch):
        sec = extracted(cycle_case)
        calls = []
        solve = scipy.linalg.eigh_tridiagonal

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counting)
        transmission_loss(sec, 100.0, source_depth=15.0)
        assert sec.ranges.size == 16
        assert len(calls) == 12
        calls.clear()
        ref_transmission_loss(sec, 100.0, 15.0, 40)
        assert len(calls) == 16
