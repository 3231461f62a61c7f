"""Unit tests for the normal-mode solver, including analytic checks."""

import numpy as np
import pytest

from repro.acoustics.modes import solve_mode_stack, solve_modes


@pytest.fixture()
def iso_waveguide():
    z = np.arange(0.0, 200.1, 2.0)
    c = np.full_like(z, 1500.0)
    return z, c


class TestIsovelocityAnalytic:
    """Isovelocity waveguide (pressure-release top, rigid bottom):
    kr_m = sqrt(k^2 - ((m - 1/2) pi / H)^2)."""

    def test_wavenumbers_match_analytic(self, iso_waveguide):
        z, c = iso_waveguide
        freq, h = 100.0, 200.0
        ms = solve_modes(c, z, freq)
        k = 2 * np.pi * freq / 1500.0
        m_idx = np.arange(1, ms.kr.size + 1)
        arg = k**2 - ((m_idx - 0.5) * np.pi / h) ** 2
        kr_analytic = np.sqrt(arg[arg > 0])
        n = min(5, kr_analytic.size)
        assert np.allclose(ms.kr[:n], kr_analytic[:n], rtol=2e-4)

    def test_mode_count_scales_with_frequency(self, iso_waveguide):
        """Mode count ~ 2 H f / c, at frequencies the 2-m grid resolves."""
        z, c = iso_waveguide
        n50 = solve_modes(c, z, 50.0).kr.size
        n100 = solve_modes(c, z, 100.0).kr.size
        assert n50 == pytest.approx(2 * 200.0 * 50.0 / 1500.0, abs=2)
        assert n100 == pytest.approx(2 * n50, abs=3)

    def test_mode_shapes_are_sines(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 50.0)
        h = 200.0
        analytic = np.sin(0.5 * np.pi * z / h)
        analytic /= np.sqrt(np.trapezoid(analytic**2, z))
        assert np.allclose(np.abs(ms.psi[:, 0]), np.abs(analytic), atol=5e-3)


class TestProperties:
    def test_surface_pressure_release(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 150.0)
        assert np.allclose(ms.psi[0, :], 0.0)

    def test_orthonormal_modes(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 150.0)
        dz = z[1] - z[0]
        gram = ms.psi.T @ ms.psi * dz
        # trapezoid-normalized, so diagonal ~1 (surface node ~0 effect)
        assert np.allclose(np.diag(gram), 1.0, atol=0.02)
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.02

    def test_wavenumbers_descending(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 200.0)
        assert np.all(np.diff(ms.kr) < 0)

    def test_kr_bounded_by_max_k(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 200.0)
        assert np.all(ms.kr <= 2 * np.pi * 200.0 / c.min() + 1e-9)

    def test_ducted_profile_traps_low_modes(self):
        """A strong surface duct concentrates mode 1 near the duct axis."""
        z = np.arange(0.0, 300.1, 2.0)
        c = 1500.0 + 0.05 * np.abs(z - 60.0)  # minimum at 60 m
        ms = solve_modes(c, z, 200.0)
        peak_depth = z[np.argmax(np.abs(ms.psi[:, 0]))]
        assert 20.0 < peak_depth < 120.0

    def test_at_depth_interpolates(self, iso_waveguide):
        z, c = iso_waveguide
        ms = solve_modes(c, z, 100.0)
        vals = ms.at_depth(101.0)  # between nodes at 100 and 102
        assert vals.shape == (ms.kr.size,)
        expected = 0.5 * (ms.psi[50, 0] + ms.psi[51, 0])
        assert vals[0] == pytest.approx(expected, rel=1e-6)


class TestValidation:
    def test_rejects_bad_frequency(self, iso_waveguide):
        z, c = iso_waveguide
        with pytest.raises(ValueError, match="frequency"):
            solve_modes(c, z, 0.0)

    def test_rejects_nonuniform_grid(self):
        z = np.array([0.0, 1.0, 3.0, 7.0, 12.0])
        with pytest.raises(ValueError, match="uniform"):
            solve_modes(np.full(5, 1500.0), z, 100.0)

    def test_rejects_mismatched_arrays(self, iso_waveguide):
        z, c = iso_waveguide
        with pytest.raises(ValueError, match="matching"):
            solve_modes(c[:-1], z, 100.0)

    def test_rejects_nonpositive_speed(self, iso_waveguide):
        z, c = iso_waveguide
        c = c.copy()
        c[3] = -1.0
        with pytest.raises(ValueError, match="positive"):
            solve_modes(c, z, 100.0)

    @pytest.mark.parametrize("n_water", [[5, 3], [5, 102]])
    def test_stack_rejects_water_outside_the_grid(self, iso_waveguide, n_water):
        z, c = iso_waveguide
        with pytest.raises(ValueError, match="4 grid points per column, at most 101"):
            solve_mode_stack(np.stack([c, c], axis=1), z, n_water, 100.0)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="4 grid points"):
            solve_modes(np.full(3, 1500.0), np.array([0.0, 1.0, 2.0]), 100.0)

    def test_no_propagating_modes_below_cutoff(self):
        """A very low frequency in a shallow duct has no trapped modes."""
        z = np.arange(0.0, 20.1, 1.0)
        c = np.full_like(z, 1500.0)
        ms = solve_modes(c, z, 5.0)  # cutoff ~ c/4H = 18 Hz
        assert ms.kr.size == 0


class TestAgainstBandSelectDriver:
    """``stemr`` on the whole spectrum + a band filter gives the modes the
    old bisection / inverse-iteration driver (``select="v"``) returned."""

    @staticmethod
    def band_select_reference(c, z, frequency):
        """The old solve: per-mode loops, LAPACK asked for (0, max k^2]."""
        import scipy.linalg

        dz = float(z[1] - z[0])
        k2 = (2.0 * np.pi * frequency / c) ** 2
        diag = -2.0 / dz**2 + k2[1:]
        diag[-1] += 1.0 / dz**2
        off = np.full(c.size - 2, 1.0 / dz**2)
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            diag, off, select="v", select_range=(0.0, float(np.max(k2)))
        )
        order = np.argsort(vals)[::-1]
        psi = np.zeros((c.size, vals.size))
        psi[1:, :] = vecs[:, order]
        psi /= np.sqrt(np.trapezoid(psi**2, dx=dz, axis=0))[None, :]
        return np.sqrt(vals[order]), psi

    @pytest.mark.parametrize(
        "z, c, frequency",
        [
            pytest.param(
                np.arange(0.0, 300.1, 4.0),
                1500.0 + 0.05 * np.abs(np.arange(0.0, 300.1, 4.0) - 60.0),
                100.0,
                id="ducted-76-points",
            ),
            pytest.param(
                np.arange(0.0, 30.1, 10.0), np.full(4, 1480.0), 60.0, id="shallow-4-points"
            ),
            pytest.param(
                np.arange(0.0, 20.1, 1.0), np.full(21, 1500.0), 5.0, id="below-cut-off"
            ),
        ],
    )
    def test_same_modes(self, z, c, frequency):
        kr, psi = self.band_select_reference(c, z, frequency)
        ms = solve_modes(c, z, frequency)
        assert ms.kr.size == kr.size
        assert ms.psi.shape == psi.shape
        assert np.allclose(ms.kr, kr, rtol=0, atol=1e-10)
        assert np.allclose(np.abs(ms.psi), np.abs(psi), rtol=0, atol=1e-10)
        assert (ms.kr.size == 0) == (frequency == 5.0)  # only that one is empty
        # at_depth is np.interp of every mode column at once
        by_column = [np.interp(7.3, z, ms.psi[:, m]) for m in range(ms.kr.size)]
        assert np.allclose(ms.at_depth(7.3), by_column, rtol=0, atol=1e-12)
