"""Property-based tests for the acoustics chain."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.acoustics.modes import solve_modes
from repro.acoustics.soundspeed import mackenzie_sound_speed


class TestSoundSpeedProperties:
    @given(
        st.floats(-2.0, 30.0),
        st.floats(25.0, 40.0),
        st.floats(0.0, 4000.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_within_oceanic_range(self, t, s, d):
        c = float(mackenzie_sound_speed(t, s, d))
        assert 1380.0 < c < 1650.0

    @given(
        st.floats(-2.0, 28.0),
        st.floats(25.0, 40.0),
        st.floats(0.0, 3000.0),
        st.floats(0.1, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_temperature(self, t, s, d, dt):
        assert mackenzie_sound_speed(t + dt, s, d) > mackenzie_sound_speed(t, s, d)

    @given(
        st.floats(-2.0, 30.0),
        st.floats(25.0, 40.0),
        st.floats(0.0, 3000.0),
        st.floats(10.0, 500.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_depth(self, t, s, d, dd):
        assert mackenzie_sound_speed(t, s, d + dd) > mackenzie_sound_speed(t, s, d)


@st.composite
def waveguides(draw):
    depth = draw(st.floats(60.0, 400.0))
    dz = draw(st.sampled_from([2.0, 4.0]))
    z = np.arange(0.0, depth + dz / 2, dz)
    c0 = draw(st.floats(1460.0, 1540.0))
    gradient = draw(st.floats(-0.08, 0.08))
    c = c0 + gradient * z
    freq = draw(st.floats(40.0, 250.0))
    return z, np.clip(c, 1400.0, 1600.0), freq


class TestModeProperties:
    @given(waveguides())
    @settings(max_examples=40, deadline=None)
    def test_spectral_bounds(self, wg):
        """kr lies between omega/c_max (cutoff) and omega/c_min."""
        z, c, freq = wg
        ms = solve_modes(c, z, freq)
        if ms.kr.size == 0:
            return
        omega = 2 * np.pi * freq
        assert np.all(ms.kr <= omega / c.min() + 1e-9)
        assert np.all(ms.kr > 0)

    @given(waveguides())
    @settings(max_examples=40, deadline=None)
    def test_surface_zero_and_normalization(self, wg):
        z, c, freq = wg
        ms = solve_modes(c, z, freq)
        if ms.kr.size == 0:
            return
        assert np.allclose(ms.psi[0, :], 0.0)
        dz = z[1] - z[0]
        norms = np.trapezoid(ms.psi**2, dx=dz, axis=0)
        assert np.allclose(norms, 1.0, atol=0.05)

    @given(waveguides(), st.floats(1.2, 2.5))
    @settings(max_examples=30, deadline=None)
    def test_mode_count_nondecreasing_in_frequency(self, wg, factor):
        z, c, freq = wg
        n_low = solve_modes(c, z, freq).kr.size
        n_high = solve_modes(c, z, freq * factor).kr.size
        assert n_high >= n_low
