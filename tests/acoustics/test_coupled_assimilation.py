"""Tests for coupled physical-acoustical assimilation (paper Sec 2.2)."""

import numpy as np
import pytest

from repro.acoustics.coupled import coupled_uncertainty_modes


def coupled_twin(n=40, seed=0):
    """Ensemble with a known shared factor: warm anomalies lower TL."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((n, 1, 1))
    temps = 12.0 + shared * np.ones((1, 6, 5)) + 0.05 * rng.standard_normal((n, 6, 5))
    tls = 80.0 - 4.0 * shared * np.ones((1, 4, 7)) + 0.2 * rng.standard_normal(
        (n, 4, 7)
    )
    cov = coupled_uncertainty_modes(temps, tls)
    # truth: one more draw from the same statistics
    z = 1.3
    truth_temp = 12.0 + z * np.ones((6, 5))
    truth_tl = 80.0 - 4.0 * z * np.ones((4, 7))
    prior_temp = np.full((6, 5), 12.0)  # ensemble mean as prior
    prior_tl = np.full((4, 7), 80.0)
    return cov, prior_temp, prior_tl, truth_temp, truth_tl


class TestCoupledAssimilation:
    def test_tl_data_corrects_temperature(self):
        """Measuring TL at a few receivers must pull T toward the truth --
        the cross-disciplinary transfer the paper describes."""
        cov, pT, pA, tT, tA = coupled_twin()
        idx = np.array([0, 9, 17])
        obs = tA.ravel()[idx]  # perfect TL measurements
        aT, aA = cov.assimilate(pT, pA, idx, obs, noise_std=0.1, block="tl")
        err_prior = np.abs(pT - tT).mean()
        err_post = np.abs(aT - tT).mean()
        assert err_post < 0.5 * err_prior

    def test_temperature_data_corrects_tl(self):
        cov, pT, pA, tT, tA = coupled_twin()
        idx = np.array([2, 11, 23])
        obs = tT.ravel()[idx]
        aT, aA = cov.assimilate(pT, pA, idx, obs, noise_std=0.05, block="temp")
        assert np.abs(aA - tA).mean() < np.abs(pA - tA).mean()

    @pytest.mark.parametrize("block", ["tl", "temp"])
    def test_matches_dense_kalman_update(self, block):
        """Both fields equal the textbook dense gain on the joint vector.

        The reference forms ``P = U S U^T`` and solves the m x m
        innovation covariance, which ``assimilate`` never does.
        """
        cov, pT, pA, tT, tA = coupled_twin(seed=3)
        idx = np.array([1, 4, 8, 13, 19])
        truth, scale, offset = (
            (tA, cov.tl_scale, cov.n_physical) if block == "tl" else (tT, cov.temp_scale, 0)
        )
        obs = truth.ravel()[idx] + 0.01 * np.arange(idx.size)
        noise_std = 0.3
        aT, aA = cov.assimilate(pT, pA, idx, obs, noise_std=noise_std, block=block)

        p_dense = (cov.modes * cov.variances) @ cov.modes.T  # normalized joint
        h = np.zeros((idx.size, cov.modes.shape[0]))
        h[np.arange(idx.size), offset + idx] = 1.0
        prior = np.concatenate([pT.ravel(), pA.ravel()])
        innovation = (obs - prior[offset + idx]) / scale
        r = (noise_std / scale) ** 2 * np.eye(idx.size)
        increment = p_dense @ h.T @ np.linalg.inv(h @ p_dense @ h.T + r) @ innovation
        scales = np.concatenate(
            [np.full(pT.size, cov.temp_scale), np.full(pA.size, cov.tl_scale)]
        )
        expected = increment * scales
        got = np.concatenate([aT.ravel(), aA.ravel()]) - prior
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=1e-10 * np.abs(expected).max()
        )

    def test_noisy_obs_update_weaker(self):
        cov, pT, pA, tT, tA = coupled_twin()
        idx = np.array([0, 9])
        obs = tA.ravel()[idx]
        sharp_T, _ = cov.assimilate(pT, pA, idx, obs, noise_std=0.05, block="tl")
        dull_T, _ = cov.assimilate(pT, pA, idx, obs, noise_std=50.0, block="tl")
        # huge noise -> nearly no increment
        assert np.abs(dull_T - pT).max() < 0.1 * np.abs(sharp_T - pT).max()

    def test_shapes_preserved(self):
        cov, pT, pA, tT, tA = coupled_twin()
        aT, aA = cov.assimilate(
            pT, pA, np.array([0]), np.array([78.0]), noise_std=0.5
        )
        assert aT.shape == pT.shape
        assert aA.shape == pA.shape

    def test_validation(self):
        cov, pT, pA, tT, tA = coupled_twin()
        with pytest.raises(ValueError, match="noise_std"):
            cov.assimilate(pT, pA, np.array([0]), np.array([1.0]), noise_std=0.0)
        with pytest.raises(ValueError, match="block"):
            cov.assimilate(
                pT, pA, np.array([0]), np.array([1.0]), noise_std=1.0, block="x"
            )
        with pytest.raises(ValueError, match="out of range"):
            cov.assimilate(
                pT, pA, np.array([10**6]), np.array([1.0]), noise_std=1.0
            )
        with pytest.raises(ValueError, match="matching"):
            cov.assimilate(
                pT, pA, np.array([0, 1]), np.array([1.0]), noise_std=1.0
            )
        with pytest.raises(ValueError, match="blocks"):
            cov.assimilate(
                np.zeros((2, 2)), pA, np.array([0]), np.array([1.0]), noise_std=1.0
            )
