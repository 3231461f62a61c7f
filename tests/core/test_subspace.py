"""Unit tests for ErrorSubspace."""

import numpy as np
import pytest

from repro.core.subspace import ErrorSubspace
from repro.util.linalg import orthonormal_columns


def random_subspace(n=50, p=5, seed=0, n_samples=20):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    sigmas = np.sort(rng.random(p) + 0.1)[::-1]
    return ErrorSubspace(modes=q, sigmas=sigmas, n_samples=n_samples)


class TestConstruction:
    def test_basic(self):
        sub = random_subspace()
        assert sub.rank == 5
        assert sub.state_dim == 50
        assert sub.total_variance == pytest.approx(np.sum(sub.sigmas**2))

    def test_rejects_sigma_mismatch(self):
        with pytest.raises(ValueError, match="sigmas"):
            ErrorSubspace(modes=np.zeros((10, 3)), sigmas=np.zeros(2))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="non-negative"):
            ErrorSubspace(modes=np.zeros((10, 2)), sigmas=np.array([1.0, -0.1]))

    def test_rejects_unsorted_sigmas(self):
        with pytest.raises(ValueError, match="descending"):
            ErrorSubspace(modes=np.zeros((10, 2)), sigmas=np.array([0.1, 1.0]))

    def test_rejects_1d_modes(self):
        with pytest.raises(ValueError, match="2-D"):
            ErrorSubspace(modes=np.zeros(10), sigmas=np.array([1.0]))


class TestCovariance:
    def test_action_matches_dense(self):
        sub = random_subspace(n=30, p=4)
        dense = sub.modes @ np.diag(sub.variances) @ sub.modes.T
        rng = np.random.default_rng(3)
        v = rng.random(30)
        assert np.allclose(sub.covariance_action(v), dense @ v)

    def test_action_shape_check(self):
        sub = random_subspace()
        with pytest.raises(ValueError, match="vector"):
            sub.covariance_action(np.zeros(7))

    def test_variance_field_matches_dense_diagonal(self):
        sub = random_subspace(n=30, p=4)
        dense = sub.modes @ np.diag(sub.variances) @ sub.modes.T
        assert np.allclose(sub.variance_field(), np.diag(dense))

    def test_variance_field_nonnegative(self):
        sub = random_subspace(seed=5)
        assert np.all(sub.variance_field() >= -1e-15)


class TestFromAnomalies:
    def test_modes_orthonormal(self):
        rng = np.random.default_rng(2)
        anomalies = rng.standard_normal((40, 10)) / 3.0
        sub = ErrorSubspace.from_anomalies(anomalies)
        assert orthonormal_columns(sub.modes)
        assert sub.n_samples == 10

    def test_reconstructs_known_covariance(self):
        """Anomalies along one direction give a rank-1 subspace."""
        rng = np.random.default_rng(4)
        direction = np.zeros(20)
        direction[3] = 1.0
        coeffs = rng.standard_normal(2000) * 2.0
        anomalies = direction[:, None] * coeffs[None, :] / np.sqrt(1999)
        sub = ErrorSubspace.from_anomalies(anomalies, rank=1)
        assert abs(sub.modes[3, 0]) == pytest.approx(1.0)
        assert sub.sigmas[0] == pytest.approx(2.0, rel=0.05)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="at least 2"):
            ErrorSubspace.from_anomalies(np.zeros((10, 1)))

    def test_rank_cap(self):
        rng = np.random.default_rng(5)
        sub = ErrorSubspace.from_anomalies(rng.standard_normal((30, 12)), rank=4)
        assert sub.rank == 4
