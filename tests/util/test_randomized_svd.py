"""Tests for the randomized (sketching) SVD."""

import numpy as np
import pytest

from repro.util.linalg import orthonormal_columns, randomized_svd, thin_svd


def decaying_matrix(n=2000, m=200, rank=40, seed=0):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    s = np.geomspace(10.0, 0.05, rank)
    return (u * s) @ rng.standard_normal((rank, m)) / np.sqrt(m)


class TestRandomizedSVD:
    def test_matches_lapack_on_dominant_modes(self):
        a = decaying_matrix()
        _, s_exact, _ = thin_svd(a)
        rng = np.random.default_rng(1)
        u, s, vt = randomized_svd(a, rank=20, rng=rng)
        assert np.allclose(s, s_exact[:20], rtol=1e-3)

    def test_subspace_agrees(self):
        a = decaying_matrix()
        u_exact, _, _ = thin_svd(a)
        u, _, _ = randomized_svd(a, rank=10, rng=np.random.default_rng(2))
        # principal angles between dominant subspaces ~ 0
        overlap = np.linalg.svd(u_exact[:, :10].T @ u, compute_uv=False)
        assert overlap.min() > 0.99

    def test_output_shapes_and_orthonormality(self):
        a = decaying_matrix(n=300, m=50)
        u, s, vt = randomized_svd(a, rank=7, rng=np.random.default_rng(3))
        assert u.shape == (300, 7)
        assert s.shape == (7,)
        assert vt.shape == (7, 50)
        assert orthonormal_columns(u, atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)

    def test_rank_larger_than_columns_clamped(self):
        a = decaying_matrix(n=100, m=8)
        u, s, _ = randomized_svd(a, rank=20, rng=np.random.default_rng(4))
        assert s.size <= 8

    def test_validation(self):
        a = decaying_matrix(n=50, m=10)
        with pytest.raises(ValueError, match="rank"):
            randomized_svd(a, rank=0)
        with pytest.raises(ValueError, match="2-D"):
            randomized_svd(np.zeros(5), rank=1)
