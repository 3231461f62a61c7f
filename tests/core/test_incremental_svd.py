"""Tests for the warm-started incremental SVD path.

The documented accuracy contract (``docs/COVFILE_PROTOCOL.md``): on
decaying spectra the incremental estimator's retained singular values
agree with an exact ``thin_svd`` recompute to a relative 1e-6, and the
retained subspaces align to principal angles below 1e-4 -- across a full
staged enlargement N -> N2 -> ... -> Nmax.  The guard (``guard_tol``,
ratio of discarded to retained energy since the last exact
factorization) is a drift backstop, tested separately with a flat
spectrum where truncation sheds real energy fast.
"""

import numpy as np
import pytest

from repro.core import ESSEConfig
from repro.core.subspace import ErrorSubspace, IncrementalSubspaceEstimator
from repro.util.linalg import (
    orthonormal_columns,
    randomized_svd,
    subspace_principal_angles,
    svd_rank_update,
    thin_svd,
    truncated_svd,
    warm_randomized_svd,
)

SIGMA_RTOL = 1e-6  # documented singular-value agreement
ANGLE_TOL = 1e-4  # documented subspace alignment (radians)


def esse_like_columns(n, count, signal_rank=6, noise=1e-9, seed=0):
    """Columns with a decaying dominant subspace plus a tiny noise floor,
    the spectrum shape the ESSE anomaly stream produces."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, signal_rank)))
    weights = np.geomspace(1.0, 1e-3, signal_rank)
    coeffs = rng.standard_normal((signal_rank, count)) * weights[:, None]
    return basis @ coeffs + noise * rng.standard_normal((n, count))


class TestSvdRankUpdate:
    def test_exact_on_full_rank_factorization(self):
        a = esse_like_columns(40, 6, seed=1)
        c = esse_like_columns(40, 3, seed=2)
        u, s, _ = thin_svd(a)
        u2, s2 = svd_rank_update(u, s, c)
        u_ref, s_ref, _ = thin_svd(np.hstack([a, c]))
        assert np.allclose(s2, s_ref, rtol=1e-10, atol=1e-12)
        assert orthonormal_columns(u2)
        k = 6  # compare the well-conditioned dominant block
        # arccos resolves angles only to ~sqrt(eps) near zero
        angles = subspace_principal_angles(u2[:, :k], u_ref[:, :k])
        assert np.max(angles) < 1e-6

    def test_single_vector_update(self):
        a = esse_like_columns(30, 4, seed=3)
        u, s, _ = thin_svd(a)
        u2, s2 = svd_rank_update(u, s, np.ones(30))
        u_ref, s_ref, _ = thin_svd(np.hstack([a, np.ones((30, 1))]))
        assert np.allclose(s2, s_ref, rtol=1e-10, atol=1e-12)

    def test_rank_truncation(self):
        a = esse_like_columns(30, 8, seed=4)
        u, s, _ = thin_svd(a)
        u2, s2 = svd_rank_update(u, s, esse_like_columns(30, 2, seed=5), rank=5)
        assert u2.shape == (30, 5)
        assert s2.shape == (5,)

    def test_truncated_carry_error_bounded_by_discard(self):
        """With a truncated U, the update error stays at the discarded level."""
        a = esse_like_columns(50, 12, noise=1e-8, seed=6)
        u, s, _ = thin_svd(a)
        keep = 8
        u2, s2 = svd_rank_update(
            u[:, :keep], s[:keep], esse_like_columns(50, 3, noise=1e-8, seed=7)
        )
        s_ref = thin_svd(np.hstack([a, esse_like_columns(50, 3, noise=1e-8, seed=7)]))[1]
        discarded = np.sqrt(np.sum(s[keep:] ** 2))
        assert np.all(np.abs(s2[:keep] - s_ref[:keep]) <= 10 * discarded + 1e-12)

    def test_shape_validation(self):
        u, s, _ = thin_svd(np.ones((4, 2)))
        with pytest.raises(ValueError, match="incompatible"):
            svd_rank_update(u, s, np.ones((5, 1)))
        with pytest.raises(ValueError, match="does not match"):
            svd_rank_update(u, np.ones(3), np.ones((4, 1)))


class TestWarmRandomizedSvd:
    def test_recovers_low_rank_matrix(self):
        a = esse_like_columns(80, 30, noise=0.0, seed=8)
        basis = thin_svd(a[:, :10])[0][:, :6]  # previous checkpoint's modes
        u, s, _ = warm_randomized_svd(a, rank=6, basis=basis)
        s_ref = thin_svd(a)[1]
        assert np.allclose(s, s_ref[:6], rtol=1e-8)
        assert orthonormal_columns(u)

    def test_none_basis_falls_back_to_cold_sketch(self):
        a = esse_like_columns(40, 12, seed=9)
        u_cold, s_cold, _ = randomized_svd(a, rank=4)
        u_warm, s_warm, _ = warm_randomized_svd(a, rank=4, basis=None)
        # different default keyed streams, but both deterministic and accurate
        assert np.allclose(s_warm, thin_svd(a)[1][:4], rtol=1e-6)
        assert np.allclose(s_cold, thin_svd(a)[1][:4], rtol=1e-6)

    def test_validation(self):
        a = np.ones((6, 3))
        with pytest.raises(ValueError, match="incompatible"):
            warm_randomized_svd(a, rank=2, basis=np.ones((5, 2)))
        with pytest.raises(ValueError, match="rank"):
            warm_randomized_svd(a, rank=0, basis=np.ones((6, 2)))


class TestIncrementalSubspaceEstimator:
    def test_staged_enlargement_matches_thin_svd(self):
        """The documented equivalence: every checkpoint of a staged
        enlargement agrees with an exact recompute to SIGMA_RTOL/ANGLE_TOL."""
        n, stages = 200, [8, 16, 32, 64]
        columns = esse_like_columns(n, stages[-1], seed=10)
        est = IncrementalSubspaceEstimator(rank=6, rank_buffer=16)
        for count in stages:
            scale = 1.0 / np.sqrt(count - 1)
            sub = est.update(columns[:, :count], scale=scale)
            u_ref, s_ref, _ = truncated_svd(columns[:, :count] * scale, rank=6)
            assert sub.n_samples == count
            assert np.allclose(sub.sigmas, s_ref, rtol=SIGMA_RTOL)
            angles = subspace_principal_angles(sub.modes, u_ref)
            assert np.max(angles) < ANGLE_TOL
        assert est.last_path in ("update", "warm")  # warm path actually used

    def test_first_update_is_exact(self):
        est = IncrementalSubspaceEstimator(rank=4)
        est.update(esse_like_columns(30, 8, seed=11))
        assert est.last_path == "exact"

    def test_large_batch_takes_warm_sketch_path(self):
        est = IncrementalSubspaceEstimator(
            rank=4, rank_buffer=2, warm_batch_factor=0.5
        )
        columns = esse_like_columns(60, 40, seed=12)
        est.update(columns[:, :8])
        sub = est.update(columns)
        assert est.last_path == "warm"
        s_ref = truncated_svd(columns, rank=4)[1]
        assert np.allclose(sub.sigmas, s_ref, rtol=1e-5)

    def test_noise_floor_does_not_trip_default_guard(self):
        """A stationary noise floor is unavoidable truncation, not drift.

        The guard meters energy shed *since the last exact
        factorization* against the energy retained; an earlier draft
        compared cumulative discard against total stream energy with a
        1e-9 tolerance, which tripped on any realistic spectrum and
        silently degenerated every checkpoint into an exact recompute.
        """
        rng = np.random.default_rng(7)
        n, count = 400, 96
        basis, _ = np.linalg.qr(rng.standard_normal((n, 12)))
        sig = np.geomspace(5.0, 0.3, 12)
        cols = (basis * sig) @ rng.standard_normal((12, count))
        cols += 0.25 * rng.standard_normal((n, count))  # genuine floor
        est = IncrementalSubspaceEstimator(rank=6, rank_buffer=8)
        paths = []
        for k in range(16, count + 1, 16):
            est.update(cols, count=k)
            paths.append(est.last_path)
        assert paths[0] == "exact"
        assert all(p in ("update", "warm") for p in paths[1:])

    def test_guard_trips_to_exact_recompute(self):
        """Once truncation has discarded more than guard_tol times the
        retained energy, the next update recomputes from scratch."""
        est = IncrementalSubspaceEstimator(rank=2, rank_buffer=0, guard_tol=1e-12)
        rng = np.random.default_rng(13)
        full = rng.standard_normal((20, 12))  # flat spectrum: heavy discard
        est.update(full[:, :4])
        est.update(full[:, :8])  # rank update discards real energy
        sub = est.update(full)
        assert est.last_path == "guard"
        s_ref = truncated_svd(full, rank=2)[1]
        assert np.allclose(sub.sigmas, s_ref, rtol=1e-10)

    def test_shrinking_stream_restarts(self):
        est = IncrementalSubspaceEstimator(rank=4)
        columns = esse_like_columns(30, 10, seed=14)
        est.update(columns)
        est.update(columns[:, :4])
        assert est.last_path == "exact"

    def test_count_limits_valid_columns(self):
        columns = esse_like_columns(30, 10, seed=15)
        a = IncrementalSubspaceEstimator(rank=4).update(columns, count=6)
        b = IncrementalSubspaceEstimator(rank=4).update(columns[:, :6])
        assert np.allclose(a.sigmas, b.sigmas)
        assert a.n_samples == 6

    def test_scale_applies_to_sigmas_only(self):
        columns = esse_like_columns(30, 8, seed=16)
        a = IncrementalSubspaceEstimator(rank=4).update(columns, scale=1.0)
        b = IncrementalSubspaceEstimator(rank=4).update(columns, scale=0.5)
        assert np.allclose(b.sigmas, 0.5 * a.sigmas)
        assert np.allclose(np.abs(np.sum(a.modes * b.modes, axis=0)), 1.0)

    def test_energy_cut_matches_truncated_svd(self):
        columns = esse_like_columns(40, 12, seed=17)
        sub = IncrementalSubspaceEstimator(energy=0.9).update(columns)
        u_ref, s_ref, _ = truncated_svd(columns, energy=0.9)
        assert sub.rank == s_ref.size
        assert np.allclose(sub.sigmas, s_ref, rtol=SIGMA_RTOL)

    def test_reset_forgets_carry(self):
        est = IncrementalSubspaceEstimator(rank=4)
        est.update(esse_like_columns(30, 8, seed=18))
        est.reset()
        assert est.last_path is None
        est.update(esse_like_columns(30, 8, seed=18))
        assert est.last_path == "exact"

    def test_returns_error_subspace(self):
        sub = IncrementalSubspaceEstimator(rank=3).update(
            esse_like_columns(30, 8, seed=19)
        )
        assert isinstance(sub, ErrorSubspace)
        assert sub.rank <= 3
        assert orthonormal_columns(sub.modes)

    def test_validation(self):
        with pytest.raises(ValueError, match="rank"):
            IncrementalSubspaceEstimator(rank=0)
        with pytest.raises(ValueError, match="guard_tol"):
            IncrementalSubspaceEstimator(guard_tol=-0.1)
        est = IncrementalSubspaceEstimator()
        with pytest.raises(ValueError, match="2-D"):
            est.update(np.ones(5))
        with pytest.raises(ValueError, match="count"):
            est.update(np.ones((5, 4)), count=9)


class TestConfigWiring:
    def test_config_builds_estimator(self):
        est = ESSEConfig().subspace_estimator()
        assert isinstance(est, IncrementalSubspaceEstimator)
        assert est.rank == ESSEConfig().max_subspace_rank

    def test_warm_start_off_disables_estimator(self):
        """Cold configs still hand out an estimator: a from-scratch one."""
        rng = np.random.default_rng(0)
        columns = rng.standard_normal((30, 12))
        cfg = ESSEConfig(svd_warm_start=False, max_subspace_rank=5)
        est = cfg.subspace_estimator()
        for count in (6, 12):  # nothing carried: each call stands alone
            scale = 1.0 / np.sqrt(count - 1)
            sub = est.update(columns, count, scale)
            ref = ErrorSubspace.from_anomalies(
                columns[:, :count] * scale, rank=5, energy=cfg.svd_energy
            )
            assert est.last_path == "cold"
            assert sub.n_samples == count
            np.testing.assert_array_equal(sub.sigmas, ref.sigmas)

    def test_randomized_method_keeps_cold_sketch_path(self):
        columns = np.random.default_rng(1).standard_normal((40, 16))
        cfg = ESSEConfig(svd_method="randomized", max_subspace_rank=4)
        est = cfg.subspace_estimator(rng=np.random.default_rng(3))
        sub = est.update(columns, 16, 0.5)
        ref = ErrorSubspace.from_anomalies(
            columns * 0.5,
            rank=4,
            energy=cfg.svd_energy,
            method="randomized",
            rng=np.random.default_rng(3),
        )
        assert est.last_path == "cold"
        np.testing.assert_array_equal(sub.sigmas, ref.sigmas)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="svd_rank_buffer"):
            ESSEConfig(svd_rank_buffer=-1)
        with pytest.raises(ValueError, match="svd_guard_tol"):
            ESSEConfig(svd_guard_tol=-1.0)
