"""Tests for the Gram-carrying incremental subspace estimator.

The documented accuracy contract (``docs/COVFILE_PROTOCOL.md``): every
checkpoint of :class:`IncrementalSubspaceEstimator` equals the cold
factorization of the same columns to round-off -- sigmas, modes *and
their signs* -- whatever the schedule the columns arrived on, because the
carry is the raw columns' Gram matrix and nothing in it is truncated.  A
kept set that reaches below the Gram route's trust floor is factored by
the LAPACK driver instead (``last_path == "guard"``).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ESSEConfig
from repro.core.subspace import ErrorSubspace, IncrementalSubspaceEstimator
from repro.util import linalg
from repro.util.linalg import orthonormal_columns, truncated_svd

TOL = 1e-12  # documented carry-vs-cold agreement (sigmas relative, modes absolute)


def esse_like_columns(n, count, signal_rank=6, noise=1e-9, seed=0):
    """Columns with a decaying dominant subspace plus a tiny noise floor,
    the spectrum shape the ESSE anomaly stream produces."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, signal_rank)))
    weights = np.geomspace(1.0, 1e-3, signal_rank)
    coeffs = rng.standard_normal((signal_rank, count)) * weights[:, None]
    return basis @ coeffs + noise * rng.standard_normal((n, count))


def assert_equals_cold(sub, columns, count, scale, rank):
    """``sub`` is the cold factorization of the first ``count`` columns."""
    u_ref, s_ref, _ = truncated_svd(columns[:, :count], rank=rank, rtol=1e-10)
    assert sub.n_samples == count
    assert sub.rank == s_ref.size
    np.testing.assert_allclose(sub.sigmas, s_ref * scale, rtol=TOL)
    np.testing.assert_allclose(sub.modes, u_ref, rtol=0, atol=TOL)  # sign included


class TestSvdRankUpdate:
    """The ``"update"`` path: the carried Gram matrix grows by the new columns."""

    def test_exact_on_full_rank_factorization(self):
        a = esse_like_columns(40, 6, seed=1)
        c = esse_like_columns(40, 3, seed=2)
        both = np.hstack([a, c])
        est = IncrementalSubspaceEstimator(rank=6)
        est.update(a)
        sub = est.update(both)
        assert est.last_path == "update"
        assert_equals_cold(sub, both, 9, 1.0, rank=6)
        assert orthonormal_columns(sub.modes, atol=1e-12)

    def test_single_vector_update(self):
        a = esse_like_columns(40, 4, seed=3)
        both = np.hstack([a, np.ones((40, 1))])
        est = IncrementalSubspaceEstimator(rank=3)
        est.update(a)
        sub = est.update(both)
        assert est.last_path == "update"
        assert_equals_cold(sub, both, 5, 1.0, rank=3)

    def test_rank_truncation(self):
        a = esse_like_columns(60, 10, seed=4)
        est = IncrementalSubspaceEstimator(rank=5)
        est.update(a[:, :8])
        sub = est.update(a)
        assert sub.modes.shape == (60, 5)
        assert sub.sigmas.shape == (5,)

    def test_truncated_carry_error_bounded_by_discard(self):
        """What the rank cap discards never feeds back into the carry.

        A flat spectrum under a rank-2 cap sheds most of its energy at
        every checkpoint; a carried truncated factorization drifted by
        that much, the carried Gram matrix by nothing.
        """
        full = np.random.default_rng(6).standard_normal((80, 16))
        est = IncrementalSubspaceEstimator(rank=2)
        for count in range(2, 17):
            sub = est.update(full, count=count)
            assert_equals_cold(sub, full, count, 1.0, rank=2)
        assert est.last_path == "update"

    def test_shape_validation(self):
        """A stream of another state dimension restarts; it is never mixed in."""
        est = IncrementalSubspaceEstimator(rank=3)
        est.update(esse_like_columns(40, 6, seed=7))
        other = esse_like_columns(48, 8, seed=8)
        sub = est.update(other)
        assert est.last_path == "exact"
        assert_equals_cold(sub, other, 8, 1.0, rank=3)
        with pytest.raises(ValueError, match="count"):
            est.update(other, count=9)


class TestIncrementalSubspaceEstimator:
    @pytest.mark.parametrize(
        "checkpoints",
        [[8, 16, 32, 64], list(range(2, 41)), [4, 64]],
        ids=["staged-doubling", "stride-1", "one-large-batch"],
    )
    def test_staged_enlargement_matches_thin_svd(self, checkpoints):
        """The documented equivalence: every checkpoint of an enlargement
        equals the cold factorization -- sigmas, modes and signs -- to TOL."""
        columns = esse_like_columns(400, checkpoints[-1], seed=10)
        est = IncrementalSubspaceEstimator(rank=6, rank_buffer=16)
        paths = []
        for count in checkpoints:
            scale = 1.0 / np.sqrt(count - 1)
            sub = est.update(columns[:, :count], scale=scale)
            assert_equals_cold(sub, columns, count, scale, rank=6)
            paths.append(est.last_path)
        assert paths[0] == "exact"
        assert set(paths[1:]) == {"update"}  # never recomputed, never LAPACK

    @settings(max_examples=20, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 9), min_size=1, max_size=6),
        decades=st.floats(0.0, 2.5),
        rank=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_any_schedule_equals_cold(self, steps, decades, rank, seed):
        """Whatever the arrival schedule and spectrum, carry == cold.

        To round-off where the kernel polishes, to its ``N eps kappa^2``
        bound (<= 1e-10) where the kept set is shallow enough to skip that.
        (Sigmas only: how far round-off turns a mode depends on its gap,
        which random columns do not control; the schedules above pin modes.)
        """
        rng = np.random.default_rng(seed)
        total = 2 + sum(steps)
        weights = np.geomspace(1.0, 10.0**-decades, total)
        columns = rng.standard_normal((8 * total, total)) * weights
        est = IncrementalSubspaceEstimator(rank=rank)
        count = 2
        for step in [0] + steps:
            count += step
            sub = est.update(columns, count=count, scale=0.5)
            assert est.last_path in ("exact", "update")
            _, s_ref, _ = truncated_svd(columns[:, :count], rank=rank)
            bound = count * np.finfo(float).eps * (s_ref[0] / s_ref[-1]) ** 2
            np.testing.assert_allclose(sub.sigmas, 0.5 * s_ref, rtol=max(TOL, bound))
            assert orthonormal_columns(sub.modes, atol=max(TOL, bound))

    def test_first_update_is_exact(self):
        est = IncrementalSubspaceEstimator(rank=4)
        est.update(esse_like_columns(60, 8, seed=11))
        assert est.last_path == "exact"

    def test_same_count_again_reuses_the_carry(self):
        columns = esse_like_columns(60, 8, seed=11)
        est = IncrementalSubspaceEstimator(rank=4)
        first = est.update(columns)
        again = est.update(columns)
        assert est.last_path == "update"
        np.testing.assert_array_equal(again.modes, first.modes)
        np.testing.assert_array_equal(again.sigmas, first.sigmas)

    def test_noise_floor_does_not_trip_default_guard(self):
        """A stationary noise floor is truncated away, not a reason to leave
        the Gram route: the kept modes sit far above the trust floor."""
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
        assert all(p == "update" for p in paths[1:])

    def test_guard_trips_to_exact_recompute(self):
        """A kept set reaching below the trust floor goes down the LAPACK
        route -- and comes back once the stream fills those directions."""
        rng = np.random.default_rng(13)
        low_rank = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 8))
        full = np.hstack([low_rank, rng.standard_normal((200, 8))])
        est = IncrementalSubspaceEstimator(rank=5)
        sub = est.update(full, count=8)  # modes 4 and 5 are pure round-off
        assert est.last_path == "guard"
        assert sub.rank == 3  # LAPACK resolves them as zero; the rtol floor drops them
        s_ref = np.linalg.svd(low_rank, compute_uv=False)
        np.testing.assert_allclose(sub.sigmas, s_ref[:3], rtol=1e-10)
        assert orthonormal_columns(sub.modes, atol=1e-12)
        sub = est.update(full)  # the Gram matrix was carried on regardless
        assert est.last_path == "update"
        assert_equals_cold(sub, full, 16, 1.0, rank=5)

    def test_not_tall_input_is_factored_by_lapack(self):
        columns = esse_like_columns(30, 10, seed=20)  # 3 rows per column
        est = IncrementalSubspaceEstimator(rank=4)
        sub = est.update(columns)
        assert est.last_path == "guard"
        assert_equals_cold(sub, columns, 10, 1.0, rank=4)

    def test_shrinking_stream_restarts(self):
        est = IncrementalSubspaceEstimator(rank=4)
        columns = esse_like_columns(60, 10, seed=14)
        est.update(columns)
        sub = est.update(columns[:, :6])
        assert est.last_path == "exact"
        assert_equals_cold(sub, columns, 6, 1.0, rank=4)

    def test_deepcopy_continues_identically(self):
        """A copied estimator is the same stream position (the suite copies
        a primed one per repetition)."""
        columns = esse_like_columns(200, 24, seed=21)
        est = IncrementalSubspaceEstimator(
            rank=6, energy=0.999, rng=np.random.default_rng(0)
        )
        est.update(columns, count=16)
        twin = copy.deepcopy(est)
        a = est.update(columns, count=24, scale=0.2)
        b = twin.update(columns, count=24, scale=0.2)
        assert twin.last_path == est.last_path == "update"
        np.testing.assert_array_equal(a.modes, b.modes)
        np.testing.assert_array_equal(a.sigmas, b.sigmas)

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
        np.testing.assert_array_equal(a.modes, b.modes)

    def test_energy_cut_matches_truncated_svd(self):
        columns = esse_like_columns(60, 12, seed=17)
        sub = IncrementalSubspaceEstimator(energy=0.9).update(columns)
        u_ref, s_ref, _ = truncated_svd(columns, energy=0.9)
        assert sub.rank == s_ref.size
        assert np.allclose(sub.sigmas, s_ref, rtol=TOL)

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
        with pytest.raises(ValueError, match="rank_buffer"):
            IncrementalSubspaceEstimator(rank_buffer=-1)
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

    def test_config_validation(self):
        # the warm-start knobs went with the truncated carry they tuned; the
        # sketch route and the driver-only inflation went unset, so they went
        for gone in (
            "svd_warm_start", "svd_rank_buffer", "svd_guard_tol", "svd_method", "inflation"
        ):
            with pytest.raises(TypeError, match=gone):
                ESSEConfig(**{gone: 1})

    def test_estimator_routes_follow_the_kernel_constants(self, monkeypatch):
        """No switch of its own: with the kernel's aspect constant out of
        reach every checkpoint is a LAPACK factorization."""
        columns = esse_like_columns(200, 12, seed=22)
        monkeypatch.setattr(linalg, "TALL_ASPECT", np.inf)
        est = IncrementalSubspaceEstimator(rank=4)
        est.update(columns, count=6)
        assert est.last_path == "guard"
