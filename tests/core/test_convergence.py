"""Unit tests for the subspace similarity / convergence criterion."""

import numpy as np
import pytest

from repro.core.convergence import ConvergenceCriterion, similarity_coefficient
from repro.core.subspace import ErrorSubspace


def subspace_from(q, sigmas, n=0):
    return ErrorSubspace(modes=q, sigmas=np.asarray(sigmas, dtype=float), n_samples=n)


def orthonormal(n, p, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    return q


class TestSimilarity:
    def test_identical_subspaces_give_one(self):
        q = orthonormal(40, 5, 0)
        s = subspace_from(q, [5.0, 4.0, 3.0, 2.0, 1.0])
        assert similarity_coefficient(s, s) == pytest.approx(1.0)

    def test_orthogonal_subspaces_give_zero(self):
        q = orthonormal(40, 10, 1)
        a = subspace_from(q[:, :5], [1.0] * 5)
        b = subspace_from(q[:, 5:], [1.0] * 5)
        assert similarity_coefficient(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_in_unit_interval(self):
        for seed in range(5):
            a = subspace_from(orthonormal(30, 4, seed), [4.0, 3.0, 2.0, 1.0])
            b = subspace_from(orthonormal(30, 6, seed + 100), [3.0] * 6)
            rho = similarity_coefficient(a, b)
            assert 0.0 <= rho <= 1.0

    def test_symmetric(self):
        a = subspace_from(orthonormal(30, 4, 2), [4.0, 3.0, 2.0, 1.0])
        b = subspace_from(orthonormal(30, 5, 3), [5.0, 4.0, 3.0, 2.0, 1.0])
        assert similarity_coefficient(a, b) == pytest.approx(
            similarity_coefficient(b, a)
        )

    def test_spectrum_mismatch_lowers_rho(self):
        """Same span, different weighting -> rho < 1."""
        q = orthonormal(40, 2, 4)
        a = subspace_from(q, [10.0, 1.0])
        b = subspace_from(q, [10.0, 10.0])
        assert similarity_coefficient(a, b) < 0.999

    def test_different_sizes_compared(self):
        q = orthonormal(40, 6, 5)
        a = subspace_from(q[:, :4], [4.0, 3.0, 2.0, 1.0])
        b = subspace_from(q, [4.0, 3.0, 2.0, 1.0, 0.5, 0.25])
        rho = similarity_coefficient(a, b)
        assert 0.9 < rho <= 1.0  # small extra modes barely matter

    def test_rejects_dim_mismatch(self):
        a = subspace_from(orthonormal(30, 3, 6), [3.0, 2.0, 1.0])
        b = subspace_from(orthonormal(20, 3, 7), [3.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="state spaces"):
            similarity_coefficient(a, b)

    def test_rejects_zero_variance(self):
        q = orthonormal(30, 2, 8)
        a = subspace_from(q, [0.0, 0.0])
        with pytest.raises(ValueError, match="zero-variance"):
            similarity_coefficient(a, a)


class TestCriterion:
    def test_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            ConvergenceCriterion(tolerance=0.0)

    def test_first_update_returns_none(self):
        crit = ConvergenceCriterion()
        s = subspace_from(orthonormal(30, 3, 0), [3.0, 2.0, 1.0])
        assert crit.update(s) is None
        assert not crit.converged

    def test_converges_on_identical(self):
        crit = ConvergenceCriterion(tolerance=0.95)
        s = subspace_from(orthonormal(30, 3, 0), [3.0, 2.0, 1.0], n=10)
        crit.update(s)
        rho = crit.update(s)
        assert rho == pytest.approx(1.0)
        assert crit.converged

    def test_does_not_converge_on_disjoint(self):
        crit = ConvergenceCriterion(tolerance=0.95)
        q = orthonormal(40, 6, 1)
        crit.update(subspace_from(q[:, :3], [1.0] * 3))
        crit.update(subspace_from(q[:, 3:], [1.0] * 3))
        assert not crit.converged

    def test_the_last_comparison_decides(self):
        crit = ConvergenceCriterion(tolerance=0.9)
        q = orthonormal(40, 6, 2)
        same = subspace_from(q[:, :3], [3.0, 2.0, 1.0])
        crit.update(same)
        crit.update(same)
        assert crit.converged
        crit.update(subspace_from(q[:, 3:], [3.0, 2.0, 1.0]))
        assert not crit.converged

    def test_history_records_sample_counts(self):
        crit = ConvergenceCriterion()
        a = subspace_from(orthonormal(30, 3, 3), [3.0, 2.0, 1.0], n=8)
        b = subspace_from(orthonormal(30, 3, 3), [3.0, 2.0, 1.0], n=16)
        crit.update(a)
        crit.update(b)
        assert crit.history[0][0] == 16

    def test_criteria_keep_separate_histories(self):
        """Each cycle's criterion starts from nothing, whatever ran before."""
        s = subspace_from(orthonormal(30, 3, 4), [3.0, 2.0, 1.0])
        used = ConvergenceCriterion()
        used.update(s)
        used.update(s)
        fresh = ConvergenceCriterion()
        assert fresh.history == []
        assert fresh.update(s) is None
        assert len(used.history) == 1


class TestStatisticalConvergence:
    def test_rho_grows_with_ensemble_size(self):
        """Estimates from bigger samples of one covariance agree more."""
        rng = np.random.default_rng(0)
        n = 60
        true_modes = orthonormal(n, 3, 99)
        sig = np.array([3.0, 2.0, 1.0])

        def estimate(n_members, seed):
            r = np.random.default_rng(seed)
            coeffs = r.standard_normal((3, n_members)) * sig[:, None]
            anomalies = true_modes @ coeffs / np.sqrt(n_members - 1)
            anomalies += 0.05 * r.standard_normal((n, n_members))
            return ErrorSubspace.from_anomalies(anomalies, rank=3)

        rho_small = similarity_coefficient(estimate(10, 1), estimate(10, 2))
        rho_large = similarity_coefficient(estimate(400, 3), estimate(400, 4))
        assert rho_large > rho_small
        assert rho_large > 0.95
