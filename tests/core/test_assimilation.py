"""Unit tests for the ESSE analysis update."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from repro.core import assimilation
from repro.core.assimilation import (
    ESSEAnalysis,
    TiledESSEAnalysis,
    run_tiles_serial,
    subspace_gain,
)
from repro.core.localization import (
    AdaptiveInflation,
    GaspariCohnTaper,
    MultiplicativeInflation,
)
from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace, IncrementalSubspaceEstimator
from repro.obs.operators import Observation, ObservationOperator
from repro.util import linalg, threads


@pytest.fixture()
def layout():
    # one 1-scale field so normalized == physical, plus a scaled field
    return FieldLayout(
        [FieldSpec("a", (10,), scale=1.0), FieldSpec("b", (5,), scale=2.0)]
    )


def make_subspace(layout, p=4, seed=0, sigma0=1.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((layout.size, p)))
    sigmas = sigma0 * np.linspace(1.0, 0.4, p)
    return ErrorSubspace(modes=q, sigmas=sigmas, n_samples=50)


def obs_at(layout, entries, noise_std=0.1):
    """entries: list of (field, flat_index_in_field, value)."""
    observations = []
    for fieldname, flat, value in entries:
        observations.append(
            Observation(
                field=fieldname, level=0, j=0, i=flat, value=value, noise_std=noise_std
            )
        )
    return ObservationOperator(layout, observations)


def dense_kalman_update(layout, mean, subspace, operator, inflation=1.0):
    """The textbook update with every matrix formed densely: the reference.

    ``P = DE S E^T D``, ``K = P H^T (H P H^T + R)^-1``,
    ``x_a = x + K (y - H x)``, ``P_a = P - K H P``, in physical units.
    Shares no code with the program: no subspace algebra, no
    factorization reuse, an explicit m x m inverse.

    Returns ``(analysis_mean, posterior_covariance)``.
    """
    de = subspace.modes * layout.scales[:, None]
    p_dense = (de * (inflation * subspace.sigmas) ** 2) @ de.T
    h = np.zeros((operator.size, layout.size))
    h[np.arange(operator.size), operator.state_indices] = 1.0
    innovation_cov = h @ p_dense @ h.T + np.diag(operator.noise_var)
    gain = p_dense @ h.T @ np.linalg.inv(innovation_cov)
    return mean + gain @ (operator.values - h @ mean), p_dense - gain @ h @ p_dense


def physical_covariance(layout, subspace):
    """``D E S E^T D`` of a subspace, formed densely."""
    de = subspace.modes * layout.scales[:, None]
    return (de * subspace.variances) @ de.T


def assert_matches_dense(layout, result, mean, subspace, operator, inflation=1.0):
    """Mean and covariance of ``result`` equal the dense reference to 1e-10."""
    expected_mean, expected_cov = dense_kalman_update(
        layout, mean, subspace, operator, inflation
    )
    np.testing.assert_allclose(
        result.mean,
        expected_mean,
        rtol=0,
        atol=1e-10 * np.abs(expected_mean - mean).max(),
    )
    np.testing.assert_allclose(
        physical_covariance(layout, result.subspace),
        expected_cov,
        rtol=0,
        atol=1e-10 * np.abs(expected_cov).max(),
    )


class TestSubspaceGain:
    """The one kernel against the formulas it replaces, formed densely."""

    @pytest.mark.parametrize("m,p", [(9, 4), (3, 6)], ids=["m>p", "m<p"])
    @pytest.mark.parametrize("n_rhs", [None, 5], ids=["vector", "matrix"])
    def test_matches_dense_formulas(self, m, p, n_rhs):
        rng = np.random.default_rng(m + p)
        g = rng.standard_normal((m, p))
        variances = np.geomspace(1.0, 1e-12, p)  # sigmas spanning 1e-6 ... 1
        noise_var = rng.uniform(0.05, 2.0, m)
        rhs = rng.standard_normal(m if n_rhs is None else (m, n_rhs))
        coeffs, s_post = subspace_gain(g, variances, noise_var, rhs)

        s = np.diag(variances)
        innovation_cov_inv = np.linalg.inv(g @ s @ g.T + np.diag(noise_var))
        expected_coeffs = s @ g.T @ innovation_cov_inv @ rhs
        expected_post = s - s @ g.T @ innovation_cov_inv @ g @ s
        assert coeffs.shape == expected_coeffs.shape
        np.testing.assert_allclose(
            coeffs, expected_coeffs, rtol=0, atol=1e-12 * np.abs(expected_coeffs).max()
        )
        np.testing.assert_allclose(s_post, expected_post, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(s_post, s_post.T)

    def test_zero_variance_mode_gets_no_weight(self):
        """A mode without prior variance stays out instead of dividing by 0."""
        rng = np.random.default_rng(4)
        g = rng.standard_normal((5, 3))
        noise_var, rhs = np.full(5, 0.1), rng.standard_normal(5)
        coeffs, s_post = subspace_gain(g, np.array([1.0, 0.0, 0.25]), noise_var, rhs)
        assert coeffs[1] == 0.0
        assert np.all(s_post[1] == 0.0) and np.all(s_post[:, 1] == 0.0)
        live = [0, 2]
        live_coeffs, live_post = subspace_gain(
            g[:, live], np.array([1.0, 0.25]), noise_var, rhs
        )
        np.testing.assert_allclose(coeffs[live], live_coeffs, atol=1e-14)
        np.testing.assert_allclose(s_post[np.ix_(live, live)], live_post, atol=1e-15)


class TestMeanUpdate:
    def test_moves_toward_observation(self, layout):
        sub = make_subspace(layout)
        analysis = ESSEAnalysis(layout)
        x = np.zeros(layout.size)
        op = obs_at(layout, [("a", 3, 2.0)])
        result = analysis.update(x, sub, op)
        assert 0.0 < result.mean[3] <= 2.0
        assert result.analysis_rms <= result.innovation_rms

    def test_zero_innovation_keeps_mean(self, layout):
        sub = make_subspace(layout)
        analysis = ESSEAnalysis(layout)
        x = np.arange(layout.size, dtype=float)
        op = obs_at(layout, [("a", 3, 3.0)])  # x[3] = 3 already
        result = analysis.update(x, sub, op)
        assert np.allclose(result.mean, x)

    def test_small_noise_fits_observation(self, layout):
        """With tiny R and large prior variance, the analysis ~ the data."""
        sub = make_subspace(layout, sigma0=50.0)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 2, 1.5)], noise_std=1e-4)
        result = analysis.update(np.zeros(layout.size), sub, op)
        assert result.mean[2] == pytest.approx(1.5, abs=0.05)

    def test_large_noise_keeps_forecast(self, layout):
        sub = make_subspace(layout, sigma0=0.01)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 2, 10.0)], noise_std=100.0)
        result = analysis.update(np.zeros(layout.size), sub, op)
        assert abs(result.mean[2]) < 0.01

    def test_update_confined_to_subspace(self, layout):
        """The increment must lie in span(D E)."""
        sub = make_subspace(layout, p=2)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 5.0), ("b", 1, 1.0)])
        result = analysis.update(np.zeros(layout.size), sub, op)
        incr_norm = layout.normalize(result.mean)  # increment, normalized
        # project out the subspace; the residual must vanish
        residual = incr_norm - sub.modes @ (sub.modes.T @ incr_norm)
        assert np.linalg.norm(residual) < 1e-10 * max(np.linalg.norm(incr_norm), 1)

    def test_matches_dense_kalman_formula(self, layout):
        """Mean and posterior covariance equal the textbook dense update."""
        sub = make_subspace(layout, p=3, seed=7)
        op = obs_at(layout, [("a", 1, 1.0), ("a", 4, -2.0), ("b", 0, 0.5)])
        x = np.random.default_rng(7).standard_normal(layout.size)
        result = ESSEAnalysis(layout).update(x, sub, op)
        assert_matches_dense(layout, result, x, sub, op)

    def test_validation(self, layout):
        analysis = ESSEAnalysis(layout)
        sub = make_subspace(layout)
        op = obs_at(layout, [("a", 0, 1.0)])
        with pytest.raises(ValueError, match="forecast mean"):
            analysis.update(np.zeros(3), sub, op)
        with pytest.raises(ValueError, match="inflation"):
            ESSEAnalysis(layout, inflation=0.5)


class TestPosteriorSubspace:
    def test_variance_never_increases(self, layout):
        sub = make_subspace(layout)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 1.0), ("a", 5, 0.0)])
        result = analysis.update(np.zeros(layout.size), sub, op)
        assert result.subspace.total_variance <= sub.total_variance + 1e-12

    def test_posterior_variance_reduced_in_observed_direction(self, layout):
        sub = make_subspace(layout)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 1.0)], noise_std=0.01)
        result = analysis.update(np.zeros(layout.size), sub, op)
        e0 = np.zeros(layout.size)
        e0[0] = 1.0
        prior_var = e0 @ sub.covariance_action(e0)
        post_var = e0 @ result.subspace.covariance_action(e0)
        assert post_var < prior_var

    def test_posterior_modes_orthonormal(self, layout):
        sub = make_subspace(layout)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 1.0), ("b", 2, 0.2)])
        result = analysis.update(np.zeros(layout.size), sub, op)
        gram = result.subspace.modes.T @ result.subspace.modes
        assert np.allclose(gram, np.eye(result.subspace.rank), atol=1e-10)

    def test_unobserved_directions_untouched(self, layout):
        """Modes orthogonal to all observed rows keep their variance."""
        # Build a subspace with a mode that is zero at every observed index.
        rng = np.random.default_rng(11)
        m1 = np.zeros(layout.size)
        m1[7] = 1.0  # unobserved direction
        m2 = np.zeros(layout.size)
        m2[0] = 1.0  # will be observed
        sub = ErrorSubspace(
            modes=np.stack([m2, m1], axis=1), sigmas=np.array([1.0, 0.5])
        )
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 1.0)], noise_std=0.01)
        result = analysis.update(np.zeros(layout.size), sub, op)
        e7 = np.zeros(layout.size)
        e7[7] = 1.0
        post_var = e7 @ result.subspace.covariance_action(e7)
        assert post_var == pytest.approx(0.25, rel=1e-6)

    def test_zero_variance_modes_dropped(self, layout):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((layout.size, 3)))
        sub = ErrorSubspace(modes=q, sigmas=np.array([1.0, 0.5, 0.0]))
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 0, 1.0)])
        result = analysis.update(np.zeros(layout.size), sub, op)
        assert result.subspace.rank <= 2

    def test_empty_subspace_rejected(self, layout):
        analysis = ESSEAnalysis(layout)
        sub = ErrorSubspace(modes=np.zeros((layout.size, 0)), sigmas=np.zeros(0))
        op = obs_at(layout, [("a", 0, 1.0)])
        with pytest.raises(ValueError, match="empty subspace"):
            analysis.update(np.zeros(layout.size), sub, op)


class TestEnsembleUpdate:
    def test_members_pulled_toward_observation(self, layout):
        sub = make_subspace(layout, sigma0=10.0)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 3, 5.0)], noise_std=0.05)
        rng = np.random.default_rng(0)
        members = rng.standard_normal((20, layout.size))
        updated = analysis.update_ensemble(members, sub, op, rng)
        before = np.abs(members[:, 3] - 5.0).mean()
        after = np.abs(updated[:, 3] - 5.0).mean()
        assert after < before

    def test_spread_reduced_at_observed_point(self, layout):
        sub = make_subspace(layout, sigma0=10.0)
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 3, 0.0)], noise_std=0.1)
        rng = np.random.default_rng(1)
        members = 3.0 * rng.standard_normal((40, layout.size))
        updated = analysis.update_ensemble(members, sub, op, rng)
        assert updated[:, 3].std() < members[:, 3].std()

    def test_shape_validation(self, layout):
        analysis = ESSEAnalysis(layout)
        sub = make_subspace(layout)
        op = obs_at(layout, [("a", 0, 1.0)])
        with pytest.raises(ValueError, match="members"):
            analysis.update_ensemble(
                np.zeros(layout.size), sub, op, np.random.default_rng(0)
            )


class TestEnsembleUpdateRegressions:
    """Failing-before/passing-after guards for the update_ensemble fixes.

    Two latent bugs: (a) an empty subspace raised IndexError on
    ``sigmas[0]`` instead of the ValueError ``update`` raises, and when
    every mode sat below the variance floor a rank-0 subspace was
    silently constructed; (b) the perturbed-observation update solved the
    same Woodbury system once per member instead of once for all members.
    """

    def test_empty_subspace_raises_value_error(self, layout):
        # Before the fix: IndexError from indexing sigmas[0] on rank 0.
        analysis = ESSEAnalysis(layout)
        empty = ErrorSubspace(modes=np.zeros((layout.size, 0)), sigmas=np.zeros(0))
        op = obs_at(layout, [("a", 3, 1.0)])
        members = np.zeros((3, layout.size))
        with pytest.raises(ValueError, match="empty subspace"):
            analysis.update_ensemble(members, empty, op, np.random.default_rng(0))

    def test_all_modes_below_floor_raise(self, layout):
        # Before the fix: a rank-0 subspace was built silently and the
        # downstream solve produced garbage instead of an error.
        sub = make_subspace(layout)
        dead = ErrorSubspace(
            modes=sub.modes, sigmas=np.zeros(sub.rank), n_samples=sub.n_samples
        )
        op = obs_at(layout, [("a", 3, 1.0)])
        members = np.zeros((3, layout.size))
        with pytest.raises(ValueError, match="no positive-variance modes"):
            ESSEAnalysis(layout).update_ensemble(
                members, dead, op, np.random.default_rng(0)
            )

    def test_guards_agree_with_update(self, layout):
        """Both public paths reject degenerate subspaces identically."""
        analysis = ESSEAnalysis(layout)
        op = obs_at(layout, [("a", 3, 1.0)])
        members = np.zeros((2, layout.size))
        for bad in (
            ErrorSubspace(modes=np.zeros((layout.size, 0)), sigmas=np.zeros(0)),
            ErrorSubspace(
                modes=make_subspace(layout).modes, sigmas=np.zeros(4)
            ),
        ):
            with pytest.raises(ValueError) as from_update:
                analysis.update(np.zeros(layout.size), bad, op)
            with pytest.raises(ValueError) as from_ensemble:
                analysis.update_ensemble(
                    members, bad, op, np.random.default_rng(0)
                )
            assert str(from_update.value) == str(from_ensemble.value)

    def test_single_woodbury_solve_for_all_members(self, layout, monkeypatch):
        """All N member innovations go through ONE gain solve.

        The old implementation solved the innovation-covariance system
        once per member; this fails against it (N calls) and passes now
        (1 call of the kernel, :func:`subspace_gain`).
        """
        analysis = ESSEAnalysis(layout)
        sub = make_subspace(layout)
        op = obs_at(layout, [("a", 1, 1.0), ("b", 2, 0.5)])
        members = np.random.default_rng(3).standard_normal((6, layout.size))
        calls = []

        def counted(g, variances, noise_var, rhs):
            calls.append(np.shape(rhs))
            return subspace_gain(g, variances, noise_var, rhs)

        monkeypatch.setattr(assimilation, "subspace_gain", counted)
        analysis.update_ensemble(members, sub, op, np.random.default_rng(0))
        assert len(calls) == 1
        assert calls[0] == (op.size, 6)  # the stacked (m, N) rhs

    def test_noise_stream_order_preserved(self, layout):
        """The batched path consumes the RNG exactly like the old loop.

        Perturbed-observation draws must stay member-by-member so a fixed
        seed keeps producing the historical noise sequence.
        """
        analysis = ESSEAnalysis(layout)
        sub = make_subspace(layout)
        op = obs_at(layout, [("a", 1, 1.0), ("b", 2, 0.5)])
        members = np.random.default_rng(3).standard_normal((5, layout.size))
        rng_batched = np.random.default_rng(7)
        analysis.update_ensemble(members, sub, op, rng_batched)
        rng_loop = np.random.default_rng(7)
        for _ in range(5):
            op.perturbed_values(rng_loop)
        # Same stream position afterwards => identical draw order.
        assert rng_batched.random() == rng_loop.random()

    def test_matches_per_member_loop(self, layout):
        """Batched update equals the historical per-member loop.

        The comparison is at near-ULP tolerance rather than bitwise:
        the (m, N) matmul and the per-member matvec take different BLAS
        kernels (gemm vs gemv) whose accumulation orders differ in the
        last bits.  The noise draws themselves are bit-identical
        (``test_noise_stream_order_preserved``).
        """
        analysis = ESSEAnalysis(layout, inflation=1.05)
        sub = make_subspace(layout, p=3, sigma0=2.0)
        op = obs_at(layout, [("a", 1, 1.0), ("a", 4, -0.5), ("b", 2, 0.5)])
        members = np.random.default_rng(3).standard_normal((6, layout.size))

        out = analysis.update_ensemble(members, sub, op, np.random.default_rng(11))

        rng = np.random.default_rng(11)
        variances = (sub.sigmas * 1.05) ** 2  # all sigmas positive in this fixture
        g = op.observe_modes(sub.modes) * layout.scales[op.state_indices][:, None]
        expected = np.empty_like(members)
        for j in range(members.shape[0]):
            d_j = op.perturbed_values(rng) - op.observe(members[j])
            coeffs, _ = subspace_gain(g, variances, op.noise_var, d_j)
            expected[j] = members[j] + layout.denormalize(sub.modes @ coeffs)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-13)

    def test_localized_configuration_rejected(self):
        """Members are updated with the global gain only."""
        layout = FieldLayout([FieldSpec("ssh", (4, 3))])
        tiled = TiledESSEAnalysis(layout, (4, 3), tile_shape=(2, 3))
        sub = make_subspace(layout)
        op = ObservationOperator(
            layout,
            [Observation(field="ssh", level=0, j=1, i=1, value=1.0, noise_std=0.1)],
        )
        with pytest.raises(ValueError, match="tiled"):
            tiled.update_ensemble(
                np.zeros((2, layout.size)), sub, op, np.random.default_rng(0)
            )


class TestInflation:
    """A number and an inflation model are the same knob on the one class."""

    def test_scalar_is_multiplicative_model(self, layout):
        sub = make_subspace(layout, sigma0=0.3)
        op = obs_at(layout, [("a", 1, 1.0), ("b", 2, 0.5)])
        x = np.zeros(layout.size)
        by_number = ESSEAnalysis(layout, inflation=1.3).update(x, sub, op)
        by_model = ESSEAnalysis(layout, inflation=MultiplicativeInflation(1.3)).update(
            x, sub, op
        )
        np.testing.assert_array_equal(by_number.mean, by_model.mean)
        np.testing.assert_array_equal(
            by_number.subspace.sigmas, by_model.subspace.sigmas
        )
        assert_matches_dense(layout, by_number, x, sub, op, inflation=1.3)

    def test_adaptive_inflation_on_the_global_analysis(self, layout):
        """An overconfident prior is inflated by the innovation statistics."""
        sub = make_subspace(layout, sigma0=0.01)
        op = obs_at(layout, [("a", 1, 3.0), ("a", 6, -2.0), ("b", 2, 2.5)])
        x = np.zeros(layout.size)
        model = AdaptiveInflation(min_factor=1.0, max_factor=2.0)
        g = op.observe_modes(sub.modes) * layout.scales[op.state_indices][:, None]
        factor = model.factor(op.innovation(x), g, sub.variances, op.noise_var)
        assert factor == 2.0  # clipped at the maximum
        result = ESSEAnalysis(layout, inflation=model).update(x, sub, op)
        assert_matches_dense(layout, result, x, sub, op, inflation=factor)


def test_refactorize_drops_unresolved_modes():
    """Round-off directions are dropped, never normalized into modes.

    A rank-3 anomaly matrix in 6 columns has three Gram eigenvalues of pure
    round-off (~1e-16 lambda_0, sigma ~ 1e-8 .. 1e-7 of sigma_0): dividing
    the matching columns by those sigmas used to return six "modes", three
    of them noise that is not even orthogonal to the real ones.
    """
    rng = np.random.default_rng(0)
    anomalies = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 6))
    posterior = assimilation._refactorize(anomalies, n_samples=10)
    assert posterior.rank == 3
    assert posterior.n_samples == 10
    gram = posterior.modes.T @ posterior.modes
    assert np.abs(gram - np.eye(3)).max() <= 1e-12
    np.testing.assert_allclose(
        (posterior.modes * posterior.variances) @ posterior.modes.T,
        anomalies @ anomalies.T,
        rtol=0,
        atol=1e-12 * posterior.variances[0],
    )


class TestModeSpacePosterior:
    """The global locale's posterior is factored from ``B`` of ``M = E B``.

    The reference is the stitched route on the same anomalies,
    ``_refactorize(E @ B)``: the ``n x p`` matrix formed and factored in
    state space.  Priors come from each route of
    :func:`repro.util.linalg.truncated_svd`, so each kind of
    orthonormality the ``ErrorSubspace`` contract promises is covered.
    """

    GRID = (10, 12)
    #: route -> (anomaly columns, spectrum depth, rank cut)
    PRIORS = {"gram-raw": (8, 0.3, None), "gram-polished": (8, 1 / 400, None),
              "lapack": (100, 0.3, 8)}

    @pytest.fixture()
    def gridded(self):
        return FieldLayout(
            [FieldSpec("ssh", self.GRID, scale=0.5), FieldSpec("temp", (2, *self.GRID), scale=2.0)]
        )

    def prior(self, layout, route):
        """A prior factored by ``route``; asserts the route was taken."""
        columns, depth, rank = self.PRIORS[route]
        rng = np.random.default_rng(columns)
        anomalies = rng.standard_normal((layout.size, columns)) * np.geomspace(1, depth, columns)
        prior = ErrorSubspace.from_anomalies(anomalies, rank=rank)
        bound = columns * np.finfo(float).eps * (prior.sigmas[0] / prior.sigmas[-1]) ** 2
        if route == "lapack":
            assert layout.size < linalg.TALL_ASPECT * columns
        else:
            assert (bound > linalg.GRAM_POLISH) == (route == "gram-polished")
            assert bound <= linalg.GRAM_TRUST
        return prior

    def case(self, layout, route):
        rng = np.random.default_rng(5)
        ny, nx = self.GRID
        observations = [
            Observation(field=field, level=level, j=int(j), i=int(i),
                        value=float(rng.normal()), noise_std=0.2)
            for field, level in (("ssh", 0), ("temp", 1))
            for j, i in zip(rng.integers(0, ny, 15), rng.integers(0, nx, 15))
        ]
        mean = rng.normal(0.0, 1.0, layout.size)
        return mean, self.prior(layout, route), ObservationOperator(layout, observations)

    @staticmethod
    def global_update(layout, mean, prior, operator):
        """The global result and the ``p x p`` factor its locale returned."""
        updates = []
        engine = ESSEAnalysis(layout)
        engine.task_runner = lambda tasks: updates.extend(run_tiles_serial(tasks)) or updates
        result = engine.update(mean, prior, operator)
        (update,) = updates
        assert update.anomaly_block.shape == (prior.rank, prior.rank)
        return result, update.anomaly_block

    @pytest.mark.parametrize("route", sorted(PRIORS))
    def test_matches_stitched_route_on_same_anomalies(self, gridded, route):
        mean, prior, operator = self.case(gridded, route)
        result, factor = self.global_update(gridded, mean, prior, operator)
        expected = assimilation._refactorize(prior.modes @ factor, prior.n_samples)
        posterior = result.subspace
        assert posterior.rank == expected.rank and posterior.n_samples == prior.n_samples
        assert_allclose(posterior.sigmas, expected.sigmas, rtol=1e-12, atol=0)
        assert_allclose(posterior.modes, expected.modes, rtol=0, atol=1e-10)
        gram = posterior.modes.T @ posterior.modes
        assert np.abs(gram - np.eye(posterior.rank)).max() <= 1e-13
        assert_matches_dense(gridded, result, mean, prior, operator)

    @pytest.mark.parametrize("route", sorted(PRIORS))
    def test_mean_equals_one_tile_stitched_route(self, gridded, route):
        """One tile stitches rows; the global locale does not: same mean bits.

        The tile gathers its rows into C-ordered copies, and BLAS sums a
        Fortran-ordered operand (the LAPACK route's modes) in another
        order, so the prior is handed over C-ordered: same values.
        """
        mean, prior, operator = self.case(gridded, route)
        prior = ErrorSubspace(np.ascontiguousarray(prior.modes), prior.sigmas, prior.n_samples)
        one_tile = TiledESSEAnalysis(gridded, self.GRID, tile_shape=(64, 64))
        stitched = one_tile.update(mean, prior, operator)
        result = ESSEAnalysis(gridded).update(mean, prior, operator)
        np.testing.assert_array_equal(result.mean, stitched.mean)
        assert_allclose(result.subspace.sigmas, stitched.subspace.sigmas, rtol=1e-12)
        assert_allclose(result.subspace.modes, stitched.subspace.modes, atol=1e-10)

    def test_failed_global_locale_returns_the_prior(self, gridded):
        mean, prior, operator = self.case(gridded, "gram-raw")
        engine = ESSEAnalysis(gridded)
        engine.task_runner = lambda tasks: [None] * len(tasks)
        with pytest.warns(assimilation.DegradedEnsembleWarning):
            result = engine.update(mean, prior, operator)
        assert result.subspace is prior  # validated: every sigma is positive
        np.testing.assert_array_equal(result.mean, mean)


def test_global_update_forms_no_state_by_rank_intermediate():
    """Allocation guard: one global update's traced peak on a tall case.

    ``n = m = 20 000``, ``p = 16``; one ``n x p`` float64 array is 2.56 MB.
    Measured peaks of this update: 11.2 MB (4.38 arrays) when the locale
    returned its ``n x p`` posterior anomaly rows, which were then stitched
    into a second array and refactorized through a Gram pass; 6.09 MB
    (2.38 arrays: the observed modes and the posterior modes, plus
    ``m``-vectors) with the ``p x p`` factor.  The bound, 3 arrays, fails
    if any ``n x p`` intermediate is alive next to those two again.
    """
    ny, nx, p = 100, 200, 16
    layout = FieldLayout([FieldSpec("ssh", (ny, nx), scale=0.5)])
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((layout.size, p)))
    prior = ErrorSubspace(modes=q, sigmas=np.geomspace(1.0, 0.1, p), n_samples=40)
    values = rng.standard_normal(layout.size)
    operator = ObservationOperator(
        layout,
        [
            Observation(field="ssh", level=0, j=j, i=i, value=float(values[j * nx + i]), noise_std=0.3)
            for j in range(ny)
            for i in range(nx)
        ],
    )
    analysis = ESSEAnalysis(layout)
    mean = np.zeros(layout.size)
    tracemalloc.start()
    try:
        result = analysis.update(mean, prior, operator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.subspace.rank == p
    assert peak <= 3 * layout.size * p * 8, f"peak {peak / 1e6:.2f} MB"


class TestTallProductThreads:
    """A dense batch shaped like ``analysis_dense`` (smaller n): same bits on 1 and 2 CPUs.

    Every product the update and the SVDs form is split into row blocks
    here, so width 2 runs blocks on a second thread; width 1 runs them in
    order on the caller.
    """

    GRID = (48, 48)

    @pytest.fixture(scope="class")
    def case(self):
        ny, nx = self.GRID
        layout = FieldLayout([FieldSpec("ssh", self.GRID, scale=0.5), FieldSpec("sst", self.GRID, scale=2.0)])
        rng = np.random.default_rng(40)
        q, _ = np.linalg.qr(rng.standard_normal((layout.size, 64)))
        prior = ErrorSubspace(modes=q, sigmas=np.geomspace(1.0, 0.25, 64), n_samples=200)
        cells = [(field, j, i) for field in ("ssh", "sst") for j in range(ny) for i in range(nx)]
        values = rng.standard_normal(len(cells))
        operator = ObservationOperator(
            layout,
            [
                Observation(field=field, level=0, j=j, i=i, value=float(v), noise_std=0.3)
                for (field, j, i), v in zip(cells, values)
            ],
        )
        anomalies = rng.standard_normal((layout.size, 256)) * np.geomspace(1.0, 0.05, 256)
        return layout, prior, operator, anomalies

    def run(self, case, width, monkeypatch):
        """Every output of one body, and how many thread pools it built."""
        layout, prior, operator, anomalies = case
        pools = []

        def counting(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(threads, "_usable_cpus", lambda: width)
        monkeypatch.setattr(threads, "ThreadPoolExecutor", counting)
        mean = np.zeros(layout.size)
        tiled = TiledESSEAnalysis(
            layout, self.GRID, (16, 16), taper=GaspariCohnTaper(8.0), local_energy_floor=0.02
        )
        estimator = IncrementalSubspaceEstimator(rank=60, energy=0.999)
        estimator.update(anomalies, 192, 1.0 / np.sqrt(191))
        warm = estimator.update(anomalies, 256, 1.0 / np.sqrt(255))
        assert estimator.last_path == "update"
        subspaces = [
            ESSEAnalysis(layout).update(mean, prior, operator).subspace,
            tiled.update(mean, prior, operator).subspace,
            ErrorSubspace.from_anomalies(anomalies, rank=60, energy=0.999),
            warm,
        ]
        arrays = [a for sub in subspaces for a in (sub.modes, sub.sigmas)]
        return arrays, pools

    def test_one_and_two_cpus_give_the_same_bits(self, case, monkeypatch):
        serial, no_pools = self.run(case, 1, monkeypatch)
        threaded, pools = self.run(case, 2, monkeypatch)
        assert no_pools == [] and len(pools) >= 4 and set(pools) == {1}
        for got, expected in zip(threaded, serial):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
