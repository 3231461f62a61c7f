"""Property-based tests of the ESSE core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assimilation import ESSEAnalysis
from repro.core.convergence import similarity_coefficient
from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace
from repro.obs.operators import Observation, ObservationOperator
from repro.util.linalg import orthonormal_columns


# -- strategies ---------------------------------------------------------------

field_shapes = st.one_of(
    st.tuples(st.integers(1, 6)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
)


@st.composite
def layouts(draw):
    n_fields = draw(st.integers(1, 4))
    specs = []
    for k in range(n_fields):
        shape = draw(field_shapes)
        scale = draw(st.floats(0.01, 100.0))
        specs.append(FieldSpec(f"f{k}", shape, scale=scale))
    return FieldLayout(specs)


@st.composite
def subspaces(draw, n_min=4, n_max=24, p_max=5):
    n = draw(st.integers(n_min, n_max))
    p = draw(st.integers(1, min(p_max, n)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    sigmas = np.sort(rng.uniform(0.1, 5.0, p))[::-1]
    return ErrorSubspace(modes=q, sigmas=sigmas, n_samples=2 * p)


# -- FieldLayout --------------------------------------------------------------


class TestLayoutProperties:
    @given(layouts(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_round_trip(self, layout, seed):
        rng = np.random.default_rng(seed)
        fields = {s.name: rng.standard_normal(s.shape) for s in layout.specs}
        back = layout.unpack(layout.pack(fields))
        for name, arr in fields.items():
            assert np.allclose(back[name], arr)

    @given(layouts(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_normalize_denormalize_inverse(self, layout, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(layout.size)
        assert np.allclose(layout.denormalize(layout.normalize(x)), x, atol=1e-9)

    @given(layouts())
    @settings(max_examples=50, deadline=None)
    def test_field_slices_partition_the_vector(self, layout):
        covered = np.zeros(layout.size, dtype=int)
        for spec in layout.specs:
            sl = layout.slice_of(spec.name)
            covered[sl] += 1
        assert np.all(covered == 1)


# -- ErrorSubspace ------------------------------------------------------------


class TestSubspaceProperties:
    @given(subspaces())
    @settings(max_examples=50, deadline=None)
    def test_variance_field_matches_dense_diagonal(self, sub):
        dense = sub.modes @ np.diag(sub.variances) @ sub.modes.T
        assert np.allclose(sub.variance_field(), np.diag(dense), atol=1e-10)
        assert np.all(sub.variance_field() >= -1e-12)

    @given(subspaces(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_covariance_action_is_psd(self, sub, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(sub.state_dim)
        assert v @ sub.covariance_action(v) >= -1e-10

    @given(st.integers(4, 20), st.integers(3, 12), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_from_anomalies_never_exceeds_data_rank(self, n, m, seed):
        rng = np.random.default_rng(seed)
        anomalies = rng.standard_normal((n, m))
        sub = ErrorSubspace.from_anomalies(anomalies)
        assert sub.rank <= min(n, m)
        assert orthonormal_columns(sub.modes)


# -- similarity ----------------------------------------------------------------


class TestSimilarityProperties:
    @given(subspaces(n_min=10, n_max=10), subspaces(n_min=10, n_max=10))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_symmetric(self, a, b):
        rho_ab = similarity_coefficient(a, b)
        rho_ba = similarity_coefficient(b, a)
        assert 0.0 <= rho_ab <= 1.0
        assert rho_ab == pytest.approx(rho_ba, abs=1e-9)

    @given(subspaces())
    @settings(max_examples=50, deadline=None)
    def test_self_similarity_is_one(self, sub):
        assert similarity_coefficient(sub, sub) == pytest.approx(1.0, abs=1e-9)


# -- assimilation -------------------------------------------------------------


@st.composite
def analysis_problems(draw):
    n = draw(st.integers(6, 20))
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    layout = FieldLayout([FieldSpec("a", (n,), scale=draw(st.floats(0.1, 10.0)))])
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    sigmas = np.sort(rng.uniform(0.1, 3.0, p))[::-1]
    sub = ErrorSubspace(modes=q, sigmas=sigmas)
    obs = [
        Observation(
            field="a",
            level=0,
            j=0,
            i=int(rng.integers(0, n)),
            value=float(rng.normal()),
            noise_std=float(rng.uniform(0.05, 1.0)),
        )
        for _ in range(m)
    ]
    # indices may repeat: the operator allows repeated measurements
    op = ObservationOperator(layout, obs)
    x = rng.standard_normal(n)
    return layout, sub, op, x


class TestAssimilationProperties:
    @given(analysis_problems())
    @settings(max_examples=40, deadline=None)
    def test_posterior_variance_never_exceeds_prior(self, problem):
        layout, sub, op, x = problem
        result = ESSEAnalysis(layout).update(x, sub, op)
        assert (
            result.subspace.total_variance <= sub.total_variance + 1e-9
        )
        # and in every individual direction
        for k in range(result.subspace.rank):
            direction = result.subspace.modes[:, k]
            prior = direction @ sub.covariance_action(direction)
            post = direction @ result.subspace.covariance_action(direction)
            assert post <= prior + 1e-9

    @given(analysis_problems())
    @settings(max_examples=40, deadline=None)
    def test_weighted_observation_fit_never_degrades(self, problem):
        """The R^-1-weighted residual norm is non-increasing.

        (The *unweighted* RMS can grow when observation noise levels are
        heterogeneous -- hypothesis found such a case -- but the Kalman
        update guarantees d_a^T R^-1 d_a <= d_f^T R^-1 d_f because the
        analysis residual is R S^-1 d with S >= R.)
        """
        layout, sub, op, x = problem
        result = ESSEAnalysis(layout).update(x, sub, op)
        w = 1.0 / op.noise_var
        before = float(np.sum(w * result.innovation**2))
        after = float(np.sum(w * result.analysis_residual**2))
        assert after <= before + 1e-9

    @given(analysis_problems())
    @settings(max_examples=40, deadline=None)
    def test_posterior_modes_orthonormal(self, problem):
        layout, sub, op, x = problem
        result = ESSEAnalysis(layout).update(x, sub, op)
        assert orthonormal_columns(result.subspace.modes, atol=1e-7)
