"""Unit tests for RNG streams and Gaussian random fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.randomfields import GaussianRandomField2D
from repro.util.rng import SeedSequenceStream, member_rng


class TestSeedStreams:
    def test_same_key_same_stream(self):
        s = SeedSequenceStream(42)
        a = s.rng("pert", 3).standard_normal(5)
        b = SeedSequenceStream(42).rng("pert", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_index_different_stream(self):
        s = SeedSequenceStream(42)
        a = s.rng("pert", 3).standard_normal(5)
        b = s.rng("pert", 4).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_different_purpose_different_stream(self):
        s = SeedSequenceStream(42)
        a = s.rng("pert", 3).standard_normal(5)
        b = s.rng("model", 3).standard_normal(5)
        assert not np.array_equal(a, b)

    def test_string_hash_is_stable(self):
        """Keys must not depend on Python's salted hash()."""
        w1 = SeedSequenceStream(0)._key_words(("pert", 7))
        w2 = SeedSequenceStream(0)._key_words(("pert", 7))
        assert w1 == w2

    def test_rejects_bad_key_parts(self):
        with pytest.raises(TypeError, match="int or str"):
            SeedSequenceStream(0).rng(("tuple",))

    def test_member_rng_rejects_negative(self):
        with pytest.raises(ValueError):
            member_rng(0, -1)

    def test_member_rng_independent_of_call_order(self):
        a1 = member_rng(9, 700).standard_normal(4)
        b1 = member_rng(9, 900).standard_normal(4)
        b2 = member_rng(9, 900).standard_normal(4)
        a2 = member_rng(9, 700).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)


class TestGaussianRandomField:
    def test_shape_and_determinism(self):
        f1 = GaussianRandomField2D((12, 16), 3.0, rng=np.random.default_rng(1)).sample()
        f2 = GaussianRandomField2D((12, 16), 3.0, rng=np.random.default_rng(1)).sample()
        assert f1.shape == (12, 16)
        assert np.array_equal(f1, f2)

    def test_unit_variance_approximately(self):
        grf = GaussianRandomField2D((32, 32), 4.0, rng=np.random.default_rng(0))
        fields = grf.sample_many(300)
        assert fields.std() == pytest.approx(1.0, rel=0.1)

    def test_correlation_increases_with_length_scale(self):
        def neighbour_corr(ls):
            grf = GaussianRandomField2D((32, 32), ls, rng=np.random.default_rng(3))
            f = grf.sample_many(200)
            a = f[:, :, :-1].ravel()
            b = f[:, :, 1:].ravel()
            return np.corrcoef(a, b)[0, 1]

        assert neighbour_corr(6.0) > neighbour_corr(1.0) > neighbour_corr(0.0) - 0.1

    def test_zero_length_scale_is_white(self):
        grf = GaussianRandomField2D((32, 32), 0.0, rng=np.random.default_rng(2))
        f = grf.sample_many(200)
        a = f[:, :, :-1].ravel()
        b = f[:, :, 1:].ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_sample_many_matches_count(self):
        grf = GaussianRandomField2D((8, 8), 2.0, rng=np.random.default_rng(4))
        assert grf.sample_many(5).shape == (5, 8, 8)
        assert grf.sample_many(0).shape == (0, 8, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianRandomField2D((0, 5), 1.0)
        with pytest.raises(ValueError):
            GaussianRandomField2D((5, 5), -1.0)
        with pytest.raises(ValueError):
            GaussianRandomField2D((5, 5), 1.0).sample_many(-1)


def filtered_white_covariance(shape, length_scale):
    """Analytic covariance of the draw-everything-then-filter field.

    The reference formula: one white deviate per grid point through the
    normalized Gaussian filter with an ``rfft2`` / ``irfft2`` pair.  The
    filter is linear, so its matrix is its response to the identity.
    """
    ny, nx = shape
    ky = np.fft.fftfreq(ny)[:, None] * 2.0 * np.pi
    kx = np.fft.fftfreq(nx)[None, :] * 2.0 * np.pi
    filt = np.exp(-0.5 * (ky**2 + kx**2) * length_scale**2)
    filt = filt[:, : nx // 2 + 1] / np.sqrt(np.mean(filt**2))
    white = np.eye(ny * nx).reshape(ny * nx, ny, nx)
    spectrum = np.fft.rfft2(white, axes=(-2, -1)) * filt
    matrix = np.fft.irfft2(spectrum, s=shape, axes=(-2, -1)).reshape(ny * nx, -1)
    return matrix @ matrix.T


def synthesis_covariance(field):
    """Covariance of ``Y^T Z X`` for white ``Z``, row-major over the grid."""
    y, x = field.bases
    return np.kron(y.T @ y, x.T @ x)


def assert_law_of_filtered_white(shape, length_scale):
    field = GaussianRandomField2D(shape, length_scale)
    covariance = synthesis_covariance(field)
    reference = filtered_white_covariance(shape, length_scale)
    assert np.abs(covariance - reference).max() <= 2e-9
    assert np.abs(np.diag(covariance) - 1.0).max() <= 1e-12
    assert all(d <= n for d, n in zip(field.coefficient_shape, shape))


class TestSynthesisOperator:
    """Exact statements about ``Y`` and ``X``: nothing here draws a sample."""

    @pytest.mark.parametrize(
        "shape, length_scale",
        [
            ((28, 32), 4.0),  # the benchmark grid: 11 x 11 coefficients
            ((13, 17), 2.0),
            ((14, 17), 3.0),
            ((12, 9), 0.5),
            ((1, 9), 3.0),
            ((5, 1), 1.0),
            ((1, 1), 2.0),
            ((6, 7), 0.0),
            ((20, 24), 500.0),  # one constant mode per axis
        ],
    )
    def test_covariance_is_the_filtered_white_covariance(self, shape, length_scale):
        assert_law_of_filtered_white(shape, length_scale)

    @settings(max_examples=40, deadline=None)
    @given(
        ny=st.integers(1, 12),
        nx=st.integers(1, 12),
        length_scale=st.floats(0.0, 12.0, allow_nan=False),
    )
    def test_law_holds_for_any_shape_and_length_scale(self, ny, nx, length_scale):
        assert_law_of_filtered_white((ny, nx), length_scale)

    def test_benchmark_grid_keeps_eleven_by_eleven(self):
        assert GaussianRandomField2D((28, 32), 4.0).coefficient_shape == (11, 11)

    @pytest.mark.parametrize("shape", [(8, 8), (7, 9), (1, 6), (1, 1)])
    def test_zero_length_scale_gives_orthonormal_bases(self, shape):
        field = GaussianRandomField2D(shape, 0.0)
        assert field.coefficient_shape == shape
        for basis in field.bases:
            identity = np.eye(len(basis))
            assert np.abs(basis @ basis.T - identity).max() <= 1e-12
            assert np.abs(basis.T @ basis - identity).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 9, 28, 32])
    def test_retained_rank_is_monotone_in_length_scale(self, n):
        scales = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 1e3]
        ranks = [GaussianRandomField2D((n, 1), ls).coefficient_shape[0] for ls in scales]
        assert ranks[0] == n and ranks[-1] == 1
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_bases_are_shared_and_read_only(self):
        first = GaussianRandomField2D((10, 12), 2.0)
        second = GaussianRandomField2D((10, 12), 2.0, rng=np.random.default_rng(5))
        assert all(a is b for a, b in zip(first.bases, second.bases))
        with pytest.raises(ValueError):
            first.bases[0][0, 0] = 0.0

    def test_synthesize_checks_the_block_shape(self):
        field = GaussianRandomField2D((10, 12), 2.0)
        with pytest.raises(ValueError, match="incompatible"):
            field.synthesize(np.zeros((10, 12)))

    def test_sample_is_the_synthesis_of_one_draw(self):
        field = GaussianRandomField2D((10, 12), 2.0, rng=np.random.default_rng(8))
        twin = np.random.default_rng(8)
        one = twin.standard_normal(field.coefficient_shape)
        many = twin.standard_normal((3, *field.coefficient_shape))
        assert np.array_equal(field.sample(), field.synthesize(one))
        assert np.array_equal(field.sample_many(3), field.synthesize(many))
