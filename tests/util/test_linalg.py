"""Unit tests for SVD helpers."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from repro.core import ESSEAnalysis, FieldLayout, FieldSpec
from repro.core.subspace import IncrementalSubspaceEstimator
from repro.obs import Observation, ObservationOperator
from repro.util import linalg, threads
from repro.util.linalg import (
    gram_columns,
    gram_svd,
    lapack_svd,
    oriented_product,
    orthonormal_columns,
    thin_svd,
    truncated_svd,
)


class TestThinSVD:
    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 7))
        u, s, vt = thin_svd(a)
        assert np.allclose(u @ np.diag(s) @ vt, a)
        assert u.shape == (40, 7)

    def test_descending_singular_values(self):
        rng = np.random.default_rng(1)
        _, s, _ = thin_svd(rng.standard_normal((20, 6)))
        assert np.all(np.diff(s) <= 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            thin_svd(np.zeros(5))


class TestTruncatedSVD:
    def test_rank_cap(self):
        rng = np.random.default_rng(2)
        u, s, vt = truncated_svd(rng.standard_normal((30, 10)), rank=3)
        assert u.shape == (30, 3)
        assert s.shape == (3,)

    def test_energy_cut(self):
        # construct known spectrum: [10, 1, 0.1, ...]
        rng = np.random.default_rng(3)
        q1, _ = np.linalg.qr(rng.standard_normal((20, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q1 @ np.diag([10.0, 1.0, 0.1, 0.01]) @ q2.T
        _, s, _ = truncated_svd(a, energy=0.99)
        assert s.size == 1  # 100 / 101.0101 > 0.99

    def test_rank_and_energy_compose(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 10))
        _, s, _ = truncated_svd(a, rank=4, energy=1.0)
        assert s.size == 4

    def test_rtol_floor(self):
        a = np.diag([1.0, 1e-14, 0.0])
        _, s, _ = truncated_svd(a, rtol=1e-10)
        assert s.size == 1

    def test_invalid_args(self):
        a = np.eye(4)
        with pytest.raises(ValueError, match="energy"):
            truncated_svd(a, energy=1.5)
        with pytest.raises(ValueError, match="rank"):
            truncated_svd(a, rank=0)


class TestOrthonormality:
    def test_identity_is_orthonormal(self):
        assert orthonormal_columns(np.eye(5)[:, :3])

    def test_scaled_is_not(self):
        assert not orthonormal_columns(2.0 * np.eye(5)[:, :3])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            orthonormal_columns(np.zeros(4))


def matrix_with_spectrum(n, sigmas, seed=0):
    """An ``(n, len(sigmas))`` matrix with exactly the given singular values."""
    rng = np.random.default_rng(seed)
    m = len(sigmas)
    left, _ = np.linalg.qr(rng.standard_normal((n, m)))
    right, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (left * np.asarray(sigmas)) @ right.T


def subspace_sine(u, reference):
    """Largest principal-angle sine between two orthonormal column sets.

    (``arccos`` of the cosines resolves angles only to ~1e-8.)
    """
    return np.linalg.norm(u - reference @ (reference.T @ u), 2)


def assert_factors_match_scipy(a, factors, keep):
    """The documented accuracy of a kept set against ``scipy.linalg.svd``."""
    u, s, vt = factors
    u_ref, s_ref, _ = scipy.linalg.svd(a, full_matrices=False)
    assert s.shape == (keep,) and u.shape == (a.shape[0], keep)
    np.testing.assert_allclose(s, s_ref[:keep], rtol=1e-9)
    # Polished modes are orthonormal to round-off; a kept set shallow
    # enough to skip the pass is orthonormal to the bound that let it.
    bound = a.shape[1] * np.finfo(float).eps * (s_ref[0] / s_ref[keep - 1]) ** 2
    polished = bound > linalg.GRAM_POLISH
    assert np.abs(u.T @ u - np.eye(keep)).max() <= (1e-12 if polished else max(1e-12, bound))
    assert subspace_sine(u, u_ref[:, :keep]) < 1e-7
    # largest-magnitude entry of every mode positive, vt flipped with it
    assert np.all(u.max(axis=0) >= -u.min(axis=0))
    projected = (u_ref[:, :keep] * s_ref[:keep]) @ (u_ref[:, :keep].T @ u) @ vt
    truncated = (u * s) @ vt
    assert np.abs(truncated - projected).max() <= 1e-12 * s_ref[0]
    if keep == min(a.shape):
        assert np.abs(truncated - a).max() <= 1e-12 * s_ref[0]


class TestGramRoute:
    """Tall input is factored in ensemble space, to the documented accuracy."""

    @pytest.mark.parametrize("depth", [0.5, 1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize("keep", [None, 5])
    def test_matches_scipy_on_tall_matrices(self, depth, keep):
        a = matrix_with_spectrum(400, np.geomspace(1.0, depth, 12), seed=3)
        factors = gram_svd(a, rank=keep)
        assert factors is not None  # this is the route truncated_svd takes
        assert_factors_match_scipy(a, factors, 12 if keep is None else keep)
        for got, same in zip(truncated_svd(a, rank=keep), factors):
            np.testing.assert_array_equal(got, same)

    @settings(max_examples=25, deadline=None)
    @given(
        n_cols=st.integers(2, 20),
        aspect=st.integers(4, 30),
        decades=st.floats(0.3, 3.0),  # distinct sigmas: the modes are defined
        keep=st.integers(1, 20),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property_any_tall_matrix_down_to_1e_minus_3(
        self, n_cols, aspect, decades, keep, seed
    ):
        a = matrix_with_spectrum(
            aspect * n_cols, np.geomspace(1.0, 10.0**-decades, n_cols), seed
        )
        keep = min(keep, n_cols)
        factors = gram_svd(a, rank=keep)
        assert factors is not None
        assert_factors_match_scipy(a, factors, keep)

    def test_cut_is_taken_before_modes_are_formed(self):
        """Only the kept modes are multiplied out: nothing n x N is allocated."""
        import tracemalloc

        n, m, keep = 20000, 64, 4
        a = matrix_with_spectrum(n, np.geomspace(1.0, 0.1, m), seed=4)
        tracemalloc.start()
        try:
            u, _, _ = gram_svd(a, rank=keep)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert u.shape == (n, keep)
        assert peak < 0.25 * a.nbytes  # LAPACK's left factor alone is a.nbytes

    def test_deep_spectrum_takes_the_lapack_route(self, monkeypatch):
        """Kept sigmas down to 1e-9: the Gram route declines; LAPACK serves.

        The Gram eigensolve resolves nothing under ``sqrt(N eps) ~ 1e-7``;
        forced past its trust floor it returns noise for the deep modes.
        """
        a = matrix_with_spectrum(400, np.geomspace(1.0, 1e-9, 10), seed=5)
        assert gram_svd(a) is None
        assert_factors_match_scipy(a, truncated_svd(a), 10)
        # a cut that stays above the floor is still served in ensemble space
        assert gram_svd(a, rank=3) is not None
        assert_factors_match_scipy(a, truncated_svd(a, rank=3), 3)

        monkeypatch.setattr(linalg, "GRAM_TRUST", np.inf)
        with pytest.raises((AssertionError, np.linalg.LinAlgError)):
            assert_factors_match_scipy(a, gram_svd(a), 10)

    def test_not_tall_input_takes_the_lapack_route(self):
        a = matrix_with_spectrum(30, np.linspace(1.0, 0.5, 10), seed=6)
        assert gram_svd(a) is None
        assert_factors_match_scipy(a, truncated_svd(a), 10)
        assert_factors_match_scipy(a.T, truncated_svd(a.T), 10)  # wide

    def test_both_routes_agree_including_sign(self):
        a = matrix_with_spectrum(500, np.geomspace(1.0, 1e-2, 16), seed=7)
        for cut in ({}, {"rank": 4}, {"energy": 0.99}, {"rtol": 0.05}):
            u, s, vt = gram_svd(a, **cut)
            u_l, s_l, vt_l = lapack_svd(a, **cut)
            np.testing.assert_allclose(s, s_l, rtol=1e-12)
            np.testing.assert_allclose(u, u_l, rtol=0, atol=1e-10)
            np.testing.assert_allclose(vt, vt_l, rtol=0, atol=1e-10)

    def test_rank_deficient_input(self):
        """Exact rank 3 in 8 columns: a rank cut is served, the null space is not."""
        rng = np.random.default_rng(8)
        a = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 8))
        assert gram_svd(a, rank=3) is not None
        assert_factors_match_scipy(a, truncated_svd(a, rank=3), 3)
        assert gram_svd(a) is None  # five directions of pure round-off
        u, s, _ = truncated_svd(a, rtol=1e-10)
        assert s.size == 3
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12
        u, s, _ = thin_svd(a)
        assert s.size == 8 and np.all(s[3:] <= 1e-12 * s[0])
        assert np.abs(u.T @ u - np.eye(8)).max() <= 1e-12

    def test_all_zero_input(self):
        a = np.zeros((100, 5))
        u, s, vt = thin_svd(a)
        assert u.shape == (100, 5) and vt.shape == (5, 5)
        np.testing.assert_array_equal(s, 0.0)
        u, s, _ = truncated_svd(a, energy=0.99, rtol=1e-10)
        assert s.size == 1 and np.all(np.isfinite(u))

    def test_memory_layout_does_not_matter(self, tmp_path):
        """C order, Fortran order, a read-only map, strided columns: one answer."""
        wide = matrix_with_spectrum(300, np.geomspace(1.0, 1e-2, 16), seed=9)
        a = np.ascontiguousarray(wide[:, ::2])
        path = tmp_path / "columns.npy"
        np.save(path, np.asfortranarray(a))
        mapped = np.load(path, mmap_mode="r")
        assert not mapped.flags.writeable
        reference = truncated_svd(a, rank=5)
        for variant in (np.asfortranarray(a), mapped, wide[:, ::2]):
            for got, expected in zip(truncated_svd(variant, rank=5), reference):
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_carried_gram_matrix_is_used(self):
        a = matrix_with_spectrum(200, np.geomspace(1.0, 0.1, 6), seed=10)
        expected = gram_svd(a, rank=3)
        for got, same in zip(gram_svd(a, rank=3, gram=a.T @ a), expected):
            np.testing.assert_array_equal(got, same)
        scaled = gram_svd(a, rank=3, gram=4.0 * (a.T @ a))  # it is trusted
        np.testing.assert_allclose(scaled[1], 2.0 * expected[1], rtol=1e-12)


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestTallProducts:
    """Row blocks on 1, 2 or 3 threads give the bits of one product.

    The reference is ``a @ w`` oriented by its plain column extremes.
    Block counts are asserted so that a case meant to split really does.
    """

    B = linalg.PRODUCT_BLOCK_ROWS

    @pytest.fixture(params=[1, 2, 3])
    def width(self, request, monkeypatch):
        monkeypatch.setattr(threads, "_usable_cpus", lambda: request.param)
        return request.param

    @staticmethod
    def reference(a, w, vt):
        u = a @ w
        sign = np.where(u.max(axis=0) >= -u.min(axis=0), 1.0, -1.0)
        return u * sign, vt * sign[:, None]

    def assert_oriented_product(self, a, w, blocks):
        vt = np.random.default_rng(1).standard_normal((w.shape[1], 7))
        assert len(linalg._row_blocks(a.shape[0], self.B, w.size)) == blocks
        u_ref, vt_ref = self.reference(a, w, vt)
        u = oriented_product(a, w, vt)
        assert_same_bits(u, u_ref)
        assert_same_bits(vt, vt_ref)
        return u

    @pytest.mark.parametrize(
        "n, blocks", [(2 * B + 517, 2), (4 * B, 4), (B - 300, 1)]
    )
    def test_block_counts_and_bits(self, width, n, blocks):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, 64))
        self.assert_oriented_product(a, rng.standard_normal((64, 64)), blocks)

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 16 * 37 + 9, 2 * B + 517])
    def test_extremes_off_the_fold(self, n):
        """Fewer rows than one fold, and rows past the last whole fold
        holding a column's extremes, in C and Fortran order."""
        assert n % linalg.EXTREMES_FOLD or n == 16
        rng = np.random.default_rng(n)
        u = rng.standard_normal((n, 24))
        u[-1, 3], u[-1, 5] = 50.0, -50.0
        for layout in (u, np.asfortranarray(u)):
            top, bottom = linalg._column_extremes(layout)
            assert_same_bits(top, u.max(axis=0))
            assert_same_bits(bottom, u.min(axis=0))
        vt = rng.standard_normal((24, 7))
        u_ref, vt_ref = self.reference(u, np.eye(24), vt)
        linalg._orient(u, vt)
        assert_same_bits(u, u_ref)
        assert_same_bits(vt, vt_ref)

    def test_one_column(self, width):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3 * self.B + 5, 40))
        self.assert_oriented_product(a, rng.standard_normal((40, 1)), 1)

    def test_negative_and_tied_columns(self, width):
        """Exact integer products: extremes land in different blocks.

        Column 0 is all negative (flips), column 1 ties ``max == -min``
        (keeps +1) with the max in the first block and the min in the
        last, column 2 has its largest magnitude negative in the middle.
        """
        n, m = 3 * self.B + 100, 64
        rng = np.random.default_rng(3)
        a = rng.integers(-4, 5, size=(n, m)).astype(float)
        a[:, 0] = -rng.integers(1, 5, size=n)
        a[:, 1] = np.clip(a[:, 1], -3, 3)
        a[5, 1], a[-5, 1] = 9.0, -9.0
        a[self.B + 7, 2] = -20.0
        w = np.zeros((m, m))
        w[np.arange(m), np.arange(m)] = 1.0
        u = self.assert_oriented_product(a, w, 3)
        assert np.all(u[:, 0] > 0) and u[5, 1] == 9.0 and u[self.B + 7, 2] == 20.0

    def test_fortran_transpose_and_read_only_map(self, width, tmp_path):
        """What ``AnomalyAccumulator.view().columns`` is, and a covariance map."""
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((64, 2 * self.B + 33))
        w = rng.standard_normal((64, 64))
        transpose = rows.T
        assert transpose.flags.f_contiguous
        self.assert_oriented_product(transpose, w, 2)
        path = tmp_path / "columns.npy"
        np.save(path, rows.T)
        mapped = np.load(path, mmap_mode="r")
        assert not mapped.flags.writeable
        self.assert_oriented_product(mapped, w, 2)

    def test_gram_columns(self, width):
        """The estimator's Gram extension at the ``analysis_dense`` column counts."""
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3000, 300))[:, :256]
        assert len(linalg._row_blocks(256, linalg.GRAM_BLOCK_ROWS, 3000 * 64)) == 2
        assert_same_bits(gram_columns(raw, 192), raw.T @ raw[:, 192:])
        assert_same_bits(gram_columns(raw[:, :40], 24), raw[:, :40].T @ raw[:, 24:40])

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Eight blocks on 3 threads, the interpreter switching every 10 us."""
        monkeypatch.setattr(threads, "_usable_cpus", lambda: 3)
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8 * self.B + 3, 64))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self.assert_oriented_product(a, rng.standard_normal((64, 64)), 8)
        finally:
            sys.setswitchinterval(interval)

    def test_exception_in_a_worker_block_reaches_the_caller(self, monkeypatch):
        class Brittle(np.ndarray):
            def __getitem__(self, key):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("block broke")
                return super().__getitem__(key)

        monkeypatch.setattr(threads, "_usable_cpus", lambda: 2)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2 * self.B, 64)).view(Brittle)
        with pytest.raises(RuntimeError, match="block broke"):
            oriented_product(a, rng.standard_normal((64, 64)), np.zeros((64, 3)))

    def test_no_thread_below_the_floor(self, monkeypatch):
        """A ``cycle_ref``-sized analysis and SVD (n = 9856, p <= 32) stay serial."""

        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was built below the floor")

        monkeypatch.setattr(threads, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(threads, "ThreadPoolExecutor", no_threads)
        ny, nx = 88, 112
        layout = FieldLayout([FieldSpec("ssh", (ny, nx))])
        rng = np.random.default_rng(7)
        columns = rng.standard_normal((layout.size, 32)) * np.geomspace(1.0, 0.1, 32)
        estimator = IncrementalSubspaceEstimator(rank=24)
        estimator.update(columns, 16)
        prior = estimator.update(columns, 32)
        assert estimator.last_path == "update" and prior.rank == 24
        observations = [
            Observation(field="ssh", level=0, j=int(j), i=int(i), value=1.0, noise_std=0.5)
            for j, i in zip(rng.integers(0, ny, 200), rng.integers(0, nx, 200))
        ]
        result = ESSEAnalysis(layout).update(
            np.zeros(layout.size), prior, ObservationOperator(layout, observations)
        )
        assert result.subspace.rank == 24
