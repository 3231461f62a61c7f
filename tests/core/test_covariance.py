"""Unit tests for the incremental anomaly accumulator."""

import numpy as np
import pytest

from repro.core.covariance import AnomalyAccumulator
from repro.core.state import FieldLayout, FieldSpec
from repro.workflow.covfile import MemmapCovarianceStore


@pytest.fixture()
def layout():
    return FieldLayout([FieldSpec("a", (6,), scale=2.0)])


@pytest.fixture()
def acc(layout):
    return AnomalyAccumulator(layout, central=np.zeros(6), capacity=2)


class TestAccumulation:
    def test_count_and_ids(self, acc):
        acc.add_member(5, np.ones(6))
        acc.add_member(2, 2 * np.ones(6))
        assert acc.count == 2
        assert acc.member_ids == (5, 2)  # arrival order, not index order

    def test_rejects_duplicate(self, acc):
        acc.add_member(1, np.ones(6))
        with pytest.raises(ValueError, match="already"):
            acc.add_member(1, np.ones(6))

    def test_rejects_wrong_shape(self, acc):
        with pytest.raises(ValueError, match="shape"):
            acc.add_member(0, np.ones(4))

    def test_rejects_nonfinite(self, acc):
        bad = np.ones(6)
        bad[2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            acc.add_member(0, bad)

    def test_capacity_grows(self, layout):
        acc = AnomalyAccumulator(layout, np.zeros(6), capacity=1)
        for k in range(10):
            acc.add_member(k, float(k) * np.ones(6))
        assert acc.count == 10

    def test_rejects_bad_central(self, layout):
        with pytest.raises(ValueError, match="central"):
            AnomalyAccumulator(layout, np.zeros(3))
        with pytest.raises(ValueError, match="capacity"):
            AnomalyAccumulator(layout, np.zeros(6), capacity=0)


class TestMatrix:
    def test_normalized_and_scaled(self, acc, layout):
        acc.add_member(0, np.full(6, 4.0))  # anomaly 4 -> normalized 2
        acc.add_member(1, np.full(6, -4.0))
        m = acc.matrix()
        assert m.shape == (6, 2)
        assert np.allclose(m[:, 0], 2.0 / np.sqrt(1))  # / sqrt(N-1), N=2
        assert np.allclose(m[:, 1], -2.0)

    def test_matrix_requires_two(self, acc):
        acc.add_member(0, np.ones(6))
        with pytest.raises(RuntimeError, match=">= 2"):
            acc.matrix()

    def test_order_independent_covariance(self, layout):
        rng = np.random.default_rng(0)
        members = {k: rng.random(6) for k in range(5)}
        a = AnomalyAccumulator(layout, np.zeros(6))
        b = AnomalyAccumulator(layout, np.zeros(6))
        for k in range(5):
            a.add_member(k, members[k])
        for k in reversed(range(5)):
            b.add_member(k, members[k])
        ma, mb = a.matrix(), b.matrix()
        assert np.allclose(ma @ ma.T, mb @ mb.T)  # same covariance


class TestRowStorage:
    """One contiguous row per member; the view is its transpose."""

    def _filled(self, layout, count=5, capacity=8):
        rng = np.random.default_rng(3)
        acc = AnomalyAccumulator(layout, np.zeros(6), capacity=capacity)
        for k in range(count):
            acc.add_member(10 + k, rng.standard_normal(6))
        return acc

    def test_view_is_read_only_fortran_n_by_count(self, layout):
        columns = self._filled(layout).view().columns
        assert columns.shape == (6, 5)
        assert columns.flags.f_contiguous
        assert not columns.flags.writeable
        with pytest.raises(ValueError):
            columns[0, 0] = 1.0

    def test_view_survives_growth_unchanged(self, layout):
        acc = self._filled(layout, count=2, capacity=2)
        before = acc.view().columns
        snapshot = before.copy()
        acc.add_member(99, np.full(6, 4.0))  # doubles the storage
        assert np.array_equal(before, snapshot)
        after = acc.view().columns
        assert after.flags.f_contiguous and after.shape == (6, 3)
        assert np.array_equal(after[:, :2], snapshot)
        assert np.array_equal(after[:, 2], np.full(6, 2.0))

    def test_store_receives_the_columns_bytes(self, layout, tmp_path):
        acc = self._filled(layout)
        view = acc.view()
        store = MemmapCovarianceStore(tmp_path)
        try:
            store.sync_from(view)
            store.publish()
            written = store.columns_path.read_bytes()
        finally:
            store.close()
        # The F array's own buffer, column after column (order="A").
        assert written == np.asfortranarray(view.columns).tobytes(order="A")
