"""Unit tests for the covariance column store (the differ -> SVD handoff).

The generic pointer contract (bounded retry, commit ordering, recovery)
is tested once in ``tests/util/test_fsio.py`` and at every kill point in
``tests/util/test_fsio_killpoints.py``; here is what the store adds.
"""

import threading

import numpy as np
import pytest

from repro.core.covariance import AnomalyAccumulator
from repro.core.state import FieldLayout, FieldSpec
from repro.workflow.covfile import CovarianceReadError, MemmapCovarianceStore


@pytest.fixture()
def open_store(tmp_path):
    """Open any number of stores on the test's directory; all closed at teardown."""
    opened = []

    def open_store(**kwargs):
        opened.append(MemmapCovarianceStore(tmp_path, **kwargs))
        return opened[-1]

    yield open_store
    for store in opened:
        store.close()


@pytest.fixture()
def store(open_store):
    return open_store()


def consistent(snap):
    """Every column of these tests' snapshots holds its member id."""
    return snap.count == len(snap.member_ids) and all(
        np.all(snap.columns[:, col] == mid) for col, mid in enumerate(snap.member_ids)
    )


class TestProtocol:
    """The protocol state lives in the files: separate readers, restarted writers."""

    def test_no_snapshot_before_publish(self, store, open_store):
        reader = open_store()
        assert reader.read_safe() is None
        store.append(np.ones((4, 2)), [0, 1])
        assert reader.read_safe() is None  # appended, not published

    def test_publish_exposes_snapshot(self, store, open_store):
        cols = np.arange(8.0).reshape(4, 2)
        store.append(cols, [3, 5])
        assert store.publish()
        snap = open_store().read_safe()
        assert (snap.version, snap.count) == (1, 2)
        assert np.array_equal(np.asarray(snap.columns), cols)
        assert list(snap.member_ids) == [3, 5]

    def test_publish_without_write_is_false(self, store, open_store):
        """A writer that died before its first publish left nothing behind."""
        store.append(np.ones((4, 2)), [0, 1])
        store._columns_file.flush()
        store.close()
        writer = open_store()
        assert (writer.version, writer.count) == (0, 0)
        assert not writer.publish()
        writer.append(np.full((4, 1), 7.0), [7])  # opens: cuts the dead tail
        writer.publish()
        writer.close()
        assert writer.columns_path.stat().st_size == 4 * 8
        assert np.all(np.asarray(writer.read_safe().columns) == 7.0)

    def test_version_monotone(self, store, open_store):
        """A restarted writer resumes version and count from the header."""
        ids = [0, 1, 2, 3]
        store.append(np.tile(np.array(ids, dtype=float), (4, 1)), ids)
        store.publish()
        reader = open_store()
        before = reader.read_safe()
        store.close()
        writer = open_store()
        assert (writer.version, writer.count) == (1, 4)
        writer.append(np.full((4, 1), 4.0), [4])
        writer.publish()
        writer.close()
        after = reader.read_safe()
        assert (before.version, before.count) == (1, 4)
        assert (after.version, after.count) == (2, 5)
        assert consistent(after)

    def test_safe_stable_while_live_written(self, store, open_store):
        """The SVD's snapshot must not change until the next publish."""
        store.append(np.full((4, 2), 1.0), [0, 1])
        store.publish()
        reader = open_store()
        before = reader.read_safe()
        store.close()
        writer = open_store()  # opening must not cut the published prefix
        writer.append(np.full((4, 1), 2.0), [2])  # no publish
        writer.close()
        after = reader.read_safe()
        assert (after.version, after.count) == (before.version, 2)
        assert np.all(np.asarray(before.columns) == 1.0)

    def test_shape_validation(self, store, open_store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        store.close()
        writer = open_store()
        with pytest.raises(ValueError, match="state dim"):
            writer.append(np.ones((5, 1)), [2])

    def test_cleanup(self, store, open_store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        store.cleanup()
        fresh = open_store()
        assert (fresh.version, fresh.count) == (0, 0)
        assert fresh.read_safe() is None

    def test_concurrent_reader_never_sees_torn_snapshot(self, store, open_store):
        """A reader polling across writer restarts: nothing falls, nothing tears."""
        errors = []
        stop = threading.Event()
        reader = open_store()

        def poll():
            seen = (0, 0)
            while not stop.is_set():
                snap = reader.read_safe()
                if snap is None:
                    continue
                if (snap.version, snap.count) < seen or not consistent(snap):
                    errors.append(f"{seen} then {(snap.version, snap.count)}")
                    return
                seen = (snap.version, snap.count)

        t = threading.Thread(target=poll)
        t.start()
        try:
            writer = store
            for k in range(40):
                if k % 5 == 4:
                    writer.close()
                    writer = open_store()
                writer.append(np.full((8, 1), float(k)), [k])
                writer.publish()
            writer.close()
        finally:
            stop.set()
            t.join()
        assert errors == []
        assert reader.read_safe().count == 40


class TestReadResilience:
    """What the store reports back to the pointer as "still publishing"."""

    @pytest.fixture()
    def published(self, store):
        store.append(np.ones((4, 3)), [0, 1, 2])
        store.publish()
        store.close()
        return store

    def test_truncated_safe_file_reads_as_none(self, published):
        payload = published.columns_path.read_bytes()
        published.columns_path.write_bytes(payload[: len(payload) // 2])
        assert published.read_safe() is None
        assert published.consecutive_unreadable == 1
        assert "columns file shorter" in str(published.last_read_error)

    def test_garbage_safe_file_reads_as_none(self, published):
        published.header_path.write_text("[1, 2, 3]")  # JSON, but not a record
        assert published.read_safe() is None
        assert published.consecutive_unreadable == 1

    def test_missing_keys_read_as_none(self, published):
        published.header_path.write_text('{"version": 2, "state_dim": 4}')
        assert published.read_safe() is None
        assert isinstance(published.last_read_error, KeyError)

    def test_counter_resets_on_success(self, published):
        """Transient lag (header before data) never accumulates toward the bound."""
        members = published.members_path.read_bytes()
        published.members_path.write_bytes(members[:8])
        assert published.read_safe() is None
        assert published.read_safe() is None
        assert published.consecutive_unreadable == 2
        published.members_path.write_bytes(members)  # the data caught up
        assert published.read_safe().count == 3
        assert published.consecutive_unreadable == 0
        assert published.last_read_error is None

    def test_bounded_retry_raises(self, published, open_store):
        """A payload that stays short counts toward the same bound as a bad header."""
        reader = open_store(max_unreadable_reads=3)
        published.columns_path.write_bytes(b"")
        assert reader.read_safe() is None
        assert reader.read_safe() is None
        with pytest.raises(CovarianceReadError, match="3 consecutive") as err:
            reader.read_safe()
        assert "shorter than header" in str(err.value.__cause__)

    def test_bound_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_unreadable_reads"):
            MemmapCovarianceStore(tmp_path, max_unreadable_reads=0)


class HalfThenFail:
    """A file whose next write lands half its bytes, then dies (ENOSPC-style)."""

    def __init__(self, fh):
        self.fh = fh
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError("disk full")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


class TestWriteLiveFaultInjection:
    """A failed write must not advance the protocol state."""

    def test_failed_replace_leaves_state_unchanged(self, store, monkeypatch):
        """...and the staged header it strands is overwritten by the retry."""
        import repro.util.fsio as fsio

        store.append(np.full((4, 2), 1.0), [0, 1])
        store.publish()
        store.append(np.full((4, 1), 2.0), [2])

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fsio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            store.publish()
        monkeypatch.undo()
        assert fsio.staging_path(store.header_path).exists()
        assert (store.version, store.count) == (1, 3)
        snap = store.read_safe()  # previous generation still served
        assert (snap.version, snap.count) == (1, 2)
        assert store.publish()
        assert not fsio.staging_path(store.header_path).exists()
        assert (store.read_safe().version, store.read_safe().count) == (2, 3)

    def test_retry_after_failure_reuses_slot_and_version(self, store):
        """A half-landed append is retried in place and reads back bit-exact."""
        store.append(np.full((2, 1), 1.0), [0])
        store.publish()
        store._columns_file = HalfThenFail(store._columns_file)
        with pytest.raises(OSError, match="disk full"):
            store.append(np.full((2, 1), 7.0), [1])
        assert store.count == 1  # the failed append committed nothing
        store._columns_file.flush()
        assert store.columns_path.stat().st_size == 2 * 8  # and left no tail
        store.append(np.full((2, 1), 7.0), [1])
        store.publish()
        snap = store.read_safe()
        assert snap.version == 2  # no version burned by the failure
        assert np.array_equal(np.asarray(snap.columns), [[1.0, 7.0], [1.0, 7.0]])
        assert list(snap.member_ids) == [0, 1]


class TestMemmapStore:
    """The append-only memmap column store, one object as writer and reader."""

    def test_no_snapshot_before_publish(self, store):
        assert store.read_safe() is None
        store.append(np.ones((4, 2)), [0, 1])
        assert store.read_safe() is None  # appended, not published

    def test_publish_exposes_snapshot(self, store):
        cols = np.arange(8.0).reshape(4, 2)
        store.append(cols, [0, 1])
        assert store.publish()
        snap = store.read_safe()
        assert snap is not None
        assert snap.count == 2
        assert np.array_equal(np.asarray(snap.columns), cols)
        assert list(snap.member_ids) == [0, 1]
        assert snap.scale == pytest.approx(1.0)

    def test_snapshot_columns_are_read_only(self, store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        snap = store.read_safe()
        with pytest.raises((ValueError, RuntimeError)):
            snap.columns[0, 0] = 5.0

    def test_publish_without_append_is_false(self, store):
        assert not store.publish()

    def test_version_monotone(self, store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        v1 = store.read_safe().version
        store.append(np.ones((4, 1)), [2])
        store.publish()
        v2 = store.read_safe().version
        assert v2 > v1

    def test_safe_stable_until_publish(self, store):
        store.append(np.full((4, 2), 1.0), [0, 1])
        store.publish()
        before = store.read_safe()
        store.append(np.full((4, 1), 2.0), [2])  # no publish
        after = store.read_safe()
        assert after.version == before.version
        assert after.count == 2

    def test_append_returns_bytes_written(self, store):
        nbytes = store.append(np.ones((4, 3)), [0, 1, 2])
        assert nbytes == 3 * 4 * 8 + 3 * 8  # columns + member ids

    def test_shape_validation(self, store):
        with pytest.raises(ValueError, match="inconsistent"):
            store.append(np.ones((4, 2)), [0, 1, 2])
        store.append(np.ones((4, 1)), [0])
        with pytest.raises(ValueError, match="state dim"):
            store.append(np.ones((5, 1)), [1])

    def test_sync_from_accumulator_view(self, store):
        layout = FieldLayout([FieldSpec("x", (6,))])
        acc = AnomalyAccumulator(layout, np.zeros(6))
        acc.add_member(0, np.full(6, 1.0))
        acc.add_member(1, np.full(6, 2.0))
        store.sync_from(acc.view())
        store.publish()
        acc.add_member(2, np.full(6, 3.0))
        nbytes = store.sync_from(acc.view())  # ships only the new column
        assert nbytes == 6 * 8 + 8
        store.publish()
        snap = store.read_safe()
        assert snap.count == 3
        assert np.array_equal(np.asarray(snap.columns), acc.view().columns)
        assert list(snap.member_ids) == [0, 1, 2]

    def test_sync_from_rejects_shrinking_view(self, store):
        layout = FieldLayout([FieldSpec("x", (6,))])
        acc = AnomalyAccumulator(layout, np.zeros(6))
        acc.add_member(0, np.ones(6))
        acc.add_member(1, np.full(6, 2.0))
        store.sync_from(acc.view())
        fresh = AnomalyAccumulator(layout, np.zeros(6))
        fresh.add_member(0, np.ones(6))
        with pytest.raises(ValueError, match="already stored"):
            store.sync_from(fresh.view())

    def test_torn_header_reads_as_none(self, store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        store.header_path.write_text('{"version": 2, "cou')  # torn write
        assert store.read_safe() is None
        assert store.consecutive_unreadable == 1

    def test_header_ahead_of_data_reads_as_none(self, store):
        """NFS-style lag: header visible before the flushed data."""
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        header = store.header_path.read_text()
        store.header_path.write_text(header.replace('"count": 2', '"count": 9'))
        assert store.read_safe() is None
        assert "shorter than header" in str(store.last_read_error)

    def test_counter_resets_on_success(self, store):
        store.header_path.write_text("garbage")
        assert store.read_safe() is None
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        assert store.read_safe() is not None
        assert store.consecutive_unreadable == 0

    def test_bounded_retry_raises(self, tmp_path):
        store = MemmapCovarianceStore(tmp_path / "s", max_unreadable_reads=3)
        try:
            store.header_path.parent.mkdir(parents=True, exist_ok=True)
            store.header_path.write_text("garbage")
            assert store.read_safe() is None
            assert store.read_safe() is None
            with pytest.raises(CovarianceReadError, match="3 consecutive"):
                store.read_safe()
        finally:
            store.close()

    def test_failed_header_replace_leaves_state_unchanged(
        self, store, monkeypatch
    ):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        store.append(np.ones((4, 1)), [2])

        import repro.util.fsio as fsio

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fsio, "durable_replace", failing_replace)
        with pytest.raises(OSError):
            store.publish()
        assert store.version == 1  # commit only after a successful replace
        monkeypatch.undo()
        snap = store.read_safe()  # old generation still served
        assert snap.version == 1
        assert snap.count == 2
        assert store.publish()
        assert store.read_safe().count == 3

    def test_concurrent_reader_never_sees_torn_snapshot(self, store):
        """Hammer the store: reader snapshots are always consistent."""
        errors = []
        stop = threading.Event()
        reader_store = MemmapCovarianceStore(store.workdir)

        def reader():
            while not stop.is_set():
                snap = reader_store.read_safe()
                if snap is None:
                    continue
                for col, mid in enumerate(snap.member_ids):
                    if not np.all(snap.columns[:, col] == mid):
                        errors.append(f"torn snapshot at version {snap.version}")
                        return

        t = threading.Thread(target=reader)
        t.start()
        try:
            for k in range(60):
                store.append(np.full((8, 1), float(k)), [k])
                store.publish()
        finally:
            stop.set()
            t.join()
            reader_store.close()
        assert errors == []

    def test_cleanup(self, store):
        store.append(np.ones((4, 2)), [0, 1])
        store.publish()
        store.cleanup()
        assert store.read_safe() is None
        assert not store.columns_path.exists()
