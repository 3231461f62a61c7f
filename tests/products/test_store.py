"""Product store publish/fetch protocol: versioning, checksums, recovery."""

import builtins
import hashlib
import io
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.util.fsio as fsio
from repro.products.store import (
    ProductNotFound,
    ProductPending,
    ProductReadError,
    ProductReader,
    ProductStore,
    ProductStoreError,
)
from tests.products.conftest import make_field, make_product


def header_bytes(raw: bytes) -> bytes:
    """The JSON header of one snapshot file's bytes (after its 8-byte length)."""
    return raw[8 : 8 + int.from_bytes(raw[:8], "little")]


@pytest.fixture()
def store(tmp_path):
    return ProductStore(tmp_path / "store", tile_size=8, levels=2)


def publish_one(store, cycle_index=0, seed=0):
    return store.publish(
        make_product(cycle_index), {"sst_nowcast": make_field(seed)}
    )


class TestPublish:
    def test_versions_are_monotone(self, store):
        assert store.version == 0
        assert publish_one(store, 0) == 1
        assert publish_one(store, 1) == 2
        assert store.version == 2

    def test_on_disk_layout(self, store):
        publish_one(store)
        vdir = store.workdir / "v00000001"
        assert [p.name for p in vdir.iterdir()] == ["snapshot"]
        raw = (vdir / "snapshot").read_bytes()
        head = json.loads((store.workdir / "HEAD.json").read_text())
        assert head == {
            "version": 1,
            "dir": "v00000001",
            "checksum": hashlib.sha256(header_bytes(raw)).hexdigest(),
        }
        header = json.loads(header_bytes(raw))
        assert (header["version"], header["cycle_index"]) == (1, 0)
        assert header["product"] == make_product(0).to_dict()
        start = 8 + len(header_bytes(raw))
        assert start % 8 == 0  # every array starts aligned
        table = {key: (dtype, shape) for key, dtype, shape in header["arrays"]}
        assert table["sst_nowcast__L0"] == ("<f8", [20, 24])
        assert table["sst_nowcast__count"] == ("<i8", [3, 3])
        nbytes = sum(8 * np.prod(shape) for _, shape in table.values())
        assert len(raw) == start + nbytes

    def test_empty_fields_rejected(self, store):
        with pytest.raises(ProductStoreError, match="at least one field"):
            store.publish(make_product(), {})

    def test_stale_version_dir_is_rebuilt(self, store):
        # a dead attempt left v00000001/ behind, never named by HEAD
        stale = store.workdir / "v00000001"
        stale.mkdir(parents=True)
        (stale / "snapshot.tmp").write_bytes(b"half a snapshot")
        (stale / "junk").write_text("leftover from a crashed publish")
        assert publish_one(store) == 1
        assert [p.name for p in stale.iterdir()] == ["snapshot"]
        assert ProductReader(store.workdir).fetch().version == 1

    def test_snapshot_is_durable_before_head_names_it(self, store, monkeypatch):
        # fsync(2): the snapshot's name inside v<k>/ is durable only once
        # the directory is fsynced, and HEAD must not name it before
        events = []
        real_path, real_dir, real_replace = fsio.fsync_path, fsio.fsync_dir, os.replace

        def fsync_path(path):
            events.append(("fsync", Path(path)))
            real_path(path)

        def fsync_dir(path):
            events.append(("fsync_dir", Path(path)))
            real_dir(path)

        def replace(src, dst):
            events.append(("replace", Path(src), Path(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(fsio, "fsync_path", fsync_path)
        monkeypatch.setattr(fsio, "fsync_dir", fsync_dir)
        monkeypatch.setattr(os, "replace", replace)
        publish_one(store)
        workdir, head = store.workdir.resolve(), store.head_path
        vdir = store.workdir / "v00000001"
        # fsync_dir fsyncs through fsync_path: keep the directory's one event
        events = [e for e in events if not (e[0] == "fsync" and e[1].is_dir())]
        assert events == [
            ("fsync", vdir / "snapshot.tmp"),
            ("replace", vdir / "snapshot.tmp", vdir / "snapshot"),
            ("fsync_dir", vdir.resolve()),
            ("fsync", fsio.staging_path(head)),
            ("replace", fsio.staging_path(head), head),
            ("fsync_dir", workdir),
        ]

    def test_retain_window_retires_old_versions(self, tmp_path):
        store = ProductStore(tmp_path / "s", retain=2)
        for k in range(4):
            publish_one(store, k, seed=k)
        names = sorted(p.name for p in store.workdir.glob("v*"))
        assert names == ["v00000003", "v00000004"]

    def test_retain_validation(self, tmp_path):
        with pytest.raises(ValueError, match="retain"):
            ProductStore(tmp_path / "s", retain=0)

    def test_restart_resumes_version_counter(self, store):
        publish_one(store, 0)
        publish_one(store, 1)
        resumed = ProductStore(store.workdir)
        assert resumed.version == 2
        assert publish_one(resumed, 2) == 3


class TestFetch:
    def test_before_first_publish(self, store):
        reader = ProductReader(store.workdir)
        assert reader.read_head() is None
        assert reader.latest_version() is None
        assert reader.fetch() is None
        with pytest.raises(ProductPending):
            reader.fetch(1)

    def test_latest_round_trips_product_and_fields(self, store):
        field = make_field(3)
        product = make_product(5)
        store.publish(product, {"sst_nowcast": field})
        snapshot = ProductReader(store.workdir).fetch()
        assert snapshot.version == 1
        assert snapshot.cycle_index == 5
        assert snapshot.product == product
        np.testing.assert_array_equal(
            snapshot.fields["sst_nowcast"].level(0), field
        )

    def test_pinned_version_stays_fetchable(self, store):
        publish_one(store, 0, seed=0)
        publish_one(store, 1, seed=1)
        reader = ProductReader(store.workdir)
        assert reader.fetch(1).version == 1
        assert reader.fetch(2).version == 2
        assert reader.fetch().version == 2

    def test_future_version_is_pending(self, store):
        publish_one(store)
        with pytest.raises(ProductPending, match="still publishing"):
            ProductReader(store.workdir).fetch(7)

    def test_retired_version_not_found(self, tmp_path):
        store = ProductStore(tmp_path / "s", retain=1)
        publish_one(store, 0, seed=0)
        publish_one(store, 1, seed=1)
        with pytest.raises(ProductNotFound, match="retired"):
            ProductReader(store.workdir).fetch(1)

    def test_snapshot_checksum_matches_head(self, store):
        publish_one(store)
        reader = ProductReader(store.workdir)
        assert reader.fetch().checksum == reader.read_head()["checksum"]


class TestOnePassIO:
    def test_manifest_sums_are_the_files_on_disk(self, store):
        publish_one(store)
        publish_one(store, 1, seed=1)
        reader = ProductReader(store.workdir)
        for version, vdir in enumerate(sorted(store.workdir.glob("v*")), 1):
            raw = (vdir / "snapshot").read_bytes()
            header = header_bytes(raw)
            snapshot = reader.fetch(version)
            assert snapshot.checksum == hashlib.sha256(header).hexdigest()
            assert snapshot.manifest["sha256"] == (
                hashlib.sha256(raw[8 + len(header) :]).hexdigest()
            )
        assert reader.read_head()["checksum"] == snapshot.checksum

    def test_fetch_opens_each_payload_file_once(self, store, monkeypatch):
        publish_one(store)
        opened = Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[Path(file).name] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        snapshot = ProductReader(store.workdir).fetch()
        monkeypatch.undo()
        assert snapshot is not None and snapshot.version == 1
        assert opened == {"HEAD.json": 1, "snapshot": 1}

    def test_head_checksum_is_pinned(self, store):
        # Digest of the header of the same fields and product: the
        # header's bytes (and with them every ETag) must not move.
        publish_one(store)
        head = json.loads(store.head_path.read_text())
        assert head["checksum"] == (
            "d126b32daf7763d0fb7fa3f2893bc2faa63a051a60f609f65f0a4dad6a4540df"
        )

    def test_loaded_arrays_are_read_only(self, store):
        publish_one(store)
        field = ProductReader(store.workdir).fetch().fields["sst_nowcast"]
        assert not field.level(0).flags.writeable
        assert not field.statistics["mean"].flags.writeable


class TestUnreadableStates:
    def test_corrupt_head_reads_as_not_yet(self, store):
        publish_one(store)
        store.head_path.write_text("{ torn copy")
        reader = ProductReader(store.workdir)
        assert reader.read_head() is None
        assert reader.consecutive_unreadable == 1
        assert reader.last_read_error is not None

    def test_corrupt_payload_never_returned(self, store):
        publish_one(store)
        path = store.workdir / "v00000001" / "snapshot"
        path.write_bytes(path.read_bytes()[:-8])  # truncated mid-copy
        reader = ProductReader(store.workdir)
        assert reader.fetch() is None  # checksum mismatch, not torn data
        assert reader.consecutive_unreadable == 1

    @pytest.mark.parametrize(
        "old, new",
        [(b'"sst_max": 15.25', b'"sst_max": 15.26'), (b'"tile_size": 8', b'"tile_size": 9')],
        ids=["bulletin", "field-meta"],
    )
    def test_flipped_header_byte_is_unreadable_for_latest(self, store, old, new):
        """HEAD's checksum covers the bulletin and the field metadata too."""
        publish_one(store)
        path = store.workdir / "v00000001" / "snapshot"
        raw = path.read_bytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, new))
        reader = ProductReader(store.workdir)
        assert reader.fetch() is None
        assert "does not match HEAD" in str(reader.last_read_error)

    def test_unreadable_bound_raises(self, store):
        publish_one(store)
        store.head_path.write_text("not json at all")
        reader = ProductReader(store.workdir, max_unreadable_reads=3)
        assert reader.read_head() is None
        assert reader.read_head() is None
        with pytest.raises(ProductReadError, match="3 consecutive"):
            reader.read_head()

    def test_successful_read_resets_the_bound(self, store):
        publish_one(store)
        reader = ProductReader(store.workdir, max_unreadable_reads=2)
        good_head = store.head_path.read_text()
        store.head_path.write_text("torn")
        assert reader.read_head() is None
        store.head_path.write_text(good_head)
        assert reader.read_head()["version"] == 1
        assert reader.consecutive_unreadable == 0

    def test_reader_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_unreadable_reads"):
            ProductReader(tmp_path, max_unreadable_reads=0)
