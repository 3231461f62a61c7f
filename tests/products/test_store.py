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

#: The files the HEAD checksum covers, next to each version's manifest.
PAYLOAD_FILES = ("fields.npz", "product.json")


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
        assert (vdir / "manifest.json").exists()
        assert (vdir / "fields.npz").exists()
        assert (vdir / "product.json").exists()
        head = json.loads((store.workdir / "HEAD.json").read_text())
        manifest = json.loads((vdir / "manifest.json").read_text())
        assert head == {
            "version": 1, "dir": "v00000001", "checksum": manifest["checksum"],
        }

    def test_empty_fields_rejected(self, store):
        with pytest.raises(ProductStoreError, match="at least one field"):
            store.publish(make_product(), {})

    def test_stale_stage_dir_is_replaced(self, store):
        stale = store.workdir / ".stage-v00000001"
        stale.mkdir(parents=True)
        (stale / "junk").write_text("leftover from a crashed publish")
        assert publish_one(store) == 1
        assert not stale.exists()

    def test_staged_directory_is_fsynced_before_its_rename(self, store, monkeypatch):
        # fsync(2): the names inside v<k>/ are durable only once the
        # directory itself is fsynced, and HEAD must not name them before
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
        stage = store.workdir / ".stage-v00000001"
        rename = events.index(("replace", stage, store.workdir / "v00000001"))
        dir_sync = events.index(("fsync_dir", stage))
        assert dir_sync < rename
        for name in PAYLOAD_FILES + ("manifest.json",):
            assert events.index(("fsync", stage / name)) < dir_sync
        head = [i for i, e in enumerate(events) if e[0] == "replace" and e[2] == store.head_path]
        assert head and head[0] > rename

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
        for vdir in sorted(store.workdir.glob("v*")):
            manifest = json.loads((vdir / "manifest.json").read_text())
            assert sorted(manifest["payload"]) == sorted(PAYLOAD_FILES)
            for name, digest in manifest["payload"].items():
                assert digest == hashlib.sha256((vdir / name).read_bytes()).hexdigest()

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
        assert {name: opened[name] for name in PAYLOAD_FILES} == dict.fromkeys(
            PAYLOAD_FILES, 1
        )

    def test_head_checksum_is_pinned(self, store):
        # Digest of the same fields and product as published by the
        # per-tile implementation: the payload bytes (np.savez output and
        # the product JSON) and thus every ETag must not move.
        publish_one(store)
        head = json.loads(store.head_path.read_text())
        assert head["checksum"] == (
            "df05d878b3d8542efbb4f4d224bd684bc01165678c6d37ad270d20d8bfb0aa7f"
        )


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
        npz = store.workdir / "v00000001" / "fields.npz"
        npz.write_bytes(npz.read_bytes()[:-8])  # truncated mid-copy
        reader = ProductReader(store.workdir)
        assert reader.fetch() is None  # checksum mismatch, not torn data
        assert reader.consecutive_unreadable == 1

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
