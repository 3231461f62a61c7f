"""Kill the writer at every step of the durable-publish primitive.

The primitive (``repro.util.fsio``) publishes in five steps: write the
staged file, fsync the payload the pointer vouches for, fsync the staged
file, replace, fsync the directory.  Each step is made to raise for each
client of the primitive -- the covariance column store, the product
store and the status directory; the product store adds one step of its
own before the primitive runs, the fsync of its staged version directory
(``stage_dir_fsync``).  After the kill a *fresh* reader must see
version ``k`` or ``k + 1`` in full (never a mixture, never an exception)
and a *fresh* writer on the same directory must recover and publish the
next version up.
"""

from pathlib import Path

import numpy as np
import pytest

import repro.util.fsio as fsio
from repro.products.store import ProductReader, ProductStore
from repro.workflow.covfile import MemmapCovarianceStore
from repro.workflow.statefiles import StatusDirectory
from tests.products.conftest import make_product


class Killed(Exception):
    """The writer process dying at the injected step."""


class DyingFile:
    """A staged file whose write lands half its bytes before the kill."""

    def __init__(self, path, mode):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, data):
        Path(self.path).write_bytes(data[: len(data) // 2])
        raise Killed("stage_write")


def is_staged(path):
    """Whether ``path`` is a staged file, by the primitive's own naming rule."""
    return Path(path).suffix == fsio.staging_path("x").suffix


def is_stage_dir(path):
    """Whether ``path`` is a product version directory still being staged."""
    return Path(path).name.startswith(".stage-")


def kill_at(step, monkeypatch):
    """Make one step of the primitive raise :class:`Killed` from now on."""

    def die(*args):
        raise Killed(step)

    def die_if(condition, real):
        return lambda path, *rest: die() if condition(path) else real(path, *rest)

    if step == "stage_write":
        monkeypatch.setattr(fsio, "open", DyingFile, raising=False)
    elif step == "payload_fsync":
        real = fsio.fsync_path
        monkeypatch.setattr(
            fsio, "fsync_path", die_if(lambda p: not is_staged(p), real)
        )
    elif step == "file_fsync":
        monkeypatch.setattr(fsio, "fsync_path", die_if(is_staged, fsio.fsync_path))
    elif step == "replace":
        # only the primitive's replace: the product store's own rename of
        # its staged *directory* is not a step of the primitive
        monkeypatch.setattr(fsio.os, "replace", die_if(is_staged, fsio.os.replace))
    elif step == "dir_fsync":
        # the pointer's directory, after its replace: not a staged directory
        real = fsio.fsync_dir
        monkeypatch.setattr(
            fsio, "fsync_dir", die_if(lambda p: not is_stage_dir(p), real)
        )
    elif step == "stage_dir_fsync":
        monkeypatch.setattr(fsio, "fsync_dir", die_if(is_stage_dir, fsio.fsync_dir))
    else:
        raise AssertionError(step)


class ColumnStoreClient:
    """Version ``v`` holds ``v`` columns; column ``j`` is filled with ``j``."""

    steps = ("stage_write", "payload_fsync", "file_fsync", "replace", "dir_fsync")

    def __init__(self, root):
        self.root = root
        self.writer = MemmapCovarianceStore(root)

    def publish(self):
        k = self.writer.count
        self.writer.append(np.full((4, 1), float(k)), [k])
        self.writer.publish()
        return self.writer.version

    def read(self):
        snap = MemmapCovarianceStore(self.root).read_safe()
        if snap is None:
            return 0
        assert snap.count == snap.version
        assert list(snap.member_ids) == list(range(snap.count))
        assert np.array_equal(
            np.asarray(snap.columns), np.tile(np.arange(float(snap.count)), (4, 1))
        )
        return snap.version


class ProductStoreClient:
    """Version ``v`` carries cycle ``v`` and a field filled with ``v``."""

    steps = ColumnStoreClient.steps + ("stage_dir_fsync",)

    def __init__(self, root):
        self.root = root
        self.writer = ProductStore(root, tile_size=4, levels=1)

    def publish(self):
        v = self.writer.version + 1
        return self.writer.publish(make_product(v), {"sst": np.full((8, 8), float(v))})

    def read(self):
        snap = ProductReader(self.root).fetch()  # verifies every checksum
        if snap is None:
            return 0
        assert snap.cycle_index == snap.version
        assert np.all(snap.fields["sst"].level(0) == snap.version)
        return snap.version


class StatusDirClient:
    """"Version" ``v`` is the status code ``v`` of one task, attempt ``v``."""

    steps = ("stage_write", "file_fsync", "replace", "dir_fsync")  # no payload

    def __init__(self, root):
        self.root = root
        self.writer = StatusDirectory(root)

    def publish(self):
        v = (self.writer.read("pemodel", 3) or 0) + 1
        self.writer.write("pemodel", 3, v, attempt=v)
        return v

    def read(self):
        fresh = StatusDirectory(self.root)
        status = fresh.read("pemodel", 3)
        assert fresh.completed_indices("pemodel") == (
            {} if status is None else {3: status}
        )
        return int(status or 0)


CASES = [
    pytest.param(client, step, id=f"{client.__name__[:-6]}-{step}")
    for client in (ColumnStoreClient, ProductStoreClient, StatusDirClient)
    for step in client.steps
]


@pytest.mark.parametrize("make_client, step", CASES)
def test_kill_then_fresh_reader_and_writer(make_client, step, tmp_path, monkeypatch):
    client = make_client(tmp_path / "store")
    k = client.publish()
    assert client.read() == k == 1

    kill_at(step, monkeypatch)
    with pytest.raises(Killed, match=step):
        client.publish()
    monkeypatch.undo()

    seen = client.read()  # a fresh reader: k or k + 1, whole
    assert seen == (k + 1 if step == "dir_fsync" else k)  # the replace decides

    reborn = make_client(client.root)  # a fresh writer recovers...
    assert reborn.publish() == seen + 1  # ...and versions only go up
    assert reborn.read() == seen + 1
    assert reborn.publish() == seen + 2
    assert reborn.read() == seen + 2
