"""Kill the writer at every step of the durable-publish primitive.

The primitive (``repro.util.fsio``) publishes in five steps: write the
staged file, fsync the payload the pointer vouches for, fsync the staged
file, replace, fsync the directory.  Each step is made to raise for each
client of the primitive -- the covariance column store, the product
store and the status directory.  The product store adds no step of its
own: it writes a version's one file with the primitive, then its
pointer, so each step is killed once in the file's write
(``ProductStore``) and once in the pointer's (``ProductHead``).  After
the kill a *fresh* reader must see version ``k`` or ``k + 1`` in full
(never a mixture, never an exception) and a *fresh* writer on the same
directory must recover and publish the next version up.
"""

import itertools
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

    def writelines(self, chunks):
        self.write(b"".join(chunks))


def is_staged(path):
    """Whether ``path`` is a staged file, by the primitive's own naming rule."""
    return Path(path).suffix == fsio.staging_path("x").suffix


def kill_at(step, monkeypatch, nth=1):
    """Make the ``nth`` call of one step of the primitive raise :class:`Killed`."""
    calls = itertools.count(1)

    def die_if(condition, real):
        def run_or_die(path, *rest):
            if condition(path) and next(calls) == nth:
                raise Killed(step)
            return real(path, *rest)

        return run_or_die

    def open_or_die(path, mode):
        return DyingFile(path, mode) if next(calls) == nth else open(path, mode)

    if step == "stage_write":
        monkeypatch.setattr(fsio, "open", open_or_die, raising=False)
    elif step == "payload_fsync":
        real = fsio.fsync_path
        monkeypatch.setattr(
            fsio, "fsync_path", die_if(lambda p: not is_staged(p), real)
        )
    elif step == "file_fsync":
        monkeypatch.setattr(fsio, "fsync_path", die_if(is_staged, fsio.fsync_path))
    elif step == "replace":
        monkeypatch.setattr(fsio.os, "replace", die_if(is_staged, fsio.os.replace))
    elif step == "dir_fsync":
        monkeypatch.setattr(fsio, "fsync_dir", die_if(lambda p: True, fsio.fsync_dir))
    else:
        raise AssertionError(step)


class Client:
    """Which call of a step a case kills, and which kills land ``k + 1``."""

    #: The call of the step to kill: the first, the pointer's, unless the
    #: client writes a file of its own before its pointer.
    nth = 1
    #: The steps whose kill leaves ``k + 1`` visible: the replace decides.
    landed = ("dir_fsync",)


class ColumnStoreClient(Client):
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


class ProductStoreClient(Client):
    """Version ``v`` carries cycle ``v`` and a field filled with ``v``.

    Killed in the write of the version's file: HEAD never names it.
    """

    steps = ("stage_write", "file_fsync", "replace", "dir_fsync")  # no payload
    landed = ()

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


class ProductHeadClient(ProductStoreClient):
    """The same store killed in the second write, HEAD's."""

    nth = 2
    landed = Client.landed


class StatusDirClient(Client):
    """"Version" ``v`` is the status code ``v`` of one task, attempt ``v``."""

    steps = ProductStoreClient.steps

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
    for client in (ColumnStoreClient, ProductStoreClient, ProductHeadClient, StatusDirClient)
    for step in client.steps
]


@pytest.mark.parametrize("make_client, step", CASES)
def test_kill_then_fresh_reader_and_writer(make_client, step, tmp_path, monkeypatch):
    client = make_client(tmp_path / "store")
    k = client.publish()
    assert client.read() == k == 1

    kill_at(step, monkeypatch, client.nth)
    with pytest.raises(Killed, match=step):
        client.publish()
    monkeypatch.undo()

    seen = client.read()  # a fresh reader: k or k + 1, whole
    assert seen == (k + 1 if step in client.landed else k)

    reborn = make_client(client.root)  # a fresh writer recovers...
    assert reborn.publish() == seen + 1  # ...and versions only go up
    assert reborn.read() == seen + 1
    assert reborn.publish() == seen + 2
    assert reborn.read() == seen + 2
