"""The durable-publish primitive's contract, stated once for every client.

``durable_write`` (stage -> fsync -> replace -> fsync dir) and the
versioned pointer on top of it (commit ordering and recovery on the
writer, bounded "unreadable reads as not-yet" on the reader).  What each
client adds is tested next to the client; what happens when the writer
dies at each step is ``test_fsio_killpoints.py``.
"""

import ast
import json
import os
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.util.fsio as fsio
from repro.util.fsio import PointerReader, PointerWriter, durable_write, staging_path


SRC = Path(fsio.__file__).resolve().parents[1]


class StoreGone(RuntimeError):
    """Stands in for a client's read-error class."""


class TestDurableWrite:
    def test_publishes_what_fill_writes(self, tmp_path):
        target = tmp_path / "value.json"
        durable_write(target, lambda fh: fh.write(b'{"k": 1}'))
        assert json.loads(target.read_text()) == {"k": 1}
        assert not staging_path(target).exists()

    def test_fill_gets_a_handle_savez_accepts(self, tmp_path):
        target = tmp_path / "member.npz"
        durable_write(target, lambda fh: np.savez(fh, forecast=np.arange(3.0)))
        with np.load(target) as data:
            assert list(data["forecast"]) == [0.0, 1.0, 2.0]

    def test_failed_fill_leaves_the_published_file_alone(self, tmp_path):
        target = tmp_path / "value.json"
        durable_write(target, lambda fh: fh.write(b"old"))

        def torn(fh):
            fh.write(b"ne")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            durable_write(target, torn)
        assert target.read_bytes() == b"old"
        durable_write(target, lambda fh: fh.write(b"new"))  # stale stage overwritten
        assert target.read_bytes() == b"new"

    def test_staged_beside_the_target_outside_its_glob(self, tmp_path):
        staged = staging_path(tmp_path / "pemodel.3.status")
        assert staged.parent == tmp_path
        assert not staged.match("*.status")

    def test_staged_bytes_are_fsynced_before_the_replace(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(fsio, "fsync_path", lambda p: calls.append(("fsync", p)))
        real_replace = fsio.os.replace

        def replace(src, dst):
            calls.append(("replace", src))
            real_replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", replace)
        monkeypatch.setattr(fsio, "fsync_dir", lambda p: calls.append(("dir", p)))
        target = tmp_path / "x"
        durable_write(target, lambda fh: fh.write(b"1"))
        staged = staging_path(target)
        assert calls == [("fsync", staged), ("replace", staged), ("dir", tmp_path)]


class TestPointerWriter:
    def test_versions_count_up_from_one(self, tmp_path):
        writer = PointerWriter(tmp_path / "HEAD.json")
        assert (writer.version, writer.record) == (0, {})
        assert writer.commit(count=4) == 1
        assert writer.commit(count=5) == 2
        assert json.loads(writer.path.read_text()) == {"version": 2, "count": 5}
        assert writer.record == {"version": 2, "count": 5}

    def test_reopened_writer_resumes_version_and_record(self, tmp_path):
        PointerWriter(tmp_path / "p").commit(count=4, state_dim=9)
        resumed = PointerWriter(tmp_path / "p")
        assert resumed.version == 1
        assert resumed.record["count"] == 4
        assert resumed.commit(count=5, state_dim=9) == 2

    @pytest.mark.parametrize("junk", ["", "{ torn", "[1]", '{"version": "x"}'])
    def test_unparsable_pointer_starts_over(self, tmp_path, junk):
        (tmp_path / "p").write_text(junk)
        assert PointerWriter(tmp_path / "p").version == 0

    def test_payload_is_durable_before_the_pointer_names_it(
        self, tmp_path, monkeypatch
    ):
        order = []
        monkeypatch.setattr(fsio, "fsync_path", lambda p: order.append(p.name))
        payload = tmp_path / "columns.bin"
        payload.write_bytes(b"data")
        PointerWriter(tmp_path / "p").commit([payload], count=1)
        assert order[:2] == ["columns.bin", "p.tmp"]

    def test_failed_commit_burns_no_version(self, tmp_path, monkeypatch):
        writer = PointerWriter(tmp_path / "p")
        writer.commit(count=1)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(fsio.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            writer.commit(count=2)
        monkeypatch.undo()
        assert (writer.version, writer.record["count"]) == (1, 1)
        assert PointerReader(writer.path, StoreGone).read()["count"] == 1
        assert writer.commit(count=2) == 2  # the retry reuses the number

    def test_commits_within_one_clock_tick_get_distinct_signatures(self, tmp_path):
        """Two pointers sharing inode number, size and clock tick must still
        differ in ``os.stat``: every commit stamps a later ``mtime_ns`` than
        the last, seeded from the file found on opening (here one whose
        stamp lies past the clock, so the clock alone cannot order them)."""
        path = tmp_path / "HEAD.json"
        PointerWriter(path).commit(dir="v00000001")
        ahead = os.stat(path).st_mtime_ns + 10**12
        os.utime(path, ns=(ahead, ahead))
        writer = PointerWriter(path)
        stamps = []
        for _ in range(3):
            writer.commit(dir="v00000001")  # the same size every time
            stamps.append(os.stat(path).st_mtime_ns)
        assert ahead < stamps[0] < stamps[1] < stamps[2]


class TestPointerReader:
    """The bounded-retry contract every reader shares."""

    @pytest.fixture()
    def path(self, tmp_path):
        return tmp_path / "HEAD.json"

    def test_none_before_the_first_publish_is_not_a_failure(self, path):
        reader = PointerReader(path, StoreGone, max_unreadable_reads=1)
        assert reader.read() is None
        assert reader.read() is None
        assert reader.consecutive_unreadable == 0

    def test_returns_what_load_makes_of_the_record(self, path):
        PointerWriter(path).commit(count=3)
        reader = PointerReader(path, StoreGone)
        assert reader.read() == {"version": 1, "count": 3}
        assert reader.read(lambda record: record["count"] * 2) == 6

    def test_none_until_the_bound_then_the_clients_error(self, path):
        path.write_text("{ torn copy")
        reader = PointerReader(path, StoreGone, max_unreadable_reads=3)
        assert reader.read() is None
        assert reader.read() is None
        assert reader.consecutive_unreadable == 2
        with pytest.raises(StoreGone, match="HEAD.json unreadable 3 consecutive"):
            reader.read()
        assert isinstance(reader.last_read_error, ValueError)

    @pytest.mark.parametrize(
        "junk", ["[1, 2]", '{"count": 3}', '{"version": 0}', '{"version": "x"}']
    )
    def test_a_record_without_a_plausible_version_is_unreadable(self, path, junk):
        path.write_text(junk)
        reader = PointerReader(path, StoreGone)
        assert reader.read() is None
        assert reader.consecutive_unreadable == 1

    def test_what_load_raises_counts_toward_the_same_bound(self, path):
        """A good pointer over a bad payload is still an unreadable store."""
        PointerWriter(path).commit(count=3)
        reader = PointerReader(path, StoreGone, max_unreadable_reads=2)

        def short_payload(record):
            raise ValueError("columns file shorter than header claims")

        assert reader.read(short_payload) is None
        with pytest.raises(StoreGone, match="shorter than header") as err:
            reader.read(short_payload)
        assert isinstance(err.value.__cause__, ValueError)

    def test_one_good_read_resets_the_count(self, path):
        writer = PointerWriter(path)
        writer.commit(count=1)
        good = path.read_text()
        reader = PointerReader(path, StoreGone, max_unreadable_reads=2)
        path.write_text("torn")
        assert reader.read() is None
        path.write_text(good)
        assert reader.read()["version"] == 1
        assert reader.consecutive_unreadable == 0
        assert reader.last_read_error is None
        path.write_text("torn")
        assert reader.read() is None  # one, not two: no error yet

    def test_bound_validation(self, path):
        with pytest.raises(ValueError, match="max_unreadable_reads"):
            PointerReader(path, StoreGone, max_unreadable_reads=0)


def rename_sites(tree, scope=""):
    """``Class.func`` of every call under ``tree`` that renames a file:
    ``os.replace`` / ``os.rename``, or a one-argument ``.replace(x)`` /
    ``.rename(x)`` method call (``Path``'s; ``str.replace`` takes two)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from rename_sites(node, f"{scope}.{node.name}".lstrip("."))
            continue
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and func.attr in ("replace", "rename"):
            via_os = isinstance(func.value, ast.Name) and func.value.id == "os"
            if via_os or (len(node.args) == 1 and not node.keywords):
                yield scope
        yield from rename_sites(node, scope)


class TestRenameSiteAllowlist:
    """A rename is a publish, and ``durable_replace`` is where publishes are
    made durable (stage fsynced before, directory after).  Six bare
    ``os.replace`` publishes were once found in the tree; a product version
    is one file published through the primitive, so it is the one site."""

    ALLOWED = {("util/fsio.py", "durable_replace")}

    def test_files_are_renamed_only_through_the_durable_primitive(self):
        sites = {
            (path.relative_to(SRC).as_posix(), scope)
            for path in sorted(SRC.rglob("*.py"))
            for scope in rename_sites(ast.parse(path.read_text()))
        }
        assert sites == self.ALLOWED

    def test_pr8_unfsynced_head_publish_is_a_site(self):
        """The pre-fix ``products/store.py``: staged JSON published with a
        bare ``os.replace``, so a crash could leave an empty ``HEAD.json``."""
        planted = """\
            class ProductStore:
                def _publish_head(self, head):
                    tmp = self.head_path.with_suffix(".tmp")
                    tmp.write_text(json.dumps(head))
                    os.replace(tmp, self.head_path)

                def _publish_head_pathlib(self, head, tmp):
                    tmp.replace(self.head_path)
            """
        assert list(rename_sites(ast.parse(textwrap.dedent(planted)))) == [
            "ProductStore._publish_head",
            "ProductStore._publish_head_pathlib",
        ]
