"""Good/bad fixtures for the dataflow rule (REP009, resource lifecycle).

Same convention as ``test_rules.py``: every bad fixture fires exactly
the selected rule; its good twin (the idiomatic fix) stays quiet.
"""

from tests.lint.test_rules import lint


class TestREP009ResourceLifecycle:
    def test_leak_on_early_return_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import numpy as np

            def read(path, n):
                m = np.memmap(path, mode="r", shape=(n, 4))
                if n < 2:
                    return None
                m._mmap.close()
                return n
            """,
            select=["REP009"],
        )
        assert [f.rule for f in report.findings] == ["REP009"]
        assert "'m'" in report.findings[0].message

    def test_try_finally_release_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from concurrent.futures import ThreadPoolExecutor

            def run(tasks):
                pool = ThreadPoolExecutor(4)
                try:
                    return [pool.submit(t) for t in tasks]
                finally:
                    pool.shutdown()
            """,
            select=["REP009"],
        )
        assert report.findings == []

    def test_with_managed_resource_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            def read(path):
                with open(path) as fh:
                    return fh.read()
            """,
            select=["REP009"],
        )
        assert report.findings == []

    def test_rebinding_pending_resource_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import socket

            def connect(hosts):
                conn = socket.create_connection(hosts[0])
                conn = socket.create_connection(hosts[1])
                conn.close()
            """,
            select=["REP009"],
        )
        # The first connection is overwritten while still pending.
        assert len(report.findings) == 1
        assert report.findings[0].line == 4

    def test_return_escape_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import numpy as np

            def open_columns(path, shape):
                columns = np.memmap(path, mode="r", shape=shape)
                return Snapshot(columns=columns)
            """,
            select=["REP009"],
        )
        assert report.findings == []

    def test_store_on_self_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from multiprocessing.shared_memory import SharedMemory

            class Buffer:
                def attach(self, name):
                    shm = SharedMemory(name=name)
                    self._shm = shm
            """,
            select=["REP009"],
        )
        assert report.findings == []

    def test_takes_ownership_annotation_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            from multiprocessing.shared_memory import SharedMemory

            def attach(registry, name):
                shm = SharedMemory(name=name)
                registry.adopt(shm)  # repro-lint: takes-ownership -- registry closes on shutdown
            """,
            select=["REP009"],
        )
        assert report.findings == []

    def test_release_on_one_branch_only_fires(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/workflow/example.py",
            """\
            import socket

            def poke(host, really):
                conn = socket.create_connection(host)
                if really:
                    conn.close()
            """,
            select=["REP009"],
        )
        assert len(report.findings) == 1

    def test_os_open_close_pair_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            "src/repro/util/example.py",
            """\
            import os

            def fsync_path(path):
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            """,
            select=["REP009"],
        )
        assert report.findings == []
