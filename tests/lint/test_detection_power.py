"""Detection-power tests: re-plant the real violations the rules found.

Each test names the shipped defect, replants the pre-fix shape of the
code, and asserts the rule fires on it -- then checks the shipped
(fixed) shape stays quiet.  If a refactor of the rules breaks one of
these, the rule has lost the power that justified it.  This file is the
arbiter of ROADMAP's "rules that have never caught anything get
deleted": the historical defects of deleted rules (REP003, REP004,
REP010, REP011) are guarded by the tier-1 tests listed in
``docs/STATIC_ANALYSIS.md``, or have no subject left, not here.
"""

from tests.lint.test_rules import lint


class TestREP009CatchesCovfileReadLeak:
    """The defect fixed in ``workflow/covfile.py`` ``read()``.

    The pre-fix order opened the column memmap first, then read and
    validated the member-id table; a truncated snapshot made the
    validation raise while the memmap's file handle was still open,
    leaking it on every torn-read retry.  The fix reads and validates
    the id table before opening the memmap.
    """

    BAD = """\
        import numpy as np

        def read_snapshot(path, state_dim, count, offset):
            columns = np.memmap(
                path, mode="r", shape=(state_dim, count), offset=offset
            )
            member_ids = np.fromfile(path, dtype=np.int64, count=count)
            if member_ids.size != count:
                raise ValueError("truncated snapshot")
            return columns, member_ids
        """

    FIXED = """\
        import numpy as np

        def read_snapshot(path, state_dim, count, offset):
            member_ids = np.fromfile(path, dtype=np.int64, count=count)
            if member_ids.size != count:
                raise ValueError("truncated snapshot")
            columns = np.memmap(
                path, mode="r", shape=(state_dim, count), offset=offset
            )
            return columns, member_ids
        """

    def test_pre_fix_read_order_fires(self, tmp_path):
        report = lint(
            tmp_path, "src/repro/workflow/covfile.py", self.BAD, select=["REP009"]
        )
        assert [f.rule for f in report.findings] == ["REP009"]
        assert "'columns'" in report.findings[0].message

    def test_shipped_fix_is_quiet(self, tmp_path):
        report = lint(
            tmp_path, "src/repro/workflow/covfile.py", self.FIXED, select=["REP009"]
        )
        assert report.findings == []
