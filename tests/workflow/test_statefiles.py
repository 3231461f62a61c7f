"""Unit tests for per-index status files."""

import pytest

from repro.workflow.statefiles import StatusDirectory, TaskStatus


@pytest.fixture()
def status(tmp_path):
    return StatusDirectory(tmp_path / "status")


class TestBasics:
    def test_round_trip(self, status):
        status.write("pemodel", 7, TaskStatus.SUCCESS)
        assert status.read("pemodel", 7) == TaskStatus.SUCCESS
        assert status.succeeded("pemodel", 7)

    def test_unreported_is_none(self, status):
        assert status.read("pemodel", 0) is None
        assert not status.succeeded("pemodel", 0)

    def test_failure_codes(self, status):
        status.write("pemodel", 1, TaskStatus.MODEL_FAILURE)
        assert status.read("pemodel", 1) == TaskStatus.MODEL_FAILURE
        assert not status.succeeded("pemodel", 1)

    def test_overwrite_allowed(self, status):
        status.write("pert", 0, TaskStatus.MODEL_FAILURE)
        status.write("pert", 0, TaskStatus.SUCCESS)
        assert status.succeeded("pert", 0)

    def test_kinds_are_separate(self, status):
        status.write("pert", 3, TaskStatus.SUCCESS)
        assert status.read("pemodel", 3) is None

    def test_invalid_kind(self, status):
        with pytest.raises(ValueError, match="kind"):
            status.write("a.b", 0, TaskStatus.SUCCESS)
        with pytest.raises(ValueError, match="kind"):
            status.write("", 0, TaskStatus.SUCCESS)

    def test_invalid_index(self, status):
        with pytest.raises(ValueError, match="index"):
            status.write("pert", -1, TaskStatus.SUCCESS)


class TestScans:
    def test_completed_indices(self, status):
        status.write("pemodel", 0, TaskStatus.SUCCESS)
        status.write("pemodel", 5, TaskStatus.MODEL_FAILURE)
        status.write("pemodel", 2, TaskStatus.CANCELLED)
        done = status.completed_indices("pemodel")
        assert done == {
            0: TaskStatus.SUCCESS,
            5: TaskStatus.MODEL_FAILURE,
            2: TaskStatus.CANCELLED,
        }

    def test_foreign_files_ignored(self, status, tmp_path):
        (status.root / "pemodel.notanint.status").write_text("0\n")
        (status.root / "pemodel.3.status").write_text("garbage\n")
        status.write("pemodel", 1, TaskStatus.SUCCESS)
        assert status.completed_indices("pemodel") == {1: TaskStatus.SUCCESS}

    def test_clear(self, status):
        status.write("pert", 0, TaskStatus.SUCCESS)
        status.write("pemodel", 0, TaskStatus.SUCCESS)
        assert status.clear("pert") == 1
        assert status.read("pert", 0) is None
        assert status.read("pemodel", 0) is not None
        assert status.clear() == 1


class TestBatchRecords:
    """One record per batch attempt; every scan still answers per member."""

    def test_one_file_names_its_members(self, status):
        status.write_batch("pemodel", [0, 1, 3], TaskStatus.SUCCESS, attempt=1)
        assert [p.name for p in status.root.iterdir()] == ["pemodel.0-3.a1.status"]
        assert status.completed_indices("pemodel") == dict.fromkeys(
            (0, 1, 3), TaskStatus.SUCCESS
        )
        assert status.read("pemodel", 1) is None  # no plain record

    def test_member_outcomes_across_attempts(self, status):
        # member 2 crashed alone, its batch-mates succeeded; then it
        # succeeded alone at attempt 2
        status.write_batch("pemodel", [0, 1, 3], TaskStatus.SUCCESS, attempt=1)
        status.write_batch("pemodel", [2], TaskStatus.MODEL_FAILURE, attempt=1)
        status.write_batch("pemodel", [2], TaskStatus.SUCCESS, attempt=2)
        assert status.completed_indices("pemodel") == dict.fromkeys(
            range(4), TaskStatus.SUCCESS
        )
        assert sorted(p.name for p in status.root.iterdir()) == [
            "pemodel.0-3.a1.status",
            "pemodel.2.a1.status",
            "pemodel.2.a2.status",
        ]

    def test_a_failure_outranks_the_success_of_the_same_attempt(self, status):
        """A torn batch file: the attempt wrote SUCCESS, the differ IO_FAILURE."""
        status.write_batch("pemodel", [4, 5], TaskStatus.SUCCESS, attempt=1)
        for member in (4, 5):
            status.write_batch("pemodel", [member], TaskStatus.IO_FAILURE, attempt=1)
        assert status.completed_indices("pemodel") == dict.fromkeys(
            (4, 5), TaskStatus.IO_FAILURE
        )

    def test_a_plain_record_supersedes_attempt_records(self, status):
        status.write_batch("pemodel", [6], TaskStatus.MODEL_FAILURE, attempt=1)
        status.write("pemodel", 6, TaskStatus.CANCELLED)  # its retry never ran
        assert status.completed_indices("pemodel") == {6: TaskStatus.CANCELLED}

    def test_clear_removes_batch_records(self, status):
        status.write_batch("pemodel", [0, 1], TaskStatus.SUCCESS, attempt=1)
        assert status.clear("pemodel") == 1
        assert status.completed_indices("pemodel") == {}
