"""The ``python -m tools.lint`` command line, driven through ``main()``."""

import json
import textwrap
from pathlib import Path

from tools.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _bad_repo(tmp_path):
    """A scratch repo with one REP001 violation."""
    mod = tmp_path / "src/repro/sched/mod.py"
    mod.parent.mkdir(parents=True)
    mod.write_text(
        textwrap.dedent(
            """\
            import numpy as np

            rng = np.random.default_rng()
            """
        )
    )
    return tmp_path


class TestRealTree:
    def test_repo_lints_clean(self, capsys):
        """Acceptance: `python -m tools.lint src/repro tests benchmarks tools`
        exits 0 -- the one whole-tree lint of tier-1, over what ci.sh lints."""
        trees = ["src/repro", "tests", "benchmarks", "tools"]
        code = main([*trees, "--root", str(REPO_ROOT), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"] == []
        assert code == 0
        assert doc["files"] > 100


class TestExitCodes:
    def test_findings_exit_1(self, tmp_path, capsys):
        root = _bad_repo(tmp_path)
        code = main(["src/repro", "--root", str(root)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_bad_path_exit_2(self, tmp_path):
        assert main(["no/such/path", "--root", str(tmp_path)]) == 2

    def test_unknown_select_exit_2(self, tmp_path):
        _bad_repo(tmp_path)
        code = main(["src/repro", "--root", str(tmp_path), "--select", "REP999"])
        assert code == 2


class TestJsonFormat:
    def test_findings_carry_fingerprints(self, tmp_path, capsys):
        root = _bad_repo(tmp_path)
        code = main(
            [
                "src/repro",
                "--root",
                str(root),
                "--select",
                "REP001",
                "--format",
                "json",
            ]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        (finding,) = doc["findings"]
        assert finding["rule"] == "REP001"
        assert finding["fingerprint"].startswith("src/repro/sched/mod.py::REP001::")


class TestDeveloperHelp:
    def test_explain_every_rule(self, capsys):
        for rule_id in ("REP001", "REP002", "REP005", "REP009"):
            assert main(["--explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert rule_id in out
            assert "Bad" in out and "Good" in out

    def test_explain_unknown_rule_exit_2(self, capsys):
        assert main(["--explain", "REP999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP005", "REP009"):
            assert rule_id in out


class TestChangedOnly:
    """``--changed-only`` narrows the lint run to git-modified files."""

    def _two_file_repo(self, tmp_path):
        root = _bad_repo(tmp_path)
        clean = root / "src/repro/sched/clean.py"
        clean.write_text('"""Nothing to see."""\n\nVALUE = 1\n')
        return root, root / "src/repro/sched/mod.py", clean

    def test_only_changed_files_are_linted(self, tmp_path, capsys, monkeypatch):
        root, bad, clean = self._two_file_repo(tmp_path)
        monkeypatch.setattr(
            "tools.lint.cli._git_changed_files",
            lambda r: {clean.resolve()},
        )
        code = main(
            [
                "src/repro",
                "--root",
                str(root),
                "--changed-only",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["files"] == 1
        assert doc["findings"] == []

    def test_changed_bad_file_still_fires(self, tmp_path, capsys, monkeypatch):
        root, bad, clean = self._two_file_repo(tmp_path)
        monkeypatch.setattr(
            "tools.lint.cli._git_changed_files",
            lambda r: {bad.resolve()},
        )
        code = main(
            ["src/repro", "--root", str(root), "--changed-only"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "1 file(s)" in out

    def test_empty_changed_set_exits_0(self, tmp_path, capsys, monkeypatch):
        root, _, _ = self._two_file_repo(tmp_path)
        monkeypatch.setattr(
            "tools.lint.cli._git_changed_files", lambda r: set()
        )
        code = main(
            ["src/repro", "--root", str(root), "--changed-only"]
        )
        assert code == 0
        assert "0 file(s)" in capsys.readouterr().out

    def test_git_failure_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        from tools.lint.core import LintError

        root, _, _ = self._two_file_repo(tmp_path)

        def boom(r):
            raise LintError("--changed-only needs git")

        monkeypatch.setattr("tools.lint.cli._git_changed_files", boom)
        code = main(["src/repro", "--root", str(root), "--changed-only"])
        assert code == 2
        assert "needs git" in capsys.readouterr().err
