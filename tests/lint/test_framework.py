"""Framework mechanics: fingerprints, suppressions, discovery."""

import textwrap

import pytest

from tools.lint.core import (
    Finding,
    LintError,
    Suppressions,
    iter_python_files,
    run_lint,
)


def _finding(symbol="open_columns:columns", path="src/repro/x.py", line=10):
    return Finding(
        rule="REP009", path=path, line=line, message="leaked", symbol=symbol
    )


class TestFingerprints:
    def test_fingerprint_is_line_free(self):
        a = _finding(line=10)
        b = _finding(line=99)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_symbol_and_path(self):
        assert _finding().fingerprint != _finding(symbol="other").fingerprint
        assert _finding().fingerprint != _finding(path="src/repro/y.py").fingerprint

    def test_fingerprint_survives_edits_above(self, tmp_path):
        """Inserting lines above a finding must not change its identity."""
        snippet = """\
        import numpy as np

        rng = np.random.default_rng()
        """
        path = tmp_path / "src/repro/sched/mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(snippet))
        before = run_lint([path], root=tmp_path, select=["REP001"]).findings

        path.write_text("# a comment\n# another\n" + textwrap.dedent(snippet))
        after = run_lint([path], root=tmp_path, select=["REP001"]).findings

        assert before[0].line != after[0].line
        assert before[0].fingerprint == after[0].fingerprint


class TestSuppressionParsing:
    def test_parse_inline_and_file_directives(self):
        supp = Suppressions.parse(
            "x = 1  # repro-lint: disable=REP001,REP002\n"
            "# repro-lint: disable-file=REP009\n"
        )
        assert supp.by_line[1] == {"REP001", "REP002"}
        assert supp.whole_file == {"REP009"}

    def test_covers_matches_rule_line_and_all(self):
        supp = Suppressions.parse("x = 1  # repro-lint: disable=REP001\n")
        hit = Finding("REP001", "f.py", 1, "m", "s")
        other_rule = Finding("REP002", "f.py", 1, "m", "s")
        other_line = Finding("REP001", "f.py", 2, "m", "s")
        assert supp.covers(hit)
        assert not supp.covers(other_rule)
        assert not supp.covers(other_line)

        supp_all = Suppressions.parse("x = 1  # repro-lint: disable=all\n")
        assert supp_all.covers(other_rule)


class TestDiscoveryAndDriver:
    def test_iter_python_files_expands_dirs_sorted(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text("")
        (tmp_path / "pkg" / "a.py").write_text("")
        (tmp_path / "pkg" / "notes.txt").write_text("")
        files = iter_python_files(["pkg"], root=tmp_path)
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_iter_python_files_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            iter_python_files(["no/such/dir"], root=tmp_path)

    def test_run_lint_unknown_rule_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("")
        with pytest.raises(LintError):
            run_lint(["m.py"], root=tmp_path, select=["REP999"])

    def test_syntax_error_is_lint_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(LintError):
            run_lint(["broken.py"], root=tmp_path)
