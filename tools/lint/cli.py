"""``python -m tools.lint``: the repro-lint command line.

Examples
--------
Lint the default targets (the four trees ``tools/ci.sh`` and tier-1 lint)::

    python -m tools.lint

Lint specific paths, machine-readable::

    python -m tools.lint src/repro tests --format json

Developer help for one rule::

    python -m tools.lint --explain REP009

Exit codes: 0 clean, 1 findings, 2 usage / framework error.  There is no
baseline: a finding is fixed, or suppressed inline with a reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tools.lint.core import LintError, all_rules, iter_python_files, run_lint

#: Linted when no paths are given (matches tools/ci.sh and tier-1's
#: ``tests/lint/test_cli.py::TestRealTree``).
DEFAULT_PATHS = ("src/repro", "tests", "benchmarks", "tools")


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="repro-lint: AST-based determinism/clock/lock/layering/"
        "resource-lifecycle contracts for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root for relative paths (default: cwd)",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files changed vs git HEAD (plus untracked files)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="REP001,REP002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="REP00N",
        help="print the rationale and bad/good examples for one rule",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules"
    )
    return parser


def _git_changed_files(root: Path) -> set[Path]:
    """Files changed vs HEAD plus untracked files, as resolved paths.

    Raises :class:`LintError` when git is unavailable or the root is not
    a repository (tests monkeypatch this function instead of arranging
    a scratch repo).
    """
    changed: set[Path] = set()
    for cmd in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            raise LintError(f"--changed-only needs git at {root}: {exc}") from exc
        for line in proc.stdout.splitlines():
            if line.strip():
                changed.add((root / line.strip()).resolve())
    return changed


def _explain(rule_id: str) -> int:
    rules = all_rules()
    rule = rules.get(rule_id)
    if rule is None:
        print(
            f"unknown rule {rule_id!r}; known: {', '.join(sorted(rules))}",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} ({rule.name})")
    print(f"  {rule.summary}\n")
    print(rule.explanation.rstrip())
    return 0


def _list_rules() -> int:
    for rule in all_rules().values():
        print(f"{rule.id}  {rule.name:20s} {rule.summary}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()

    root = (args.root or Path.cwd()).resolve()
    select = args.select.split(",") if args.select else None

    try:
        paths: list = list(args.paths)
        if args.changed_only:
            changed = _git_changed_files(root)
            paths = [
                p for p in iter_python_files(paths, root)
                if p.resolve() in changed
            ]
        report = run_lint(paths, root=root, select=select)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files": report.n_files,
                    "findings": [f.to_dict() for f in report.findings],
                    "suppressed": report.n_suppressed,
                },
                indent=2,
            )
        )
    else:
        for finding in report.findings:
            print(finding.render())
        print(
            f"repro-lint: {len(report.findings)} finding(s) in "
            f"{report.n_files} file(s) ({report.n_suppressed} suppressed)"
        )
    return 1 if report.findings else 0


if __name__ == "__main__":
    sys.exit(main())
