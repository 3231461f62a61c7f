"""The AST scanner the two census tests share.

``tests/test_parameter_census.py`` (every defaulted field has a setter) and
``tests/test_name_census.py`` (every public name has a caller) read the
code outside ``tests/`` -- the trees of :data:`SCANNED` -- and each keeps a
list of exceptions that must equal a table in ROADMAP's "Standing rules".
This module holds what they share: the scanned roots, the file walk and
the table reader.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: The trees whose code counts as a caller or a setter: everything but tests.
SCANNED = ("src", "benchmarks", "examples", "tools")


@functools.cache
def parse(path: Path) -> ast.Module:
    """The syntax tree of one file (parsed once per test session)."""
    return ast.parse(path.read_text())


def trees(roots=SCANNED):
    """``(path, tree)`` for every ``.py`` file under the repo-relative ``roots``."""
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            yield path, parse(path)


def roadmap_table(header: str) -> set[str]:
    """The backticked names in the first column of ROADMAP's table ``header``."""
    text = (ROOT / "ROADMAP.md").read_text()
    assert header in text, f"ROADMAP.md has no table {header!r}"
    table = text.split(header, 1)[1].split("\n\n", 1)[0]
    listed = set()
    for line in table.splitlines()[2:]:
        listed.update(re.findall(r"`([\w.*]+)`", line.split("|")[1]))
    return listed
