#!/usr/bin/env python
"""Docs lint: the ``docs/`` pages are linked, their snippets compile, and
every ``repro.`` name the docs cite exists.

    python tools/check_docs.py --pages

checks that every ``docs/*.md`` page is linked from ``README.md`` (no
orphaned architecture documents), that every fenced ``python`` code
block in ``docs/`` actually compiles (doctest-style ``>>>`` blocks are
parsed as doctests first), and that every backticked dotted
``repro.…`` name and every name a snippet imports from ``repro`` in
README.md, DESIGN.md and ``docs/*.md`` resolves to a module or a module
attribute -- documentation drift shows up as a lint
failure, not as a reader's surprise.

Docstring coverage of ``src/repro`` is not checked here: tier-1's
``tests/test_docstrings.py`` is its one enforcer.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
README_PATH = REPO_ROOT / "README.md"
DESIGN_PATH = REPO_ROOT / "DESIGN.md"

_FENCE_RE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.DOTALL | re.MULTILINE)
_NAME_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")
#: ``from repro.x import A, B`` in a snippet, on one line or parenthesized
#: (doctest prompts allowed).
_IMPORT_RE = re.compile(
    r"^[ \t]*(?:>>>[ \t]*)?from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
    r"(\([^)]*\)|[^\n]*)",
    re.MULTILINE,
)


def docs_pages() -> list[Path]:
    """All markdown pages under ``docs/``."""
    return sorted(DOCS_DIR.glob("*.md"))


def unlinked_pages(readme_text: str | None = None) -> list[str]:
    """``docs/`` pages that README.md never links (orphaned documents)."""
    text = (
        README_PATH.read_text() if readme_text is None else readme_text
    )
    return [
        f"docs/{page.name}"
        for page in docs_pages()
        if f"docs/{page.name}" not in text
    ]


def snippet_errors(page: Path) -> list[str]:
    """Compile failures in one page's fenced ``python`` blocks.

    Blocks carrying ``>>>`` prompts are parsed as doctests (each example
    compiled separately); plain blocks are compiled whole.  Only syntax
    is checked -- snippets are illustrations, not executable tests.
    """
    errors = []
    text = page.read_text()
    for match in _FENCE_RE.finditer(text):
        code = match.group(1)
        line = text[: match.start()].count("\n") + 2
        try:
            if ">>>" in code:
                for example in doctest.DocTestParser().get_examples(code):
                    compile(example.source, str(page), "exec")
            else:
                compile(code, str(page), "exec")
        except SyntaxError as exc:
            errors.append(
                f"docs/{page.name}:{line}: python snippet does not "
                f"compile: {exc.msg}"
            )
    return errors


def imported_names(text: str) -> list[str]:
    """``repro.x.A`` for every ``from repro.x import A`` in fenced snippets."""
    names = []
    for block in _FENCE_RE.findall(text):
        for module, imported in _IMPORT_RE.findall(block):
            # Drop comments and doctest continuation prompts first.
            body = re.sub(r"#.*|^[ \t]*\.\.\.", "", imported, flags=re.MULTILINE)
            for item in body.strip("()").split(","):
                words = item.split()  # "A" or "A as B"
                if words:
                    names.append(f"{module}.{words[0]}")
    return names


def unresolved_names(text: str) -> list[str]:
    """``repro.…`` dotted names in ``text`` that name nothing.

    The names are the backticked dotted ones and those that fenced
    ``python`` snippets import (``from repro.x import A, B``).  A name
    resolves when its longest importable prefix is a module and the rest
    is a chain of attributes on it (a class, a function, a method).
    """
    missing = []
    for name in dict.fromkeys([*_NAME_RE.findall(text), *imported_names(text)]):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                missing.append(name)
            break
    return missing


def pages_main() -> int:
    """Lint the docs/ pages; returns a process exit code."""
    failures = 0
    for orphan in unlinked_pages():
        print(f"README.md: page never linked: {orphan}")
        failures += 1
    for page in docs_pages():
        for error in snippet_errors(page):
            print(error)
            failures += 1
    sys.path.insert(0, str(REPO_ROOT / "src"))
    for page in [README_PATH, DESIGN_PATH, *docs_pages()]:
        for name in unresolved_names(page.read_text()):
            print(f"{page.relative_to(REPO_ROOT)}: `{name}` names nothing")
            failures += 1
    if failures:
        print(f"docs pages lint: {failures} problem(s)")
        return 1
    n = len(docs_pages())
    print(
        f"docs pages lint: {n} page(s) linked from README, snippets compile, "
        "repro names resolve"
    )
    return 0


def main(argv: list[str]) -> int:
    """Command line: ``--pages`` is the one mode; returns the exit code."""
    if argv != ["--pages"]:
        raise SystemExit("usage: python tools/check_docs.py --pages")
    return pages_main()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
