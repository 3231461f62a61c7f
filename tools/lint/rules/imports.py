"""REP014: unused module imports -- every module-level import is read.

An import that nothing in the module reads is dead weight with a cost: it
runs at import time, it claims a dependency the module does not have
(which the layering rule then has to allow), and it tells the reader that
the module uses something it does not.  The rule flags a name that a
module-level ``import`` / ``from ... import`` binds and that the module
never loads, names in ``__all__`` or inside a string annotation counted
as loads.  Package ``__init__`` modules are exempt: their imports are the
package's exports.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import FileContext, Finding, Rule, register


def _module_imports(body: list[ast.stmt]) -> Iterator[tuple[ast.stmt, str]]:
    """(statement, bound name) for the imports at module level.

    Imports under a module-level ``if`` / ``try`` count; those inside a
    function or class body do not.
    """
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node, alias.asname or alias.name
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, ``__all__`` and string annotations too."""
    loaded: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            loaded.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            loaded.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    for annotation in annotations:
        for text in ast.walk(annotation):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                try:
                    parsed = ast.parse(text.value, mode="eval")
                except SyntaxError:
                    continue
                loaded.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return loaded


@register
class UnusedImportRule(Rule):
    """Flag module-level imports whose name the module never reads."""

    id = "REP014"
    name = "unused-import"
    summary = "no module-level import that the module never reads (package __init__ exempt)"
    explanation = """\
A module-level import binds a name; if nothing in the module loads that
name (names listed in __all__ and names inside string annotations count as
loads), the import is dead: it costs import time and claims a dependency
the module does not have.  Package __init__.py files are exempt, because
their imports are the package's exports.

Bad:
    import pytest                      # no pytest.* anywhere below
    from repro.ocean import PEModel    # the tests build models elsewhere

Good:
    import numpy as np
    rng = np.random.default_rng(0)

An import kept for its side effect (registration, a plugin) carries
`# repro-lint: disable=REP014 -- <why>`.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Scan one module's top-level imports against its loads."""
        if ctx.path.name == "__init__.py":
            return
        loaded = _loaded_names(ctx.tree)
        for node, name in _module_imports(ctx.tree.body):
            if name not in loaded:
                yield ctx.finding(
                    self,
                    node,
                    f"unused import {name}: nothing in the module reads it",
                    symbol=f"import {name}",
                )
