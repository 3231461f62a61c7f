"""REP005: import layering -- the package DAG is a contract.

The allowed dependency graph of ``repro``'s subpackages is written down
here; any import introducing a new edge fails the lint.  The headline
constraints: ``util`` and ``telemetry`` are leaves (nothing above them may
be pulled in), and ``core`` -- the ESSE algorithm -- must never import the
execution layers (``workflow``/``sched``/``realtime``), so the algorithm
stays runnable under any execution substrate.

The graph is acyclic, and ``sched`` and ``workflow`` share no edge in
either direction.  The campaign simulator once reused the workflow's
fault/retry vocabulary (``sched -> workflow``); those simulator options
had no caller outside their own tests and were deleted with the edge.
The reverse edge -- a workflow task-graph module (since deleted) reading
the scheduler's calibrated task times -- was broken by moving the Table 1
reference times into ``repro.core.taskmodel``, which both layers import.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import FileContext, Finding, Rule, register

#: Allowed subpackage imports: package -> packages it may import.
#: ``<root>`` is top-level modules (repro/config.py, repro/__init__.py)
#: which, as composition roots, may import anything.
ALLOWED_IMPORTS: dict[str, set[str]] = {
    "util": set(),
    "telemetry": {"util"},
    "ocean": {"util", "core"},
    "core": {"util", "telemetry", "ocean", "obs"},
    "obs": {"util", "core", "ocean"},
    "acoustics": {"util", "core", "ocean"},
    "workflow": {"util", "telemetry", "core"},
    "sched": {"util", "core"},
    "realtime": {
        "util",
        "telemetry",
        "core",
        "ocean",
        "obs",
        "acoustics",
        "workflow",
    },
    # The forecast-product service layer sits on top of the realtime
    # cycle: it stores/serves what realtime produces and must never be
    # imported back by anything beneath it (the cycle reaches it only
    # through the generic product_hook callable).
    "products": {"util", "telemetry", "realtime"},
}


def _imported_repro_packages(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """(node, subpackage) for every import of ``repro.<subpackage>...``.

    Top-level module imports (``from repro import config``) map to
    ``<root>``.
    """
    edges: list[tuple[ast.stmt, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    edges.append((node, parts[1] if len(parts) > 1 else "<root>"))
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module is None:
                continue
            parts = node.module.split(".")
            if parts[0] != "repro":
                continue
            if len(parts) > 1:
                edges.append((node, parts[1]))
            else:
                # ``from repro import x``: x may be a subpackage or a
                # top-level module; resolve each name.
                for alias in node.names:
                    name = alias.name
                    edges.append(
                        (node, name if name in ALLOWED_IMPORTS else "<root>")
                    )
    return edges


@register
class LayeringRule(Rule):
    """Flag imports that add edges outside the package DAG."""

    id = "REP005"
    name = "import-layering"
    summary = (
        "repro subpackages may only import along the declared DAG; "
        "util/telemetry are leaves, core never imports workflow/sched/realtime"
    )
    explanation = """\
The allowed edges are declared in ALLOWED_IMPORTS
(tools/lint/rules/layering.py).  Keeping the ESSE algorithm (core) free of
execution-layer imports is what lets the same algorithm run under the
serial shepherd, the thread/process task pool and the realtime cycle.

Bad (inside src/repro/core/driver.py):
    from repro.workflow.parallel import ParallelESSEWorkflow

Good: invert the dependency -- the workflow imports core and drives it:
    # src/repro/workflow/parallel.py
    from repro.core.driver import ESSEConfig

A new legitimate edge is a design decision: add it to ALLOWED_IMPORTS in
the same PR that introduces it, with a justifying comment.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Check every ``repro.*`` import of a repro module against the DAG."""
        package = ctx.package
        if package is None or package == "<root>":
            return
        allowed = ALLOWED_IMPORTS.get(package)
        if allowed is None:
            yield Finding(
                rule=self.id,
                path=ctx.relpath,
                line=1,
                message=(
                    f"package {package!r} is not in the layering contract; "
                    "declare its allowed imports in tools/lint/rules/layering.py"
                ),
                symbol=f"unknown-package:{package}",
            )
            return
        for node, target in _imported_repro_packages(ctx.tree):
            if target == package or target in allowed:
                continue
            yield Finding(
                rule=self.id,
                path=ctx.relpath,
                line=node.lineno,
                message=(
                    f"layering violation: {package} may not import "
                    f"repro.{target} (allowed: "
                    f"{', '.join(sorted(allowed)) or 'nothing'})"
                ),
                symbol=f"{package}->{target}",
            )
