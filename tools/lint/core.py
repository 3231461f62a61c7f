"""Core of the ``repro-lint`` static-analysis framework.

The framework is deliberately small and dependency-free: rules operate on
the stdlib :mod:`ast` of one file at a time (plus a little repo-level
context such as the module's dotted name), findings carry a line-free
*fingerprint* so a report can be compared across edits, and inline
``# repro-lint: disable=REP001`` comments suppress individual findings
at the offending line.  There is no baseline: a finding fails the run
until it is fixed or suppressed with a reason.

Vocabulary
----------
Rule
    A check with a stable ``REPnnn`` id.  Rules are registered in a module
    -level registry via :func:`register` and discovered by the CLI.
Finding
    One violation: (rule, file, line, message, symbol).  The ``symbol`` is
    a line-number-free context string (e.g. ``ClusterScheduler.__init__``)
    used to build the fingerprint, so unrelated edits above a finding do
    not change its identity.
Suppression
    ``# repro-lint: disable=REP001`` (or ``disable=all``) on the finding's
    line, or ``# repro-lint: disable-file=REP009`` anywhere in the file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


class LintError(Exception):
    """The framework itself failed (bad path, unparseable config...)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one place in one file."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    message: str
    symbol: str  # stable, line-free context for the fingerprint

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity of the finding."""
        return f"{self.path}::{self.rule}::{self.symbol}"

    def render(self) -> str:
        """Human-readable one-line report."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI ``--format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "symbol": self.symbol,
            "fingerprint": self.fingerprint,
        }


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path  # absolute path on disk
    relpath: str  # repo-relative posix path (used in reports)
    source: str
    tree: ast.Module
    module_name: str | None  # dotted ``repro.x.y`` when under src/, else None

    @property
    def package(self) -> str | None:
        """First package component under ``repro`` (None outside src/).

        Top-level modules (``repro.config``) map to ``"<root>"``.
        """
        if self.module_name is None or not self.module_name.startswith("repro"):
            return None
        parts = self.module_name.split(".")
        if len(parts) == 1:
            return "<root>"
        if len(parts) == 2:
            # repro.config / repro.util (package __init__) both land here;
            # a package's __init__ belongs to the package itself.
            if self.path.name == "__init__.py":
                return parts[1]
            return "<root>"
        return parts[1]

    def finding(
        self, rule: "Rule", node: ast.AST, message: str, symbol: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            rule=rule.id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            message=message,
            symbol=symbol,
        )


class Rule:
    """Base class for lint rules; subclasses set the class attributes.

    ``explanation`` feeds the CLI's ``--explain REPnnn`` developer-help
    mode and should include one bad and one good example.
    """

    id: str = "REP000"
    name: str = "abstract-rule"
    summary: str = ""
    explanation: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (may be empty)."""
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if rule.id in _REGISTRY:
        raise LintError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registered rules keyed by id (fresh instances each call)."""
    import tools.lint.rules  # noqa: F401  -- registers on first import

    return {rid: type(rule)() for rid, rule in sorted(_REGISTRY.items())}


# -- suppressions -------------------------------------------------------------

# A directive may carry a human justification after ``--``:
#   t0 = time.perf_counter()  # repro-lint: disable=REP002 -- bench wall time
_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--|#|$)"
)
_DISABLE_FILE_RE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+?)\s*(?:--|#|$)"
)


@dataclass
class Suppressions:
    """Parsed suppression comments of one file."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)

    @classmethod
    def parse(cls, source: str) -> "Suppressions":
        """Scan source lines for ``repro-lint`` directives."""
        supp = cls()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _DISABLE_RE.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                supp.by_line.setdefault(lineno, set()).update(r for r in rules if r)
            match = _DISABLE_FILE_RE.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                supp.whole_file.update(r for r in rules if r)
        return supp

    def covers(self, finding: Finding) -> bool:
        """True when the finding is explicitly suppressed."""
        for scope in (self.whole_file, self.by_line.get(finding.line, set())):
            if "all" in scope or finding.rule in scope:
                return True
        return False


# -- file discovery and the lint driver ---------------------------------------


def _module_name_for(path: Path, root: Path) -> str | None:
    """Dotted module name when the file lives under ``<root>/src/``."""
    try:
        rel = path.resolve().relative_to((root / "src").resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def iter_python_files(paths: Iterable[str | Path], root: Path) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if not p.is_absolute():
            p = root / p
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.is_file():
            out.add(p)
        else:
            raise LintError(f"no such file or directory: {raw}")
    return sorted(out)


def make_context(path: Path, root: Path) -> FileContext:
    """Read and parse one file into a :class:`FileContext`."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"{path}: syntax error: {exc}") from exc
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    return FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        module_name=_module_name_for(path, root),
    )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    n_suppressed: int
    n_files: int


def _filter_rules(select: Iterable[str] | None) -> dict[str, Rule]:
    """Fresh rule instances, narrowed to ``select`` when given."""
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(rules)
        if unknown:
            raise LintError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        rules = {rid: r for rid, r in rules.items() if rid in wanted}
    return rules


def run_lint(
    paths: Iterable[str | Path],
    root: Path,
    select: Iterable[str] | None = None,
) -> LintReport:
    """Run all (or ``select``-ed) rules over the given paths, file by file."""
    rules = _filter_rules(select)
    files = iter_python_files(paths, root)
    findings: list[Finding] = []
    n_suppressed = 0
    for path in files:
        ctx = make_context(path, root)
        supp = Suppressions.parse(ctx.source)
        for rule in rules.values():
            for finding in rule.check(ctx):
                if supp.covers(finding):
                    n_suppressed += 1
                else:
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(
        findings=findings, n_suppressed=n_suppressed, n_files=len(files)
    )


# -- shared AST helpers used by several rules ---------------------------------


class ImportAliases(ast.NodeVisitor):
    """Map local names to canonical dotted module paths.

    Tracks ``import numpy as np`` (np -> numpy), ``from numpy import
    random as nr`` (nr -> numpy.random) and ``from numpy.random import
    default_rng`` (default_rng -> numpy.random.default_rng), so rules can
    resolve an attribute chain like ``np.random.default_rng`` to its
    canonical name regardless of aliasing.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never reach numpy/time/datetime
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def enclosing_symbols(tree: ast.Module) -> dict[int, str]:
    """Map each AST node id to its enclosing ``Class.func`` qualname.

    Used by rules to build stable finding symbols: the qualname of the
    innermost enclosing function/class, or ``<module>`` at top level.
    """
    symbols: dict[int, str] = {}

    def walk(node: ast.AST, qualname: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_qual = qualname
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_qual = (
                    f"{qualname}.{child.name}" if qualname != "<module>" else child.name
                )
            symbols[id(child)] = child_qual
            walk(child, child_qual)

    symbols[id(tree)] = "<module>"
    walk(tree, "<module>")
    return symbols
