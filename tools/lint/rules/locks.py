"""REP003: lock discipline in threaded classes.

In classes that own :class:`threading.Lock` attributes (the task-pool
workflow, the trace recorder, the metrics registry), an instance attribute
that is *ever* accessed under one of the class's locks is treated as
lock-guarded shared state.  Any mutation of such an attribute outside a
``with self.<lock>:`` block (and outside ``__init__``, which runs before
threads exist) is a race waiting for a scheduler to expose it.

Attributes that are genuinely confined to one thread are either never
touched under a lock (then this rule ignores them) or carry an explicit
``# repro-lint: disable=REP003`` with a thread-confinement comment.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import (
    FileContext,
    Finding,
    ImportAliases,
    Rule,
    register,
    resolve_dotted,
)

#: Constructors whose result makes an attribute a class-owned lock.  The
#: sanitizer factories are here so swapping ``threading.Lock()`` for
#: ``new_lock()`` keeps the rule engaged.
LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "repro.util.sanitizer.SanitizedLock",
    "repro.util.sanitizer.SanitizedRLock",
    "repro.util.sanitizer.new_lock",
    "repro.util.sanitizer.new_rlock",
    "repro.util.SanitizedLock",
    "repro.util.SanitizedRLock",
    "repro.util.new_lock",
    "repro.util.new_rlock",
}

#: Method calls that mutate their receiver in place.
MUTATORS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "discard",
    "clear",
    "update",
    "add",
    "setdefault",
    "sort",
    "reverse",
}

#: Statement fields holding nested statement blocks (not expressions).
_BLOCK_FIELDS = ("body", "orelse", "finalbody")


def _self_attr(node: ast.AST) -> str | None:
    """The ``X`` of a ``self.X`` attribute node, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _holds_lock(node: ast.With, lock_attrs: set[str]) -> bool:
    """True when any context manager of the with is ``self.<lock>``."""
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr is not None and attr in lock_attrs:
            return True
    return False


def _is_compound(stmt: ast.stmt) -> bool:
    return any(getattr(stmt, f, None) for f in _BLOCK_FIELDS) or bool(
        getattr(stmt, "handlers", None)
    )


@register
class LockDisciplineRule(Rule):
    """Flag unlocked mutations of lock-guarded instance attributes."""

    id = "REP003"
    name = "lock-discipline"
    summary = (
        "attributes accessed under a class-owned threading.Lock must not be "
        "mutated outside a with-lock block (except in __init__)"
    )
    explanation = """\
If a class guards self.X with `with self._lock:` anywhere, then *every*
mutation of self.X must hold a class-owned lock -- a single unlocked
writer races every locked reader.  Construction paths (__init__, __new__,
__setstate__) are exempt: no other thread holds a reference yet.

Bad:
    class Pool:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = []
        def worker(self):
            with self._lock:
                n = len(self._items)     # guarded access...
        def producer(self):
            self._items.append(1)        # ...unlocked mutation: flagged

Good:
        def producer(self):
            with self._lock:
                self._items.append(1)

For state that is provably confined to one thread, keep it away from lock
blocks entirely, or annotate the mutation site:
    self._scratch.append(x)  # repro-lint: disable=REP003 -- differ-thread only
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Scan each threaded class for unlocked guarded-state mutations."""
        aliases = ImportAliases()
        aliases.visit(ctx.tree)
        if not any(
            v.split(".")[0] == "threading" or v.startswith("repro.util")
            for v in aliases.aliases.values()
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node, aliases.aliases)

    # -- class-level analysis ------------------------------------------------

    def _check_class(
        self, ctx: FileContext, cls: ast.ClassDef, aliases: dict[str, str]
    ) -> Iterator[Finding]:
        lock_attrs = self._lock_attributes(cls, aliases)
        if not lock_attrs:
            return
        guarded = self._guarded_attributes(cls, lock_attrs)
        if not guarded:
            return
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__new__", "__setstate__"):
                continue  # construction paths: no other thread can hold a ref
            yield from self._check_block(
                ctx, cls.name, method.name, method.body, lock_attrs, guarded, False
            )

    def _lock_attributes(
        self, cls: ast.ClassDef, aliases: dict[str, str]
    ) -> set[str]:
        """Attributes assigned a ``threading.Lock()``-like object."""
        locks: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            if resolve_dotted(node.value.func, aliases) not in LOCK_FACTORIES:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    locks.add(attr)
        return locks

    def _guarded_attributes(
        self, cls: ast.ClassDef, lock_attrs: set[str]
    ) -> set[str]:
        """self-attributes accessed anywhere under a class-owned lock."""
        guarded: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.With) and _holds_lock(node, lock_attrs):
                for stmt in node.body:
                    for sub in ast.walk(stmt):
                        attr = _self_attr(sub)
                        if attr is not None and attr not in lock_attrs:
                            guarded.add(attr)
        return guarded

    # -- statement walk tracking the lexically-held lock ---------------------

    def _check_block(
        self,
        ctx: FileContext,
        cls_name: str,
        method: str,
        body: list[ast.stmt],
        lock_attrs: set[str],
        guarded: set[str],
        locked: bool,
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._check_stmt(
                ctx, cls_name, method, stmt, lock_attrs, guarded, locked
            )

    def _check_stmt(
        self,
        ctx: FileContext,
        cls_name: str,
        method: str,
        stmt: ast.stmt,
        lock_attrs: set[str],
        guarded: set[str],
        locked: bool,
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locked or _holds_lock(stmt, lock_attrs)
            yield from self._check_block(
                ctx, cls_name, method, stmt.body, lock_attrs, guarded, inner
            )
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function may run on another thread or after the
            # lock was released: its body is analyzed as *unlocked*.
            yield from self._check_block(
                ctx, cls_name, method, stmt.body, lock_attrs, guarded, False
            )
            return
        if not _is_compound(stmt):
            if not locked:
                yield from self._flag_simple(ctx, cls_name, method, stmt, guarded)
            return
        # Compound statement: flag mutator calls in its header expressions
        # (test/iter/...) at the current lock state, then recurse into the
        # nested blocks preserving that state.
        if not locked:
            for expr in self._header_exprs(stmt):
                yield from self._flag_mutator_calls(
                    ctx, cls_name, method, expr, guarded
                )
        for field_name in _BLOCK_FIELDS:
            block = getattr(stmt, field_name, None)
            if block:
                yield from self._check_block(
                    ctx, cls_name, method, block, lock_attrs, guarded, locked
                )
        for handler in getattr(stmt, "handlers", []):
            yield from self._check_block(
                ctx, cls_name, method, handler.body, lock_attrs, guarded, locked
            )

    @staticmethod
    def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
        """Expression children of a compound statement outside its blocks."""
        out: list[ast.expr] = []
        for field_name, value in ast.iter_fields(stmt):
            if field_name in _BLOCK_FIELDS or field_name == "handlers":
                continue
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list):
                out.extend(v for v in value if isinstance(v, ast.expr))
        return out

    # -- mutation detection ---------------------------------------------------

    def _hit(
        self, ctx: FileContext, cls_name: str, method: str, attr: str,
        node: ast.AST, how: str,
    ) -> Finding:
        return ctx.finding(
            self,
            node,
            f"self.{attr} is lock-guarded elsewhere in {cls_name} but "
            f"{how} here without holding the lock",
            symbol=f"{cls_name}.{method}:{attr}",
        )

    def _flag_simple(
        self,
        ctx: FileContext,
        cls_name: str,
        method: str,
        stmt: ast.stmt,
        guarded: set[str],
    ) -> Iterator[Finding]:
        """Findings for one simple (non-compound) statement."""
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            for sub in self._flatten_targets(target):
                attr = _self_attr(sub)
                if attr is not None and attr in guarded:
                    yield self._hit(ctx, cls_name, method, attr, sub, "assigned")
                elif isinstance(sub, ast.Subscript):
                    attr = _self_attr(sub.value)
                    if attr is not None and attr in guarded:
                        yield self._hit(
                            ctx, cls_name, method, attr, sub, "item-assigned"
                        )
        yield from self._flag_mutator_calls(ctx, cls_name, method, stmt, guarded)

    def _flag_mutator_calls(
        self,
        ctx: FileContext,
        cls_name: str,
        method: str,
        root: ast.AST,
        guarded: set[str],
    ) -> Iterator[Finding]:
        """In-place mutator calls (``self.X.append(...)``) under ``root``."""
        for node in ast.walk(root):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                attr = _self_attr(node.func.value)
                if attr is not None and attr in guarded:
                    yield self._hit(
                        ctx, cls_name, method, attr, node,
                        f"mutated via .{node.func.attr}()",
                    )

    @staticmethod
    def _flatten_targets(target: ast.expr) -> list[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[ast.expr] = []
            for element in target.elts:
                out.extend(LockDisciplineRule._flatten_targets(element))
            return out
        return [target]
