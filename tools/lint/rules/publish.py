"""REP011: publish protocol -- fsync staged artifacts before the rename.

The durable-publish protocol (``repro.util.fsio``; docs/COVFILE_PROTOCOL.md
section 1) publishes artifacts by staging them next to the
final path, flushing them to disk, then atomically renaming.  Skipping
the flush step re-introduces the torn-file window the protocol exists to
close: after a crash the *published* path can hold a zero-length or
partial file, and every reader trusts published paths.

Two checks:

- **Unflushed replace** (dataflow): a token written via ``write_text`` /
  ``write_bytes`` / ``np.savez`` / ``shutil.copyfile`` / ``tofile`` /
  an ``open()`` handle is *dirty* until an ``fsync``-family call (or a
  ``flush``) touches it.  ``os.replace``/``os.rename`` (and the
  ``Path.replace`` method) on a dirty token is flagged.  The
  ``repro.util.fsio`` helpers (``durable_write``, and ``durable_replace``
  under it) are the blessed one-call spelling and never flagged.
- **Direct write to a published path** (lexical): any path that appears
  as a replace *destination* somewhere in the file is store-visible; a
  direct ``write_text``/``write_bytes``/numpy save onto it bypasses the
  staging idiom entirely and is flagged wherever it happens.

With the interprocedural layer (``FileContext.project``) the dataflow
check sees through project helpers via their effect summaries: a helper
that fsyncs its parameter cleans the token, one that writes it dirties
it, and one that hides the ``os.replace`` inside (without fsyncing) is a
flagged replace at the *call site* -- exactly the defect a per-function
view cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.core import (
    FileContext,
    Finding,
    ImportAliases,
    Rule,
    enclosing_symbols,
    register,
    resolve_dotted,
)
from tools.lint import vocab
from tools.lint.dataflow import analyze_forward, build_cfg, iter_function_defs
from tools.lint.summaries import call_param_effects

#: numpy savers whose first positional argument is the target path.
#: (Shared with the effect-summary engine -- see :mod:`tools.lint.vocab`.)
_NUMPY_SAVERS = vocab.NUMPY_SAVERS

#: shutil copiers whose second positional argument is the target path.
_SHUTIL_COPIERS = vocab.SHUTIL_COPIERS

#: Path methods that write their receiver.
_WRITE_METHODS = vocab.WRITE_METHODS

_DIRTY, _CLEAN = "dirty", "clean"


def _token(expr: ast.expr) -> str | None:
    """Canonical token of a path expression: bare name or ``self.attr``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return f"self.{expr.attr}"
    return None


def _base_token(expr: ast.expr) -> str | None:
    """Token of the base path in a derived expression (``tmp / "x"``)."""
    direct = _token(expr)
    if direct is not None:
        return direct
    if isinstance(expr, ast.BinOp):
        return _base_token(expr.left)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        # tmp.with_suffix(...).write_text(...) style chains.
        return _base_token(expr.func.value)
    if isinstance(expr, ast.Attribute):
        return _base_token(expr.value)
    return None


def _calls_in_order(stmt: ast.AST) -> list[ast.Call]:
    """Call nodes under a statement, outermost-first lexical order."""
    return [n for n in ast.walk(stmt) if isinstance(n, ast.Call)]


class _Effects:
    """Classified side effects of one call on the path-token lattice."""

    __slots__ = ("dirty", "clean", "replace")

    def __init__(self):
        self.dirty: list[str] = []
        self.clean: list[str] = []
        self.replace: ast.Call | None = None  # sink with dirty source


def _classify(
    call: ast.Call, aliases: dict[str, str], handle_paths: dict[str, str]
) -> _Effects:
    fx = _Effects()
    resolved = resolve_dotted(call.func, aliases)
    terminal = (
        call.func.attr
        if isinstance(call.func, ast.Attribute)
        else call.func.id if isinstance(call.func, ast.Name) else None
    )

    if resolved in _NUMPY_SAVERS and call.args:
        t = _base_token(call.args[0])
        if t:
            fx.dirty.append(t)
        return fx
    if resolved in _SHUTIL_COPIERS and len(call.args) >= 2:
        t = _base_token(call.args[1])
        if t:
            fx.dirty.append(t)
        return fx
    if resolved in ("os.replace", "os.rename"):
        fx.replace = call
        return fx
    if terminal == "durable_replace":
        # The blessed helper fsyncs internally; it also leaves the staged
        # source clean (it no longer exists under that name).
        if call.args:
            t = _base_token(call.args[0])
            if t:
                fx.clean.append(t)
        return fx
    if terminal is not None and "fsync" in terminal:
        for arg in call.args:
            t = _base_token(arg)
            if t:
                fx.clean.append(handle_paths.get(t, t))
        return fx

    if isinstance(call.func, ast.Attribute):
        recv = call.func.value
        attr = call.func.attr
        if attr in _WRITE_METHODS:
            t = _base_token(recv)
            if t:
                fx.dirty.append(t)
        elif attr == "tofile" and call.args:
            t = _base_token(call.args[0])
            if t:
                fx.dirty.append(t)
        elif attr == "write":
            t = _token(recv)
            if t and t in handle_paths:
                fx.dirty.append(handle_paths[t])
        elif attr == "flush":
            t = _token(recv)
            if t:
                fx.clean.append(handle_paths.get(t, t))
        elif attr in ("replace", "rename") and len(call.args) == 1:
            # Path.replace(target): receiver is the staged source.
            fx.replace = call
    return fx


def _replace_source_dest(
    call: ast.Call, aliases: dict[str, str]
) -> tuple[ast.expr | None, ast.expr | None]:
    """(source, destination) path expressions of a replace sink."""
    resolved = resolve_dotted(call.func, aliases)
    if resolved in ("os.replace", "os.rename"):
        args = list(call.args)
        src = args[0] if len(args) >= 1 else None
        dst = args[1] if len(args) >= 2 else None
        for kw in call.keywords:
            if kw.arg == "src":
                src = kw.value
            elif kw.arg in ("dst", "target"):
                dst = kw.value
        return src, dst
    if isinstance(call.func, ast.Attribute) and call.func.attr in (
        "replace",
        "rename",
    ):
        return call.func.value, call.args[0] if call.args else None
    return None, None


@register
class PublishProtocolRule(Rule):
    """Flag atomic renames of unflushed artifacts and non-staged writes."""

    id = "REP011"
    name = "publish-protocol"
    summary = (
        "os.replace onto a store-visible path must be preceded by an "
        "fsync/flush of the staged artifact; published paths are never "
        "written directly"
    )
    explanation = """\
`os.replace` makes the *name* atomic, not the *data*: if the staged file
is still sitting in the page cache when the machine dies, the published
path points at a torn or empty file after reboot.  Readers trust
published paths (that is the protocol's whole point), so the flush is
mandatory before the rename -- and writing a published path in place is
never allowed.

Bad:
    tmp.write_text(json.dumps(head))
    os.replace(tmp, self.head_path)         # page cache only

    self.head_path.write_text(...)          # readers see a torn file

Good:
    tmp.write_text(json.dumps(head))
    fsync_path(tmp)                         # repro.util.fsio
    os.replace(tmp, self.head_path)

    # or the one-call spelling (stages, fsyncs, replaces):
    durable_write(self.head_path, lambda fh: fh.write(data))
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Dataflow over each function plus the lexical published-path scan."""
        aliases = ImportAliases()
        aliases.visit(ctx.tree)
        symbols = enclosing_symbols(ctx.tree)
        for func in iter_function_defs(ctx.tree):
            yield from self._check_function(ctx, func, aliases.aliases, symbols)
        yield from self._check_published_writes(ctx, aliases.aliases, symbols)

    # -- dataflow: dirty staged tokens through the CFG ---------------------

    @staticmethod
    def _handle_paths(func, aliases: dict[str, str]) -> dict[str, str]:
        """Map file-handle names to the path token they write.

        Covers ``with token.open(...) as fh`` and ``fh = token.open(...)``.
        """
        out: dict[str, str] = {}

        def note(call: ast.expr, bound: ast.expr | None) -> None:
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "open"
                and isinstance(bound, ast.Name)
            ):
                t = _base_token(call.func.value)
                if t:
                    out[bound.id] = t

        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    note(item.context_expr, item.optional_vars)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                note(node.value, node.targets[0])
        return out

    def _check_function(
        self, ctx: FileContext, func, aliases: dict[str, str], symbols
    ) -> Iterator[Finding]:
        handle_paths = self._handle_paths(func, aliases)
        project = getattr(ctx, "project", None)
        relpath = ctx.relpath
        cfg = build_cfg(func)
        flagged: dict[int, tuple[ast.Call, str]] = {}

        def transfer(node, state: dict) -> dict:
            out = dict(state)
            stmt = node.stmt
            if stmt is None:
                return out
            # Compound statements are lowered to several CFG nodes; this
            # node only *executes* its header expression(s) -- the nested
            # blocks have their own nodes.
            if node.kind == "branch":
                roots = [getattr(stmt, "test", None) or getattr(stmt, "subject", None)]
            elif node.kind == "loop_head":
                roots = [getattr(stmt, "test", None) or getattr(stmt, "iter", None)]
            elif node.kind == "with":
                roots = [item.context_expr for item in stmt.items]
            elif node.kind in ("with_exit", "except", "entry", "exit"):
                roots = []
            else:
                roots = [stmt]
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                t = _token(stmt.targets[0])
                if t is not None and not isinstance(stmt.value, ast.Name):
                    out.pop(t, None)  # rebinding forgets old facts
            for root in roots:
                if root is not None:
                    self._apply_calls(
                        root, node, out, aliases, handle_paths, flagged,
                        project, relpath,
                    )
            return out

        def merge(a: dict, b: dict) -> dict:
            out = dict(a)
            for t, s in b.items():
                if out.get(t) == _CLEAN or t not in out:
                    out[t] = s
                elif s == _DIRTY:
                    out[t] = _DIRTY
            return out

        analyze_forward(cfg, {}, transfer, merge)
        for _, (call, token) in sorted(flagged.items()):
            qual = symbols.get(id(func), func.name)
            yield ctx.finding(
                self,
                call,
                f"atomic replace of {token} without fsync of the staged "
                "artifact; call repro.util.fsio.fsync_path() first or use "
                "durable_replace()",
                symbol=f"{qual}:replace:{token}",
            )

    @staticmethod
    def _apply_calls(
        root: ast.AST,
        node,
        out: dict,
        aliases: dict[str, str],
        handle_paths: dict[str, str],
        flagged: dict,
        project=None,
        relpath: str = "",
    ) -> None:
        """Apply the token effects of every call under one executed expr."""
        for call in _calls_in_order(root):
            fx = _classify(call, aliases, handle_paths)
            if (
                not fx.dirty
                and not fx.clean
                and fx.replace is None
                and project is not None
            ):
                # The lexical vocabulary saw nothing: consult the resolved
                # callee's effect summary so helpers that write / fsync /
                # replace their parameters act at this call site.
                summ, pairs = call_param_effects(project, relpath, call)
                if summ is not None:
                    for arg, idx in pairs:
                        t = _base_token(arg)
                        if t is None:
                            continue
                        if idx in summ.write_params:
                            out[t] = _DIRTY
                        if idx in summ.fsync_params:
                            out[t] = _CLEAN
                        if idx in summ.replace_src_params:
                            if out.get(t) == _DIRTY:
                                flagged.setdefault(node.index, (call, t))
                            out.pop(t, None)  # the staged name is gone
                continue
            for t in fx.dirty:
                out[t] = _DIRTY
            for t in fx.clean:
                out[t] = _CLEAN
            if fx.replace is not None:
                src, _dst = _replace_source_dest(fx.replace, aliases)
                t = _base_token(src) if src is not None else None
                if t is not None and out.get(t) == _DIRTY:
                    flagged.setdefault(node.index, (fx.replace, t))
                if t is not None:
                    out.pop(t, None)  # the staged name is gone

    # -- lexical: direct writes to published destinations ------------------

    def _check_published_writes(
        self, ctx: FileContext, aliases: dict[str, str], symbols
    ) -> Iterator[Finding]:
        published: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolve_dotted(node.func, aliases)
            if isinstance(node.func, ast.Attribute):
                terminal = node.func.attr
            elif isinstance(node.func, ast.Name):
                terminal = node.func.id
            else:
                terminal = None
            if resolved in ("os.replace", "os.rename") or terminal in (
                "durable_replace",
            ):
                _src, dst = _replace_source_dest(node, aliases)
                if dst is None and terminal == "durable_replace":
                    dst = node.args[1] if len(node.args) >= 2 else None
                t = _token(dst) if dst is not None else None
                # Only self-attribute destinations are store-visible state
                # we can track reliably across methods.
                if t is not None and t.startswith("self."):
                    published.add(t)
        if not published:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target: str | None = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
            ):
                target = _token(node.func.value)
            else:
                resolved = resolve_dotted(node.func, aliases)
                if resolved in _NUMPY_SAVERS and node.args:
                    target = _token(node.args[0])
            if target in published:
                qual = symbols.get(id(node), "<module>")
                yield ctx.finding(
                    self,
                    node,
                    f"direct write to published path {target}; stage to a "
                    "temporary, fsync, then atomically replace "
                    "(docs/COVFILE_PROTOCOL.md)",
                    symbol=f"{qual}:published-write:{target}",
                )
