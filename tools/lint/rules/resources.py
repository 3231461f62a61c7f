"""REP009: resource lifecycle -- every acquire must release on every path.

Objects with an OS-level footprint (file handles from ``open``/
``Path.open``, ``np.memmap`` views, ``multiprocessing.shared_memory``
segments, the workflow's covariance stores, executors, sockets) must
reach a release call (``close()`` / ``unlink()`` / ``shutdown()`` /
``cleanup()``) on *every* control-flow path out of the function that
acquired them -- or be handed off explicitly.

The rule runs the :mod:`tools.lint.dataflow` obligation analysis over
each function: acquire sites create a PENDING obligation, releases and
``with`` management discharge it, and ownership-transfer *escapes* end
the function's responsibility:

- the resource is returned or yielded,
- it is stored on an object/container (``self.x = buf``, ``d[k] = buf``,
  ``handles.append(buf)``) -- the owner is now long-lived state,
- it is passed to a call on a line annotated
  ``# repro-lint: takes-ownership -- why``.

The analysis is per function.  Passing a tracked resource *into* a
call whose result is bound (``wrapped = Wrapper(buf)``) is a conservative
escape -- the wrapper owns it now; a bare ``helper(buf)`` statement moves
nothing, so a helper that really takes the resource over says so with the
``takes-ownership`` annotation.

A site still PENDING at the function exit (on any path: merge keeps the
leak) is reported at the acquire line.  Exceptional edges from arbitrary
expressions are deliberately not modelled (see ``dataflow``): the rule
flags leaks on *explicit* paths -- early returns, branches, raises --
which is exactly where the PR-5/6 fault-path leaks and PR 8's covfile
``read()`` memmap leak lived.
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
from tools.lint.dataflow import analyze_forward, build_cfg, iter_function_defs

#: Resolved dotted constructors whose result carries a release obligation.
RESOURCE_FACTORIES = {
    "numpy.memmap",
    "numpy.lib.format.open_memmap",
    "multiprocessing.shared_memory.SharedMemory",
    "socket.socket",
    "socket.create_connection",
    "os.open",
    "concurrent.futures.ThreadPoolExecutor",
    "concurrent.futures.ProcessPoolExecutor",
}

#: Bare class names that carry an obligation even when the import cannot
#: be resolved (the repo's own resource classes are imported many ways).
RESOURCE_CLASS_NAMES = {
    "MemmapCovarianceStore",
    "SharedMemory",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
}

#: Method calls that discharge the obligation on their receiver.
RELEASE_METHODS = {"close", "unlink", "shutdown", "cleanup", "terminate"}

#: Method calls that store their argument for later cleanup (ownership
#: moves to the receiver: ExitStack.enter_context, list.append, ...).
SINK_METHODS = {"append", "add", "push", "register", "enter_context", "callback"}

_OWNERSHIP_MARK = "takes-ownership"

# Per-site obligation states.  Merge keeps PENDING if any path is
# pending; RELEASED/ESCAPED are both terminal-good.
_PENDING, _RELEASED, _ESCAPED = "pending", "released", "escaped"


def _acquire_call(call: ast.expr, aliases: dict[str, str]) -> str | None:
    """Human label of the resource a call acquires, or None."""
    if not isinstance(call, ast.Call):
        return None
    resolved = resolve_dotted(call.func, aliases)
    if resolved in RESOURCE_FACTORIES:
        return resolved
    if isinstance(call.func, ast.Name):
        if call.func.id == "open" and "open" not in aliases:
            return "open()"
        if call.func.id in RESOURCE_CLASS_NAMES:
            return call.func.id
    if isinstance(call.func, ast.Attribute):
        if call.func.attr in RESOURCE_CLASS_NAMES:
            return call.func.attr
        if call.func.attr == "open":
            # <path>.open(...): treat any .open() method as a file handle.
            return ".open()"
    return None


def _names_in(node: ast.AST) -> set[str]:
    """All bare ``Name`` identifiers appearing under a node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _State:
    """Analysis state: variable env + per-site obligation status.

    Immutable by convention: transfer/merge build fresh instances.
    Sites are keyed ``(lineno, varname)`` of the acquire.
    """

    __slots__ = ("env", "status")

    def __init__(self, env: dict, status: dict):
        self.env = env  # var name -> site key
        self.status = status  # site key -> _PENDING/_RELEASED/_ESCAPED

    def __eq__(self, other):
        return (
            isinstance(other, _State)
            and self.env == other.env
            and self.status == other.status
        )

    def copy(self) -> "_State":
        return _State(dict(self.env), dict(self.status))


def _merge(a: _State, b: _State) -> _State:
    env = {k: v for k, v in a.env.items() if b.env.get(k) == v}
    status: dict = {}
    for site in set(a.status) | set(b.status):
        sa, sb = a.status.get(site), b.status.get(site)
        if sa is None:
            status[site] = sb
        elif sb is None:
            status[site] = sa
        elif _PENDING in (sa, sb):
            status[site] = _PENDING
        else:
            status[site] = sa  # released/escaped are equally discharged
    return _State(env, status)


@register
class ResourceLifecycleRule(Rule):
    """Flag acquire sites that can leak on some control-flow path."""

    id = "REP009"
    name = "resource-lifecycle"
    summary = (
        "files, memmaps, shared-memory buffers, executors and sockets must "
        "be released (close/unlink/shutdown) on every path, or ownership "
        "explicitly transferred"
    )
    explanation = """\
A shared-memory segment or memmap that misses its close()/unlink() on
one branch leaks until process exit -- and /dev/shm segments survive the
process.  The rule tracks each acquired resource through the function's
control-flow graph (branches, loops, try/finally, with, early returns)
and reports acquire sites whose obligation is still pending on any path
reaching the function exit.

Bad:
    seg = SharedMemory(create=True, size=nbytes)
    if not ready:
        return None          # seg leaked on this path
    seg.close()

Good -- every path releases:
    seg = SharedMemory(create=True, size=nbytes)
    try:
        if not ready:
            return None
    finally:
        seg.close()

or transfer ownership explicitly:
    cols = np.memmap(path, dtype=np.float64, mode="r", shape=(n, k))
    self._views.append(cols)           # container owns it now
    return cols                        # caller owns it now
    track(cols)  # repro-lint: takes-ownership -- registry closes it
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Run the obligation analysis over every function in the file."""
        aliases = ImportAliases()
        aliases.visit(ctx.tree)
        symbols = enclosing_symbols(ctx.tree)
        ownership_lines = {
            lineno
            for lineno, text in enumerate(ctx.source.splitlines(), start=1)
            if _OWNERSHIP_MARK in text
        }
        for func in iter_function_defs(ctx.tree):
            yield from self._check_function(
                ctx, func, aliases.aliases, symbols, ownership_lines
            )

    def _check_function(
        self,
        ctx: FileContext,
        func,
        aliases: dict[str, str],
        symbols: dict[int, str],
        ownership_lines: set[int],
    ) -> Iterator[Finding]:
        sites = self._acquire_sites(func, aliases)
        if not sites:
            return
        cfg = build_cfg(func)

        def transfer(node, state: _State) -> _State:
            return self._transfer(node, state, sites, aliases, ownership_lines)

        in_states = analyze_forward(cfg, _State({}, {}), transfer, _merge)
        exit_state = in_states.get(cfg.exit)
        if exit_state is None:
            return
        qual = symbols.get(id(func), func.name)
        for site, status in sorted(exit_state.status.items()):
            if status != _PENDING:
                continue
            lineno, var, label = site
            yield Finding(
                rule=self.id,
                path=ctx.relpath,
                line=lineno,
                message=(
                    f"{label} assigned to {var!r} may not be released on "
                    "every path; close/unlink it in a finally (or with), "
                    "or transfer ownership "
                    "(# repro-lint: takes-ownership -- why)"
                ),
                symbol=f"{qual}:{var}",
            )

    @staticmethod
    def _acquire_sites(func, aliases: dict[str, str]) -> dict[int, tuple]:
        """Map Assign-node id -> site key for tracked acquires."""
        sites: dict[int, tuple] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                label = _acquire_call(node.value, aliases)
                if label is not None:
                    var = node.targets[0].id
                    sites[id(node)] = (node.lineno, var, label)
        return sites

    def _transfer(
        self,
        node,
        state: _State,
        sites: dict[int, tuple],
        aliases: dict[str, str],
        ownership_lines: set[int],
    ) -> _State:
        out = state.copy()
        stmt = node.stmt
        if node.kind == "with" and isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._with_item(out, item)
            return out
        if node.kind in ("entry", "exit", "with_exit", "except", "loop_head"):
            return out
        if stmt is None:
            return out
        if isinstance(stmt, ast.Assign):
            self._assign(out, stmt, sites)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            if stmt_value := getattr(stmt, "value", None):
                self._escape_names(out, _names_in(stmt_value))
        elif isinstance(stmt, ast.Expr):
            self._expr(out, stmt.value, ownership_lines, aliases)
        # Branch and loop tests don't move ownership.
        return out

    def _with_item(self, out: _State, item: ast.withitem) -> None:
        expr = item.context_expr
        # `with <acquire>() as f:` -- managed, never an obligation; the
        # bound name must not shadow a tracked site.
        if isinstance(expr, ast.Call):
            # `with closing(buf):` / `with suppress(...)` args: a tracked
            # name passed into the manager is considered managed too.
            for name in _names_in(expr):
                site = out.env.get(name)
                if site is not None and out.status.get(site) == _PENDING:
                    out.status[site] = _RELEASED
        if isinstance(expr, ast.Name):
            site = out.env.get(expr.id)
            if site is not None and out.status.get(site) == _PENDING:
                out.status[site] = _RELEASED  # `with buf:` manages it
        if isinstance(item.optional_vars, ast.Name):
            out.env.pop(item.optional_vars.id, None)

    def _assign(self, out: _State, stmt: ast.Assign, sites) -> None:
        site = sites.get(id(stmt))
        if site is not None:
            # Fresh acquire.  Rebinding over a pending site leaves the old
            # obligation pending -- that is the leak.
            out.env[site[1]] = site
            out.status[site] = _PENDING
            return
        target = stmt.targets[0] if len(stmt.targets) == 1 else None
        if isinstance(target, ast.Name):
            if isinstance(stmt.value, ast.Name):
                # Alias: y = x shares the site.
                src = out.env.get(stmt.value.id)
                if src is not None:
                    out.env[target.id] = src
                else:
                    out.env.pop(target.id, None)
                return
            if isinstance(stmt.value, ast.Call):
                # `wrapped = Wrapper(buf)`: the wrapper owns every
                # argument now (conservative escape).
                self._escape_call_args(out, stmt.value)
            out.env.pop(target.id, None)
            return
        # Attribute/subscript/tuple target: everything on the rhs escapes
        # into longer-lived storage.
        self._escape_names(out, _names_in(stmt.value))

    def _expr(self, out: _State, value: ast.expr, ownership_lines, aliases) -> None:
        if not isinstance(value, ast.Call):
            return
        func = value.func
        # Function-style release: os.close(fd) discharges fd's obligation.
        if (
            resolve_dotted(func, aliases) == "os.close"
            and len(value.args) == 1
            and isinstance(value.args[0], ast.Name)
        ):
            site = out.env.get(value.args[0].id)
            if site is not None:
                out.status[site] = _RELEASED
            return
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            site = out.env.get(func.value.id)
            if site is not None and func.attr in RELEASE_METHODS:
                out.status[site] = _RELEASED
                return
            if func.attr in SINK_METHODS:
                self._escape_call_args(out, value)
                return
        if value.lineno in ownership_lines or getattr(
            value, "end_lineno", value.lineno
        ) in ownership_lines:
            # The explicit human annotation is the only way a bare call
            # statement takes a resource over.
            self._escape_call_args(out, value)

    def _escape_call_args(self, out: _State, call: ast.Call) -> None:
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._escape_names(out, _names_in(arg))

    @staticmethod
    def _escape_names(out: _State, names: set[str]) -> None:
        for name in names:
            site = out.env.get(name)
            if site is not None and out.status.get(site) == _PENDING:
                out.status[site] = _ESCAPED
