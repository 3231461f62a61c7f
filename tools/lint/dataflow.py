"""Intraprocedural dataflow: per-function CFG + forward worklist analysis.

This module turns one function body into a control-flow graph and runs
client-defined forward analyses over it.  It is the engine under REP009
(resource lifecycle), but knows nothing about the rule: the client
supplies the lattice (initial state, transfer function, merge).

CFG model
---------
Nodes are statements (not basic blocks -- functions here are small and
per-statement nodes keep transfer functions trivial), plus a handful of
synthetic nodes:

``entry`` / ``exit``
    One each per function.  Every path ends at ``exit``; obligation rules
    check their facts there.
``loop_head``
    The test/iterator evaluation of a ``while``/``for``; carries the loop
    statement.  Back edges from the loop body and ``break``-bypass edges
    are explicit.
``branch``
    The test of an ``if`` (or the subject of a ``match``).
``with``
    The header of a ``with``/``async with`` (context managers entered).
``with_exit``
    Synthetic unwind point where the context managers of a ``with`` are
    released.  Both the normal fall-through and abrupt exits (``return``
    / ``raise`` / ``break`` / ``continue``) inside the body pass through
    a ``with_exit`` for every open ``with``, so analyses see cleanup on
    every path.
``except``
    A handler entry.  Exception edges run from the state *before* the
    ``try`` body and from every statement inside it to each handler, so a
    handler merges every state it could observe.

``try/finally`` is modelled by duplication: abrupt exits inside the try
body get their own fresh instances of the ``finally`` body spliced onto
their path (the classic lowering), so a ``return`` inside ``try`` still
flows through ``finally`` cleanup before reaching ``exit``.

Deliberate simplifications (documented for rule authors):

- No implicit exception edges from arbitrary expressions.  Only ``raise``
  statements and ``try`` bodies produce exceptional flow; otherwise every
  statement is assumed to complete.  Obligation rules would drown in
  false positives if any line could throw.
- ``while``/``for`` conditions are treated as both-ways branches (even
  ``while True``); unreachable-code precision is not a goal.
- Nested function/class definitions are single statements; their bodies
  get their own CFG when the client asks for one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

FuncDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class CFGNode:
    """One CFG node: a statement or a synthetic control point."""

    index: int
    kind: str  # entry/exit/stmt/branch/loop_head/with/with_exit/except
    stmt: ast.AST | None = None
    succs: list[int] = field(default_factory=list)

    def add_succ(self, index: int) -> None:
        """Append an edge (idempotent, keeps first-added order)."""
        if index not in self.succs:
            self.succs.append(index)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    func: FuncDef
    nodes: list[CFGNode]
    entry: int
    exit: int

    def preds(self) -> dict[int, list[int]]:
        """Predecessor lists, derived from the successor edges."""
        out: dict[int, list[int]] = {n.index: [] for n in self.nodes}
        for node in self.nodes:
            for succ in node.succs:
                out[succ].append(node.index)
        return out

    def nodes_of_kind(self, kind: str) -> list[CFGNode]:
        """All nodes with the given ``kind``, in creation order."""
        return [n for n in self.nodes if n.kind == kind]


def _is_simple_assign(stmt: ast.stmt | None) -> bool:
    """True for ``name = <expr>`` / ``name: T = <expr>``.

    These statements are all-or-nothing: Python binds the name only after
    the right-hand side fully evaluates, so on an exception path the
    binding never happened.  Attribute/subscript targets (setters can
    raise mid-way) and tuple unpacking (partial binds) do not qualify.
    """
    if isinstance(stmt, ast.Assign):
        return len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name)
    if isinstance(stmt, ast.AnnAssign):
        return isinstance(stmt.target, ast.Name) and stmt.value is not None
    return False


# Unwind-stack frames.  Abrupt exits (return/raise/break/continue) pop
# frames innermost-first: 'finally' frames splice a fresh copy of the
# finalbody onto the path, 'with' frames splice a fresh with_exit node.
_LOOP, _FINALLY, _WITH = "loop", "finally", "with"


@dataclass
class _Frame:
    kind: str
    # loop: sinks collect break-edge sources; continue_target is the head.
    break_sinks: list[int] = field(default_factory=list)
    continue_target: int = -1
    # finally: the statements to duplicate on abrupt exit.
    finalbody: list[ast.stmt] = field(default_factory=list)
    # with: the With node whose managers a with_exit releases.
    with_stmt: ast.AST | None = None


class _Builder:
    """Recursive statement lowering with an explicit frontier.

    The *frontier* is the list of node indices whose control continues at
    the next statement; lowering a statement consumes the frontier and
    returns the new one (empty when the block cannot fall through).
    """

    def __init__(self, func: FuncDef):
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.frames: list[_Frame] = []

    # -- plumbing ----------------------------------------------------------

    def _new(self, kind: str, stmt: ast.AST | None = None) -> int:
        node = CFGNode(index=len(self.nodes), kind=kind, stmt=stmt)
        self.nodes.append(node)
        return node.index

    def _connect(self, frontier: list[int], target: int) -> None:
        for index in frontier:
            self.nodes[index].add_succ(target)

    def _seq(self, frontier: list[int], kind: str, stmt: ast.AST) -> list[int]:
        node = self._new(kind, stmt)
        self._connect(frontier, node)
        return [node]

    # -- abrupt-exit unwinding ---------------------------------------------

    def _unwind(
        self, frontier: list[int], stop_at_loop: bool
    ) -> tuple[list[int], _Frame | None]:
        """Run cleanup frames innermost-out; return (frontier, loop|None).

        ``stop_at_loop`` is True for break/continue (unwind only frames
        inside the nearest loop); False for return/raise (unwind all).

        While a frame's cleanup is lowered, the frame stack is masked to
        the frames *outside* it, so an abrupt exit inside a ``finally``
        body unwinds outward instead of recursing into itself.
        """
        saved = self.frames
        try:
            for i in range(len(saved) - 1, -1, -1):
                frame = saved[i]
                if frame.kind == _LOOP:
                    if stop_at_loop:
                        return frontier, frame
                    continue
                self.frames = saved[:i]
                if frame.kind == _WITH:
                    node = self._new("with_exit", frame.with_stmt)
                    self._connect(frontier, node)
                    frontier = [node]
                elif frame.kind == _FINALLY:
                    frontier = self._lower_block(frame.finalbody, frontier)
                    if not frontier:
                        return [], None  # finally itself returned/raised
            return frontier, None
        finally:
            self.frames = saved

    # -- statement lowering ------------------------------------------------

    def build(self) -> CFG:
        frontier = self._lower_block(self.func.body, [self.entry])
        self._connect(frontier, self.exit)
        return CFG(func=self.func, nodes=self.nodes, entry=self.entry, exit=self.exit)

    def _lower_block(self, body: list[ast.stmt], frontier: list[int]) -> list[int]:
        for stmt in body:
            if not frontier:
                break  # unreachable tail after return/raise/...
            frontier = self._lower_stmt(stmt, frontier)
        return frontier

    def _lower_stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._lower_loop(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._lower_with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._lower_try(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._lower_match(stmt, frontier)
        if isinstance(stmt, ast.Return):
            frontier = self._seq(frontier, "stmt", stmt)
            frontier, _ = self._unwind(frontier, stop_at_loop=False)
            self._connect(frontier, self.exit)
            return []
        if isinstance(stmt, ast.Raise):
            # Handler edges are added by _lower_try; a raise otherwise
            # unwinds through cleanup to exit like a return.
            frontier = self._seq(frontier, "stmt", stmt)
            frontier, _ = self._unwind(frontier, stop_at_loop=False)
            self._connect(frontier, self.exit)
            return []
        if isinstance(stmt, ast.Break):
            frontier = self._seq(frontier, "stmt", stmt)
            frontier, loop = self._unwind(frontier, stop_at_loop=True)
            if loop is not None:
                loop.break_sinks.extend(frontier)
            return []
        if isinstance(stmt, ast.Continue):
            frontier = self._seq(frontier, "stmt", stmt)
            frontier, loop = self._unwind(frontier, stop_at_loop=True)
            if loop is not None:
                self._connect(frontier, loop.continue_target)
            return []
        # Plain statement (includes nested def/class: one opaque node).
        return self._seq(frontier, "stmt", stmt)

    def _lower_if(self, stmt: ast.If, frontier: list[int]) -> list[int]:
        branch = self._new("branch", stmt)
        self._connect(frontier, branch)
        then_out = self._lower_block(stmt.body, [branch])
        else_out = self._lower_block(stmt.orelse, [branch]) if stmt.orelse else [branch]
        return then_out + else_out

    def _lower_match(self, stmt: ast.Match, frontier: list[int]) -> list[int]:
        branch = self._new("branch", stmt)
        self._connect(frontier, branch)
        out: list[int] = [branch]  # no case may match
        for case in stmt.cases:
            out.extend(self._lower_block(case.body, [branch]))
        return out

    def _lower_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, frontier: list[int]
    ) -> list[int]:
        head = self._new("loop_head", stmt)
        self._connect(frontier, head)
        frame = _Frame(kind=_LOOP, continue_target=head)
        self.frames.append(frame)
        body_out = self._lower_block(stmt.body, [head])
        self.frames.pop()
        self._connect(body_out, head)  # back edge
        # Normal exhaustion path runs orelse; break bypasses it.
        out = self._lower_block(stmt.orelse, [head]) if stmt.orelse else [head]
        return out + frame.break_sinks

    def _lower_with(
        self, stmt: ast.With | ast.AsyncWith, frontier: list[int]
    ) -> list[int]:
        enter = self._new("with", stmt)
        self._connect(frontier, enter)
        self.frames.append(_Frame(kind=_WITH, with_stmt=stmt))
        body_out = self._lower_block(stmt.body, [enter])
        self.frames.pop()
        if not body_out:
            return []
        leave = self._new("with_exit", stmt)
        self._connect(body_out, leave)
        return [leave]

    def _lower_try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        if stmt.finalbody:
            self.frames.append(_Frame(kind=_FINALLY, finalbody=stmt.finalbody))
        first_body_node = len(self.nodes)
        body_out = self._lower_block(stmt.body, frontier)
        body_nodes = list(range(first_body_node, len(self.nodes)))

        handler_outs: list[int] = []
        for handler in stmt.handlers:
            entry = self._new("except", handler)
            # A handler observes the state before the try body and after
            # any statement inside it -- except simple `name = <expr>`
            # assignments: the binding happens only after the RHS fully
            # evaluates, so a raising assign never bound the name.  Their
            # pre-state already reaches the handler through their
            # predecessors' edges, so skipping them is what makes
            # `x = acquire()` as the last statement of a try body not leak
            # into the handler.
            self._connect(frontier, entry)
            for index in body_nodes:
                node = self.nodes[index]
                if node.kind == "except":
                    continue
                if node.kind == "stmt" and _is_simple_assign(node.stmt):
                    continue
                node.add_succ(entry)
            handler_outs.extend(self._lower_block(handler.body, [entry]))

        orelse_out = (
            self._lower_block(stmt.orelse, body_out) if stmt.orelse else body_out
        )
        merged = orelse_out + handler_outs
        if stmt.finalbody:
            self.frames.pop()
            merged = self._lower_block(stmt.finalbody, merged)
        return merged


def build_cfg(func: FuncDef) -> CFG:
    """Build the CFG of one function/method body."""
    return _Builder(func).build()


def iter_function_defs(tree: ast.Module) -> Iterator[FuncDef]:
    """Every function/method definition in the module, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# -- generic forward analysis --------------------------------------------------


def analyze_forward(
    cfg: CFG,
    init: object,
    transfer: Callable[[CFGNode, object], object],
    merge: Callable[[object, object], object],
    max_passes: int = 50,
) -> dict[int, object]:
    """Forward worklist analysis; returns the in-state of every node.

    ``init`` seeds the entry node.  ``transfer(node, state)`` must return
    a *new* state (never mutate its input); ``merge(a, b)`` joins states
    at control-flow merges.  Unreached nodes keep an in-state of ``None``
    (bottom) -- ``merge`` is never called with ``None``.

    States are compared with ``==`` to detect the fixpoint; clients use
    plain dicts/frozensets.  ``max_passes`` bounds iteration for safety
    (lattices here are finite and shallow; the bound is never hit in
    practice).
    """
    in_states: dict[int, object] = {n.index: None for n in cfg.nodes}
    in_states[cfg.entry] = init
    order = [n.index for n in cfg.nodes]  # creation order ~ program order
    for _ in range(max_passes):
        changed = False
        for index in order:
            state = in_states[index]
            if state is None:
                continue
            out = transfer(cfg.nodes[index], state)
            for succ in cfg.nodes[index].succs:
                current = in_states[succ]
                joined = out if current is None else merge(current, out)
                if joined != current:
                    in_states[succ] = joined
                    changed = True
        if not changed:
            break
    return in_states
