"""REP002: clock discipline -- all "now" flows through telemetry.clock.

The scheduler simulator runs on *virtual* time and the telemetry spans on
an *injectable* clock; a stray ``time.time()`` inside either produces
traces that mix wall and virtual seconds and breaks the FakeClock-based
timing tests.  Only :mod:`repro.telemetry.clock` may touch the process
clock; everything else takes a zero-argument callable.
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

#: Wall/process clock reads that must stay confined to telemetry/clock.py.
CLOCK_READS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: The one module allowed to read the process clock.
EXEMPT_MODULES = {"repro.telemetry.clock"}


@register
class ClockRule(Rule):
    """Flag direct process-clock reads outside the clock module."""

    id = "REP002"
    name = "clock-discipline"
    summary = (
        "no time.time()/time.monotonic()/datetime.now() etc. outside "
        "repro/telemetry/clock.py; use the injectable clock"
    )
    explanation = """\
Components must take "now" from an injectable zero-argument callable (see
repro.telemetry.clock) so that live runs use the monotonic clock and
tests inject FakeClock for exact timing assertions.  Both calls and bare references (handing the
function around as a clock) are flagged; time.sleep() is allowed.

Bad:
    started = time.time()
    span.end = time.perf_counter()
    stamp = datetime.now().isoformat()

Good:
    from repro.telemetry.clock import MONOTONIC
    def __init__(self, clock=MONOTONIC): self._clock = clock
    started = self._clock()

A wall-clock read that is genuinely about the real world (e.g. a benchmark
recording its own date) carries `# repro-lint: disable=REP002`.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Scan one file for direct process-clock reads."""
        if ctx.module_name in EXEMPT_MODULES:
            return
        aliases = ImportAliases()
        aliases.visit(ctx.tree)
        roots = {v.split(".")[0] for v in aliases.aliases.values()}
        if not roots & {"time", "datetime"}:
            return
        symbols = enclosing_symbols(ctx.tree)
        inside_chain: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                inside_chain.add(id(node.value))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if id(node) in inside_chain:
                continue  # only report the full dotted chain once
            name = resolve_dotted(node, aliases.aliases)
            if name in CLOCK_READS:
                yield ctx.finding(
                    self,
                    node,
                    f"direct clock read {name}: take an injectable clock "
                    "(repro.telemetry.clock) instead",
                    symbol=symbols.get(id(node), "<module>"),
                )
