"""repro-lint: AST-based static analysis enforcing the repo's contracts.

A self-contained, stdlib-only framework (see ``docs/STATIC_ANALYSIS.md``).
Every rule is here because it found a defect under ``src/`` that nothing
else in the test suite fails on:

- **REP001** determinism -- no unseeded/global-state numpy randomness,
- **REP002** clock discipline -- "now" flows through ``telemetry.clock``,
- **REP005** import layering -- the package DAG is a checked contract,
- **REP009** resource lifecycle -- what is acquired is released on every path.

Run it with ``python -m tools.lint`` (see ``tools.lint.cli``).
"""

from tools.lint.core import (
    FileContext,
    Finding,
    LintError,
    LintReport,
    Rule,
    Suppressions,
    all_rules,
    register,
    run_lint,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintError",
    "LintReport",
    "Rule",
    "Suppressions",
    "all_rules",
    "register",
    "run_lint",
]
