"""REP001: no unseeded or global-state numpy randomness.

The ESSE pipeline's reproducibility story (paper Sec 5.3.3: members can be
re-run and re-ordered across hosts without changing the statistics) rests
on every random draw flowing from :class:`repro.util.rng.SeedSequenceStream`.
An unseeded ``np.random.default_rng()`` fallback or a legacy module-level
``np.random.*`` call silently breaks bit-identical repeat runs, which in
turn invalidates ensemble-statistics comparisons between configurations.
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

#: Legacy module-level functions drawing from numpy's hidden global state.
LEGACY_GLOBAL_FNS = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "standard_normal",
    "uniform",
    "exponential",
    "poisson",
    "binomial",
    "gamma",
    "beta",
    "lognormal",
    "multivariate_normal",
}

#: The one module allowed to construct generators however it likes.
EXEMPT_MODULES = {"repro.util.rng"}


@register
class DeterminismRule(Rule):
    """Flag randomness that escapes the SeedSequence discipline."""

    id = "REP001"
    name = "determinism"
    summary = (
        "no unseeded np.random.default_rng() and no module-level np.random.* "
        "global-state calls outside repro/util/rng.py"
    )
    explanation = """\
Every random draw must derive from an explicit seed or Generator threaded
from the experiment's root seed (repro.util.rng.SeedSequenceStream), so two
runs with the same configuration produce bit-identical perturbations,
failure draws, queue waits and observation noise.

Bad:
    rng = np.random.default_rng()          # fresh OS entropy every run
    noise = np.random.standard_normal(n)   # hidden global state
    rng_attr: Generator = field(default_factory=np.random.default_rng)

Good:
    from repro.util.rng import SeedSequenceStream
    rng = SeedSequenceStream(root_seed).rng("obs", "noise")
    # or accept rng/seed from the caller and default deterministically:
    def f(..., rng: np.random.Generator | None = None):
        rng = rng if rng is not None else SeedSequenceStream(0).rng("f")

Suppress a deliberate exception with `# repro-lint: disable=REP001`.
"""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Scan one file for unseeded / global-state numpy randomness."""
        if ctx.module_name in EXEMPT_MODULES:
            return
        aliases = ImportAliases()
        aliases.visit(ctx.tree)
        if not any(v.split(".")[0] == "numpy" for v in aliases.aliases.values()):
            return
        symbols = enclosing_symbols(ctx.tree)
        call_funcs = {
            id(node.func) for node in ast.walk(ctx.tree) if isinstance(node, ast.Call)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = resolve_dotted(node.func, aliases.aliases)
                if name is None:
                    continue
                symbol = symbols.get(id(node), "<module>")
                if name == "numpy.random.default_rng" and not (
                    node.args or node.keywords
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "unseeded np.random.default_rng(): thread a seed or "
                        "Generator from the caller's root seed "
                        "(repro.util.rng.SeedSequenceStream)",
                        symbol=symbol,
                    )
                elif name == "numpy.random.RandomState":
                    yield ctx.finding(
                        self,
                        node,
                        "legacy np.random.RandomState: use seeded "
                        "np.random.default_rng / SeedSequenceStream streams",
                        symbol=symbol,
                    )
                elif (
                    name.startswith("numpy.random.")
                    and name.rsplit(".", 1)[1] in LEGACY_GLOBAL_FNS
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"module-level {name}() draws from numpy's hidden "
                        "global state; use an explicit seeded Generator",
                        symbol=symbol,
                    )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if id(node) in call_funcs:
                    continue  # handled above as a call
                name = resolve_dotted(node, aliases.aliases)
                if name == "numpy.random.default_rng":
                    yield ctx.finding(
                        self,
                        node,
                        "bare reference to np.random.default_rng (e.g. as a "
                        "default_factory) constructs an unseeded generator",
                        symbol=symbols.get(id(node), "<module>"),
                    )
