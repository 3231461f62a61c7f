"""The name census as a guard: every public name under ``src/repro`` has a caller.

ROADMAP's standing "Names" rule: a public module-level function or class
under ``src/repro``, or a public method or property of a public class,
stays only if code outside ``tests/`` references it, or if ROADMAP's table
"Kept without a non-test caller" gives it a row.  This test scans
``src/``, ``benchmarks/``, ``examples/`` and ``tools/`` with :mod:`ast` and
fails on a name that has neither.

A module-level name is referenced by a bare name or an attribute of that
name; an import or an ``__all__`` entry is not a reference, and neither is
a use inside the definition itself.  A method is referenced by an
attribute of its name, which says which *name* a caller reaches but not
which class's: when several classes under ``src/repro`` define the name
(as a method, a property, a field or an instance attribute),
:data:`SHARED_NAMES` says, checked by hand at each call site, whose
methods a caller outside ``tests/`` reaches.  The entry also records every
class that defines the name, and the test fails when that set changes, so
each new collision is looked at once.  A method that overrides a base
class from outside ``repro`` is reached through that base's caller (the
asyncio ``Protocol`` callbacks), so it is exempt.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter, defaultdict

from tests.census import PACKAGE, roadmap_table, trees

#: Names kept without a caller outside ``tests/``: the rows of ROADMAP's
#: standing table, which gives each one's reason.  A module-level name is
#: ``<module under repro>.<name>``, a method ``Class.method``; a kept class
#: keeps its methods.
KEPT = frozenset({
    "EnsembleState.from_states",
    "ErrorSubspace.covariance_action",
    "FaultInjector.fault_sequence",
    "FaultInjector.history",
    "MemmapCovarianceStore.count",
    "MemmapCovarianceStore.version",
    "Tile.distance_to",
    "Tile.n_cells",
    "acoustics.modes.solve_modes",
    "core.verification.anomaly_correlation",
    "core.verification.rank_histogram",
    "ocean.diagnostics.kinetic_energy",
    "ocean.diagnostics.max_current_speed",
    "ocean.grid.demo_grid",
    "telemetry.clock.FakeClock",
    "telemetry.export.prometheus_text",
    "telemetry.export.validate_chrome_trace",
    "telemetry.export.write_chrome_trace",
    "util.linalg.orthonormal_columns",
})

#: Method names that more than one class under ``src/repro`` defines:
#: ``name -> (every defining class, the classes whose method a caller
#: outside tests/ reaches)``.  The second set was checked by hand at each
#: call site; e.g. no caller reaches ``FaultInjector.history``, every
#: ``.history`` outside tests is a ``ConvergenceCriterion``'s list.
SHARED_NAMES = {
    "add_member": ("AnomalyAccumulator _CovarianceFile", "AnomalyAccumulator _CovarianceFile"),
    "analysis_rms": ("AnalysisResult CycleRecord", "AnalysisResult"),
    "cancel": ("Simulator _Launched", "Simulator"),
    "cluster": ("ClusterScheduler EnsembleCampaign GridSite", "GridSite"),
    "converged": (
        "ConvergenceCriterion CycleRecord EnsembleGrowth ForecastProduct SerialResult "
        "WorkflowResult",
        "ConvergenceCriterion",
    ),
    "copy": ("EnsembleState ModelState", "EnsembleState ModelState"),
    "count": (
        "AnomalyAccumulator AnomalyView BatchedStochasticForcing ColumnSnapshot "
        "EnsembleState Histogram MemberPool MemmapCovarianceStore TileSummary",
        "AnomalyAccumulator AnomalyView BatchedStochasticForcing ColumnSnapshot "
        "EnsembleState Histogram",
    ),
    "cycle_index": ("ForecastProduct ProductSnapshot", "ProductSnapshot"),
    "duration": ("EnsembleRunner ObservationPeriod Span", "ObservationPeriod Span"),
    "event": ("NullRecorder TraceRecorder", "NullRecorder TraceRecorder"),
    "events": ("RunLog TraceRecorder WorkflowResult", "TraceRecorder"),
    "factor": (
        "AdaptiveInflation MultiplicativeInflation",
        "AdaptiveInflation MultiplicativeInflation",
    ),
    "forecast": ("ESSEDriver MemberResult", "ESSEDriver"),
    "from_dict": (
        "CandidateScore ExperimentConfig ForecastProduct",
        "CandidateScore ExperimentConfig ForecastProduct",
    ),
    "history": ("ConvergenceCriterion FaultInjector", ""),
    "increments": (
        "BatchedStochasticForcing StochasticForcing",
        "BatchedStochasticForcing StochasticForcing",
    ),
    "innovation": ("AnalysisResult ObservationOperator", "ObservationOperator"),
    "innovation_rms": ("AnalysisResult CycleRecord", "AnalysisResult"),
    "is_active": (
        "BatchedStochasticForcing StochasticForcing",
        "BatchedStochasticForcing StochasticForcing",
    ),
    "level": ("Observation SamplingSuggestion TiledField", "TiledField"),
    "lost": ("TaskOutcome TaskPool", "TaskOutcome TaskPool"),
    "mean": ("AnalysisResult Histogram TileSummary", "Histogram"),
    "member_ids": (
        "AnomalyAccumulator AnomalyView ColumnSnapshot EnsembleGrowth WorkflowResult",
        "AnomalyAccumulator",
    ),
    "noise_std_for": (
        "AUVTrack AdaptiveSampler CTDStation GliderTransect Instrument SSTSwath",
        "AUVTrack AdaptiveSampler CTDStation GliderTransect Instrument SSTSwath",
    ),
    "nz": ("DomainSection OceanGrid", "OceanGrid"),
    "observe": (
        "Histogram Instrument ObservationNetwork ObservationOperator",
        "Histogram Instrument ObservationNetwork ObservationOperator",
    ),
    "ok": ("MemberResult TaskOutcome", "MemberResult"),
    "pemodel_seconds": ("EC2InstanceType GridSite", "GridSite"),
    "pert_seconds": ("EC2InstanceType GridSite", "GridSite"),
    "propagate": ("EnsembleEngine MemberPool", "EnsembleEngine MemberPool"),
    "publish": ("MemmapCovarianceStore ProductStore", "MemmapCovarianceStore ProductStore"),
    "rank": ("ErrorSubspace IncrementalSubspaceEstimator", "ErrorSubspace"),
    "read": ("PointerReader StatusDirectory", "PointerReader StatusDirectory"),
    "record_span": ("NullRecorder TraceRecorder", "NullRecorder TraceRecorder"),
    "render": ("ForecastProduct VerificationReport", "ForecastProduct VerificationReport"),
    "rng": ("ObservationNetwork SeedSequenceStream StochasticForcing", "SeedSequenceStream"),
    "run": (
        "AcousticClimate AcousticTask EnsembleCampaign EnsembleEngine PEModel "
        "ParallelESSEWorkflow RealTimeForecastCycle SerialESSEWorkflow Simulator "
        "TaskPool TileTaskPool",
        "AcousticClimate AcousticTask EnsembleCampaign EnsembleEngine PEModel "
        "ParallelESSEWorkflow RealTimeForecastCycle SerialESSEWorkflow Simulator "
        "TaskPool TileTaskPool",
    ),
    "sample_points": (
        "AUVTrack AdaptiveSampler CTDStation GliderTransect Instrument SSTSwath",
        "AUVTrack AdaptiveSampler CTDStation GliderTransect Instrument SSTSwath",
    ),
    "scale": ("AnomalyView ColumnSnapshot FieldSpec", "AnomalyView ColumnSnapshot"),
    "set": ("Gauge _ActiveSpan _NullSpan", "Gauge _ActiveSpan _NullSpan"),
    "shape": ("FieldSpec GaussianRandomField2D TiledField", "TiledField"),
    "size": (
        "FieldLayout FieldSpec ObservationBatch ObservationOperator",
        "FieldSpec ObservationBatch ObservationOperator",
    ),
    "span": ("NullRecorder TraceRecorder", "NullRecorder TraceRecorder"),
    "spans": ("RunLog TraceRecorder", "TraceRecorder"),
    "spec": ("FieldLayout Job Node", "FieldLayout"),
    "speed_factor": ("EC2InstanceType GridSite NodeSpec", "EC2InstanceType"),
    "start": (
        "ForecasterTask GliderTransect ObservationPeriod ProductHTTPServer Span _ActiveSpan",
        "ProductHTTPServer",
    ),
    "state_indices": (
        "ObservationOperator TileDecomposition",
        "ObservationOperator TileDecomposition",
    ),
    "submit": ("ClusterScheduler TaskPool", "ClusterScheduler TaskPool"),
    "to_dict": (
        "CandidateScore ForecastProduct TileSummary",
        "CandidateScore ForecastProduct TileSummary",
    ),
    "update": (
        "ConvergenceCriterion ESSEAnalysis IncrementalSubspaceEstimator",
        "ConvergenceCriterion ESSEAnalysis IncrementalSubspaceEstimator",
    ),
    "value": ("Counter Gauge Observation TaskOutcome", "Counter Gauge"),
    "variances": ("CoupledCovariance ErrorSubspace", "ErrorSubspace"),
    "version": (
        "AnomalyAccumulator AnomalyView ColumnSnapshot MemmapCovarianceStore "
        "PointerWriter ProductSnapshot ProductStore",
        "AnomalyAccumulator ProductStore",
    ),
    "view": (
        "AnomalyAccumulator FieldLayout _CovarianceFile _PublishedColumns",
        "AnomalyAccumulator FieldLayout _CovarianceFile _PublishedColumns",
    ),
    "workspace": (
        "ShallowWaterDynamics TracerDynamics",
        "ShallowWaterDynamics TracerDynamics",
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _class_names(node: ast.ClassDef) -> tuple[set[str], set[str]]:
    """``(methods, other attributes)`` a class defines: its public methods
    and properties, and its fields, class constants and ``self.`` stores."""
    methods, attributes = set(), set()
    for item in node.body:
        if isinstance(item, _FUNCTIONS):
            if _public(item.name):
                methods.add(item.name)
            attributes.update(
                n.attr for n in ast.walk(item)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"
            )
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            attributes.add(item.target.id)
        elif isinstance(item, ast.Assign):
            attributes.update(t.id for t in item.targets if isinstance(t, ast.Name))
    return methods, attributes - methods


def definitions():
    """The public names under ``src/repro`` and the classes defining each method name.

    Returns ``(defs, shared)``: ``defs`` is ``[(key, module, class or None,
    name, node)]``, and ``shared`` maps each method name that more than one
    class defines to every class (public or not) defining it as a method or
    as an attribute.
    """
    defs, definers = [], defaultdict(set)
    for path, tree in trees(["src/repro"]):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        module = module.removesuffix("__init__").rstrip(".")
        for node in tree.body:
            if isinstance(node, _DEFS) and _public(node.name):
                defs.append((f"{module}.{node.name}".lstrip("."), module, None, node.name, node))
            if not isinstance(node, ast.ClassDef):
                continue
            methods, attributes = _class_names(node)
            for name in methods | attributes:
                definers[name].add(node.name)
            if not _public(node.name):
                continue
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and item.name in methods:
                    defs.append((f"{node.name}.{item.name}", module, node.name, item.name, item))
    method_names = {name for _, _, cls, name, _ in defs if cls is not None}
    shared = {name: classes for name, classes in definers.items()
              if name in method_names and len(classes) > 1}
    return defs, shared


def _references(node: ast.AST) -> Counter:
    """``("name", x)`` per bare name ``x`` and ``("attr", x)`` per attribute ``.x``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            found["attr", n.attr] += 1
    return found


def _overrides_outside_repro(module: str, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(f"repro.{module}".rstrip(".")), cls)
    return any(
        name in vars(base) for base in klass.__mro__[1:]
        if not base.__module__.startswith("repro")
    )


def census() -> list[str]:
    """The keys of the public names nothing outside ``tests/`` reaches."""
    defs, shared = definitions()
    refs = Counter()
    for _, tree in trees():
        refs += _references(tree)
    unreached = []
    for key, module, cls, name, node in defs:
        own = _references(node)
        if cls is None:
            if sum(refs[kind, name] - own[kind, name] for kind in ("name", "attr")) == 0:
                unreached.append(key)
        elif name in shared:
            if cls not in SHARED_NAMES.get(name, ("", ""))[1].split():
                unreached.append(key)
        elif refs["attr", name] - own["attr", name] == 0 and not _overrides_outside_repro(
            module, cls, name
        ):
            unreached.append(key)
    return unreached


def _kept(key: str) -> bool:
    """A row keeps its name; a kept class (``module.Class``) keeps its methods."""
    owner = key.split(".")[0]
    return key in KEPT or any(row.endswith(f".{owner}") for row in KEPT)


def test_every_public_name_has_a_caller_or_a_kept_row():
    missing = [key for key in census() if not _kept(key)]
    assert not missing, (
        "public names under src/repro that no code outside tests/ reaches; "
        "delete each (moving its live tests to the surviving API), or give "
        "it a row in ROADMAP's table 'Kept without a non-test caller' and "
        "in KEPT:\n  " + "\n  ".join(missing)
    )


def test_kept_rows_are_still_unreached_names():
    """A kept row that gained a caller, or lost its name, is stale."""
    unreached = set(census())
    assert not KEPT - unreached, f"stale rows: {sorted(KEPT - unreached)}"


def test_shared_names_are_checked_by_hand():
    """Each collision has an entry whose defining classes are still the ones."""
    _, shared = definitions()
    found = {name: " ".join(sorted(classes)) for name, classes in shared.items()}
    listed = {
        name: " ".join(sorted(classes.split())) for name, (classes, _) in SHARED_NAMES.items()
    }
    assert found == listed, (
        "the classes defining a shared method name changed; check every "
        "call site outside tests/ by hand and update SHARED_NAMES"
    )
    for name, (classes, reached) in SHARED_NAMES.items():
        assert set(reached.split()) <= set(classes.split()), name


def test_kept_rows_match_the_roadmap_table():
    assert roadmap_table("| Kept without a non-test caller | Why |") == KEPT


def test_references_count_uses_not_imports():
    found = _references(ast.parse(
        "import numpy\nfrom repro.util import member_rng\nstream.rng(member_rng)\n"
    ))
    assert found["name", "member_rng"] == 1 and found["attr", "rng"] == 1
    assert found["name", "numpy"] == 0


def test_class_names_split_methods_from_attributes():
    node = ast.parse(
        "class C:\n"
        "    limit = 3\n"
        "    size: int = 0\n"
        "    def run(self):\n"
        "        self.count = 1\n"
        "    def _step(self):\n"
        "        self.run = None\n"
    ).body[0]
    assert _class_names(node) == ({"run"}, {"limit", "size", "count"})


def test_a_kept_class_keeps_its_methods():
    assert _kept("Tile.n_cells")  # a method row
    assert _kept("FakeClock.advance")  # through the class row telemetry.clock.FakeClock
    assert not _kept("LRUCache.get")


def test_asyncio_callbacks_are_reached_through_their_base():
    assert _overrides_outside_repro("products.server", "_Connection", "data_received")
    assert not _overrides_outside_repro("products.server", "_Connection", "_serve")
