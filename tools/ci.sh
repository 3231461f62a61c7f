#!/bin/sh
# CI check: workflow + telemetry + SVD/ocean/acoustics kernel test suites,
# static analysis, trace smoke.
#
# Run from the repository root:
#     sh tools/ci.sh          # workflow/telemetry/kernel tests + lint + smoke
#     CI_FULL=1 sh tools/ci.sh  # the full tier-1 suite instead
#     sh tools/ci.sh --quick  # pre-commit: changed-only lint + tier-1 tests
#
# Static analysis is repro-lint (tools/lint): determinism, clock, lock,
# concurrency, docstring and import-layering contracts, checked against
# the committed baseline (see docs/STATIC_ANALYSIS.md).  The docs lint is
# the standalone entry point of the same REP004 rule.  The sanitized pass
# re-runs the threaded suites under the runtime concurrency sanitizer
# (docs/CONCURRENCY.md): lockset race detection plus lock-order
# witnessing, failing any test that produces a report.  The smoke test
# runs a tiny task pool with tracing enabled and verifies the exported
# Chrome trace parses and validates.

set -e

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# Summary cache: warm runs replay unchanged files (plus their
# reverse-dependency frontier) instead of re-linting them.  The dir is
# gitignored; point LINT_CACHE_DIR elsewhere to relocate it.  --jobs
# fans the rule pass out over worker processes where cores exist.
LINT_CACHE_DIR="${LINT_CACHE_DIR:-.lint-cache}"
LINT_JOBS="${LINT_JOBS:-$(nproc 2>/dev/null || echo 1)}"
LINT_FLAGS="--jobs $LINT_JOBS --cache-dir $LINT_CACHE_DIR"

# --quick: the pre-commit loop.  Lint only what changed vs HEAD (strict
# about stale baseline entries so fixes prune their debt), then the
# tier-1 suite.  Full CI below always lints everything.
if [ "${1:-}" = "--quick" ]; then
    python -m tools.lint --changed-only --strict-baseline $LINT_FLAGS
    echo "repro-lint (changed files): clean"
    python -m pytest -x -q
    echo "quick check: ok"
    exit 0
fi

# tests/products includes the byte-level fuzz suite of the HTTP front end
# (test_server_fuzz.py: hypothesis at small max_examples, deadlines patched
# to tens of milliseconds), here and in the sanitized pass below.
if [ -n "${CI_FULL:-}" ]; then
    python -m pytest -x -q
else
    python -m pytest tests/workflow tests/telemetry tests/lint tests/products \
        tests/core/test_localization.py tests/core/test_tiling.py \
        tests/core/test_tiled_analysis.py tests/core/test_assimilation.py \
        tests/core/test_subspace.py tests/core/test_incremental_svd.py \
        tests/util/test_linalg.py tests/util/test_randomized_svd.py \
        tests/util/test_rng_randomfields.py \
        tests/ocean tests/acoustics tests/test_determinism.py -q
fi

# Sanitized pass: the threaded suites again, with the lockset race
# detector and lock-order witness live on every lock in the system
# (tests/util holds the sanitizer's own self-tests and the fsio suites).
REPRO_SANITIZE=1 python -m pytest tests/workflow tests/telemetry tests/products \
    tests/util -q
echo "sanitizer: clean"

python -m tools.lint src/repro tests benchmarks tools --strict-baseline \
    $LINT_FLAGS --format json > /dev/null
echo "repro-lint: clean"

# SARIF smoke: the same run rendered as SARIF 2.1.0 must pass the
# structural validator (a renderer regression fails here, not at the
# code-scanning upload).
lint_sarif="$(mktemp)"
python -m tools.lint src/repro tests benchmarks tools --strict-baseline \
    $LINT_FLAGS --format sarif > "$lint_sarif"
python - "$lint_sarif" <<'EOF'
import json, sys
from tools.lint.sarif import validate_sarif
problems = validate_sarif(json.load(open(sys.argv[1])))
if problems:
    raise SystemExit("SARIF validation failed:\n  " + "\n  ".join(problems))
print("repro-lint SARIF: valid")
EOF
rm -f "$lint_sarif"

python tools/check_docs.py
python tools/check_docs.py --pages
python tools/check_docs.py repro.workflow.faults repro.workflow.policies
python tools/check_docs.py \
    repro.telemetry.clock repro.telemetry.spans repro.telemetry.metrics \
    repro.telemetry.events repro.telemetry.export
python tools/check_docs.py repro.util.sanitizer repro.core.taskmodel
python tools/check_docs.py repro.util.fsio repro.workflow.covfile
python tools/check_docs.py \
    repro.core.assimilation repro.core.localization repro.core.tiling \
    repro.workflow.pool
python tools/check_docs.py \
    repro.products.store repro.products.tiles repro.products.cache \
    repro.products.service repro.products.server
python tools/check_docs.py \
    repro.ocean.dynamics repro.ocean.stochastic repro.ocean.masking \
    repro.util.randomfields repro.acoustics.modes
python tools/check_docs.py repro.util.linalg repro.core.subspace

# Smoke: the product-service load bench at CI scale (tiny fleet; the
# committed full-size numbers live in
# benchmarks/results/BENCH_product_service.json).
products_tmp="$(mktemp -d)"
BENCH_SMOKE=1 BENCH_OUTPUT_DIR="$products_tmp" \
    python -m pytest benchmarks/bench_product_service.py -q \
    --rootdir=benchmarks -p no:cacheprovider
rm -rf "$products_tmp"
echo "product service smoke: ok"

# Smoke: the lint-engine bench at CI scale (lints tools/lint only; the
# committed full-repo numbers live in benchmarks/results/BENCH_lint.json).
lint_tmp="$(mktemp -d)"
BENCH_SMOKE=1 BENCH_OUTPUT_DIR="$lint_tmp" \
    python -m pytest benchmarks/bench_lint.py -q \
    --rootdir=benchmarks -p no:cacheprovider
rm -rf "$lint_tmp"
echo "lint bench smoke: ok"

# Gate: the repo benchmark (BENCHMARK.json) at smoke size -- every
# workload's body runs and its output checks (full ensembles, no member
# lost, faulted run retried, subspaces match the serial reference, ...)
# must hold -- plus the suite's own tests.  Smoke numbers are never
# recorded; the timed comparison is the benchmark driver's job.
python3 benchmarks/suite/run.py --all --trace 1 --smoke --seconds 0.5
python -m pytest benchmarks/suite/tests -q -p no:cacheprovider
echo "benchmark suite smoke: ok"

# Smoke: a tiny traced task-pool run must export a valid Chrome trace.
python - <<'EOF'
import json
import tempfile
from pathlib import Path

from repro.core import ESSEConfig, PerturbationGenerator, synthetic_initial_subspace
from repro.core.ensemble import EnsembleRunner
from repro.ocean import PEModel
from repro.ocean.bathymetry import monterey_grid
from repro.telemetry import TraceRecorder, validate_chrome_trace, write_chrome_trace
from repro.workflow import ParallelESSEWorkflow

grid = monterey_grid(nx=12, ny=10, nz=3)
model = PEModel(grid=grid)
background = model.run(model.rest_state(), 6 * model.config.dt)
subspace = synthetic_initial_subspace(
    model.layout, grid.shape2d, grid.nz, rank=4, seed=0
)
runner = EnsembleRunner(
    model,
    PerturbationGenerator(model.layout, subspace, root_seed=3),
    duration=2 * model.config.dt,
    root_seed=3,
)
recorder = TraceRecorder()
with tempfile.TemporaryDirectory() as tmp:
    workflow = ParallelESSEWorkflow(
        runner,
        ESSEConfig(initial_ensemble_size=3, max_ensemble_size=4,
                   convergence_tolerance=1.0, max_subspace_rank=4),
        Path(tmp) / "wf",
        n_workers=2,
        telemetry=recorder,
    )
    workflow.run(background)
    trace_path = write_chrome_trace(Path(tmp) / "trace.json",
                                    spans=recorder.spans(),
                                    events=recorder.events())
    obj = json.loads(trace_path.read_text())
problems = validate_chrome_trace(obj)
if problems:
    raise SystemExit("trace smoke test failed: " + "; ".join(problems))
names = {e["name"] for e in obj["traceEvents"]}
for required in ("workflow.run", "pemodel"):
    if required not in names:
        raise SystemExit(f"trace smoke test: missing {required!r} span")
print(f"trace smoke test: valid Chrome trace "
      f"({len(obj['traceEvents'])} events)")
EOF
