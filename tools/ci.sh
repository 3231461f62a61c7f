#!/bin/sh
# CI check: test suites, static analysis, docs pages, benchmark and trace
# smokes.
#
# Run from the repository root:
#     sh tools/ci.sh          # the tier-1 suite once + the rest below
#     sh tools/ci.sh --quick  # pre-commit: changed-only lint + tier-1 tests
#
# Static analysis is one repro-lint run (determinism, clock, layering,
# resource-lifecycle and unused-import rules; docs/STATIC_ANALYSIS.md) over the same four
# trees tier-1's tests/lint/test_cli.py::TestRealTree lints; there is no
# baseline, a finding fails.  The docs lint checks the docs/ pages
# (docstring coverage is tier-1's tests/test_docstrings.py).  The smoke
# test runs a tiny task pool with tracing enabled and verifies the
# exported Chrome trace parses and validates.

set -e

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

# --quick: the pre-commit loop.  Lint only what changed vs HEAD, then the
# tier-1 suite.  Full CI below always lints everything.
if [ "${1:-}" = "--quick" ]; then
    python -m tools.lint --changed-only
    echo "repro-lint (changed files): clean"
    python -m pytest -x -q
    echo "quick check: ok"
    exit 0
fi

# Every test, once.  tests/products includes the byte-level fuzz suite of
# the HTTP front end (test_server_fuzz.py: hypothesis at small
# max_examples, deadlines patched to tens of milliseconds).
python -m pytest -q

# ESSEDriver.forecast steps a stage's member batches, and the analysis and
# the SVD the row blocks of their tall products, on every usable CPU; on
# one CPU each is plain map with no thread: re-run the driver, replay,
# tall-product and analysis tests once in a process pinned to one CPU, so
# the serial path meets a real affinity mask and not only the patched
# helper.  The step-workspace tests (a run's buffers are its own, two
# threads on one shared model) run there too, on the serial schedule.
python - <<'EOF'
import os
import sys

import pytest

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(pytest.main([
    "-q", "-p", "no:cacheprovider",
    "tests/core/test_ensemble_driver.py", "tests/test_determinism.py",
    "tests/ocean/test_step_workspace.py",
    "tests/util/test_linalg.py", "tests/core/test_incremental_svd.py",
    "tests/core/test_assimilation.py",
]))
EOF
echo "one-CPU driver, replay, step-workspace, SVD and analysis tests: ok"

# Tier-1 runs the asserting examples; the other four are only imported
# there, so run each end to end here, in a scratch working directory
# (aosn2_monterey writes its .npz into the cwd).
repo="$(pwd)"
examples_tmp="$(mktemp -d)"
for name in aosn2_monterey cloud_campaign mtc_workflows realtime_cycle; do
    (cd "$examples_tmp" && PYTHONPATH="$repo/src" python "$repo/examples/$name.py" > /dev/null)
    echo "example $name: ok"
done
rm -rf "$examples_tmp"

python -m tools.lint src/repro tests benchmarks tools
echo "repro-lint: clean"

python tools/check_docs.py --pages

# Smoke: the product-service load bench at CI scale (tiny fleet; the
# committed full-size numbers live in
# benchmarks/results/BENCH_product_service.json).
products_tmp="$(mktemp -d)"
BENCH_SMOKE=1 BENCH_OUTPUT_DIR="$products_tmp" \
    python -m pytest benchmarks/bench_product_service.py -q \
    --rootdir=benchmarks -p no:cacheprovider
rm -rf "$products_tmp"
echo "product service smoke: ok"

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
for required in ("workflow.run", "pemodel", "stage.propagate", "stage.svd"):
    if required not in names:
        raise SystemExit(f"trace smoke test: missing {required!r} span")
print(f"trace smoke test: valid Chrome trace "
      f"({len(obj['traceEvents'])} events)")
EOF
