"""Fig 4: the parallel (many-task) ESSE implementation vs the serial one.

Reproduces the paper's transformation claims:

- members execute concurrently and complete out of order;
- the differ runs continuously, overlapping the forecast pool (the serial
  implementation has zero overlap by construction);
- the SVD/convergence worker reads consistent snapshots via the three-file
  protocol while the differ keeps writing;
- on convergence, superfluous members are cancelled;
- the resulting subspace is statistically equivalent to the serial one.
"""

from conftest import print_table
from record import output_dir, record_bench
from repro.core import ESSEConfig, similarity_coefficient
from repro.telemetry import MetricsRegistry, TraceRecorder, write_jsonl
from repro.workflow import ParallelESSEWorkflow, SerialESSEWorkflow


def test_fig4_parallel_workflow(benchmark, small_esse_setup, tmp_path):
    runner = small_esse_setup["runner"]
    background = small_esse_setup["background"]
    config = ESSEConfig(
        initial_ensemble_size=6,
        max_ensemble_size=24,
        convergence_tolerance=0.93,
        max_subspace_rank=8,
    )

    serial = SerialESSEWorkflow(runner, config, tmp_path / "serial").run(background)

    recorder = TraceRecorder()
    registry = MetricsRegistry()

    def run_parallel():
        return ParallelESSEWorkflow(
            runner,
            config,
            tmp_path / "parallel",
            n_workers=4,
            telemetry=recorder,
            metrics=registry,
        ).run(background)

    parallel = benchmark.pedantic(run_parallel, rounds=1, iterations=1)

    rho = similarity_coefficient(serial.subspace, parallel.subspace)
    rows = [
        ["ensemble size", serial.ensemble_size, parallel.ensemble_size],
        ["converged", serial.converged, parallel.converged],
        ["wall time", f"{serial.timings.total:.2f} s",
         f"{parallel.wall_seconds:.2f} s"],
        ["diff/forecast overlap", "0% (by construction)",
         f"{100 * parallel.overlap_fraction():.0f}%"],
        ["members cancelled", 0, parallel.n_cancelled],
        ["member failures", len(serial.failed_members), parallel.n_failed],
    ]
    print_table(
        f"Fig 4: serial vs many-task ESSE (subspace agreement rho={rho:.4f})",
        ["metric", "serial (Fig 3)", "parallel (Fig 4)"],
        rows,
    )

    # Machine-readable side: the run log plus a BENCH_*.json summary.
    trace_path = output_dir() / "fig4_parallel_workflow.jsonl"
    write_jsonl(
        trace_path,
        spans=recorder.spans(),
        events=recorder.events(),
        metrics=registry,
    )
    values = {
        "serial_wall_s": serial.timings.total,
        "parallel_wall_s": parallel.wall_seconds,
        "overlap_fraction": parallel.overlap_fraction(),
        "subspace_rho": rho,
        "serial_ensemble_size": serial.ensemble_size,
        "parallel_ensemble_size": parallel.ensemble_size,
        "n_cancelled": parallel.n_cancelled,
        "n_failed": parallel.n_failed,
    }
    record_bench(
        "fig4_parallel_workflow",
        values,
        metrics=registry,
        artifacts={"trace_jsonl": trace_path},
    )

    # the differ overlaps the forecast pool
    assert parallel.overlap_fraction() > 0.5
    # members complete out of order at least once with 4 workers
    ids = list(parallel.member_ids)
    assert ids != sorted(ids) or len(ids) <= 2
    # the three-file protocol fed the SVD: publishes and svd events exist
    assert parallel.events_of("publish")
    assert parallel.events_of("svd_done")
    # statistically equivalent subspaces
    assert rho > 0.9
    # both reach a usable ensemble
    assert parallel.ensemble_size >= config.initial_ensemble_size
