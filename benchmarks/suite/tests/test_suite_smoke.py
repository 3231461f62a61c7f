"""The suite runs end to end at smoke size, and its declarations agree."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import metrics
import tracing
from workloads.serving import Serving, pool2

SUITE_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = SUITE_DIR.parents[1]


def test_smoke_runs_every_workload_and_check():
    """``--all --smoke --trace 1``: 5 untraced + 5 traced runs, all checks pass."""
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--all", "--smoke", "--trace", "1", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    for name in ("cycle_ref", "mtc_pool", "analysis_dense", "serve_hot", "serve_publish"):
        assert f"== {name} (end-to-end" in done.stdout
        assert f"== {name} (traced" in done.stdout
    assert "CHECK FAILED" not in done.stdout
    assert "Traceback" not in done.stderr  # e.g. cancelled-task noise from a client


def test_driver_contract_line():
    """The last stdout line is the one JSON object the driver reads."""
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--workload", "serve_publish",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {name for name, *_ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_benchmark_json_matches_declarations():
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in manifest["workloads"]] == [
        "cycle_ref", "mtc_pool", "analysis_dense", "serve_hot", "serve_publish",
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == list(metrics.PER_LAYER)


def test_self_time_subtracts_the_union_of_children():
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]).__next__
    recorder = tracing.SpanRecorder(clock)
    with recorder.root("body"):          # 0 .. 10
        with recorder.span("a", "ocean"):    # 1 .. 4
            with recorder.span("b", "core"):  # 2 .. 3
                pass
    own = tracing.self_times(recorder.spans())
    assert own == {"core": 1.0, "ocean": 2.0, tracing.UNATTRIBUTED: 7.0}
    assert tracing._covered([(0, 2), (1, 3), (5, 6)]) == 4.0


def test_waiting_is_charged_to_the_waiting_layer():
    """A span opened with ``waiting`` keeps its CPU seconds, the rest moves."""
    clock = iter([0.0, 1.0, 5.0, 10.0]).__next__
    cpu_clock = iter([100.0, 101.5]).__next__
    recorder = tracing.SpanRecorder(clock, cpu_clock)
    with recorder.root("body"):                                    # 0 .. 10
        with recorder.span("member", "ocean", waiting="workflow"):  # 1 .. 5, 1.5 s on CPU
            pass
    spans = recorder.spans()
    assert tracing.self_times(spans) == {"ocean": 1.5, "workflow": 2.5, tracing.UNATTRIBUTED: 6.0}
    assert tracing.wait_times(spans) == {"workflow": 2.5}


def test_orphan_thread_spans_attach_to_the_ambient_span():
    import threading

    recorder = tracing.SpanRecorder()
    with recorder.root("body"):
        with recorder.span("pool", "workflow", ambient=True) as pool:
            worker = threading.Thread(target=lambda: recorder.span("m", "ocean").__enter__().__exit__(None, None, None))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    member = next(s for s in recorder.spans() if s.name == "m")
    assert member.parent_id == pool.span_id


def test_own_pooling_matches_a_direct_mean():
    array = np.arange(12.0).reshape(3, 4)
    array[0, 0] = np.nan
    pooled = pool2(array)
    assert pooled.shape == (2, 2)
    assert pooled[0, 0] == np.mean([1.0, 4.0, 5.0])
    assert pooled[1, 1] == np.mean([10.0, 11.0])


def test_body_check_rejects_a_wrong_tile():
    """The serving check compares values, not just shapes."""
    from harness import Scratch
    from sizes import SMOKE

    with Scratch("test-serving") as scratch:
        workload = Serving({**SMOKE["serve_hot"], "seed_versions": 1}, 0, scratch)
        workload.setup()
        target = next(t for t in workload.targets if t["kind"] == "tile")
        tile = workload.fields_of(1)[target["field"]][:8, :8]
        values = [[None if np.isnan(v) else float(v) for v in row] for row in tile]
        good = json.dumps({"version": 1, "values": values}).encode()
        assert workload._body_matches(target, 1, good) is True
        assert workload._body_matches(target, 2, good) is False  # wrong version
        values[-1][-1] += 1e-3
        assert workload._body_matches(target, 1, json.dumps({"version": 1, "values": values}).encode()) is False
        assert workload._body_matches(target, 1, b"{not json") is None


def test_corrupted_faulted_run_turns_the_record_incorrect(monkeypatch):
    """The traced pass checks the fault-injected run's real output."""
    import harness
    from workloads.mtc_pool import MtcPool

    real_extras = MtcPool.traced_extras

    def losing_a_member(self, tracer, digest):
        values = real_extras(self, tracer, digest)
        self.faulted = {**self.faulted, "n_failed": 1, "rho": 0.9}
        return values

    monkeypatch.setattr(MtcPool, "traced_extras", losing_a_member)
    record = harness.run_workload("mtc_pool", seed=0, seconds=1.0, trace=True, smoke=True)
    assert record["correct"] is False
    assert any("faulted run" in failure for failure in record["check_failures"])


def test_samples_are_reported_in_reference_seconds(monkeypatch):
    """A sample on a host twice as slow as nominal reads half its raw seconds."""
    import harness
    import hostspeed

    kernel_times = iter([2.0 * hostspeed.NOMINAL_S, 2.0 * hostspeed.NOMINAL_S])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(kernel_times))
    clock = iter([10.0, 13.0]).__next__
    monkeypatch.setattr(harness, "MONOTONIC", clock)
    samples = harness.Samples()
    assert samples.time(lambda: "done") == "done"
    assert samples.raw_s == [3.0]
    assert samples.kernel_s == [2.0 * hostspeed.NOMINAL_S]
    assert samples.reference_s == [1.5]
