"""Runs one workload: pinned environment, timing loop, traced pass, records.

Rules that make the numbers repeat (see README.md for the evidence):

- every timed sample (a repetition of the fixed body, a complete set-up)
  is bracketed by two samples of the fixed kernel of :mod:`hostspeed` and
  reported in *reference seconds*: its seconds times the kernel's nominal
  time over the kernel's time just then.  ``wall_s`` is the median of those
  over the repetitions and ``setup_s`` over the set-ups of the run.  The
  box is a few hardware threads of a shared host, and a neighbour on the
  sibling thread slows everything 1.3-1.5x, switching on and off within
  seconds in some quarters of an hour and staying on for minutes in
  others; raw seconds of identical runs then differ by 15-45 % whatever
  statistic a run reports, reference seconds by a few percent;
- bodies are short (0.4-1.4 s) and many, because a repetition and its two
  kernel samples should see the same neighbour;
- BLAS/OpenMP run one thread, and glibc's allocator keeps freed memory
  (no mmap for large blocks, no trim), because page-faulting fresh 40 MB
  temporaries back in cost between 0.05 and 0.36 s of system time for
  the same 2929 faults on the reference box -- three times the spread of
  the computation being measured.  This is harness environment, not a
  program option: the program never reads these variables;
- work is fixed by count; ``--seconds`` only sets for how long the fixed
  body is repeated (kernel samples and digests included).

``run.py`` puts ``src`` on the path (and re-executes under the pinned
environment) before it imports this module.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from repro.telemetry import TraceRecorder
from repro.telemetry.clock import MONOTONIC

import hostspeed
import probes
from metrics import END_TO_END, LAYERS, PER_LAYER, UNITS
from sizes import PINNED_ENV, SUITE_DIR, sizes_for
from tracing import (
    NULL_TRACER,
    UNATTRIBUTED,
    SpanRecorder,
    self_times,
    span_durations,
    wait_times,
    write_spans,
)
from workloads import WORKLOADS

REPO_ROOT = SUITE_DIR.parents[1]
RESULTS_DIR = SUITE_DIR / "results"
WORK_ROOT = REPO_ROOT / ".bench_work"

#: Complete set-ups per untraced run.
SETUP_REPEATS = 3
#: Hard stop on repetitions, whatever ``--seconds`` says.
MAX_REPETITIONS = 60

#: Per-layer metrics read straight off named spans of the traced body (ms).
SPAN_METRICS_MS = {
    "core.dense_global_ms": "core.analysis_global",
    "core.dense_tiled_ms": "core.analysis_tiled",
    "core.dense_svd_cold_ms": "core.svd_cold",
    "core.dense_svd_warm_ms": "core.svd_warm",
}


class Scratch:
    """A private directory under the checkout, removed on exit."""

    def __init__(self, label: str):
        self.root = WORK_ROOT / f"{label}-{os.getpid()}"
        self._count = 0

    def __enter__(self):
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
        return False

    def fresh(self, name: str) -> Path:
        """A new empty subdirectory."""
        self._count += 1
        path = self.root / f"{name}-{self._count:04d}"
        path.mkdir()
        return path


def summary(name: str, values) -> dict:
    """Reported value (the median), quartiles and sample count of one metric."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        q1 = max(q1, min(values))  # the exclusive method can undershoot 3 samples
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "unit": UNITS.get(name, "s"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _git(*args) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def host_block(seed: int) -> dict:
    """Facts a reader needs before comparing two result files."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (KeyError, TypeError):
        pass
    sha = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "git_sha": sha or None,
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
        "seed": seed,
    }


class Samples:
    """Timed samples of one kind, each bracketed by the host-speed kernel."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.kernel_s: list[float] = []
        self.reference_s: list[float] = []

    def time(self, fn):
        """Time ``fn()`` between two kernel samples; returns its result."""
        before = hostspeed.sample()
        start = MONOTONIC()
        result = fn()
        seconds = MONOTONIC() - start
        after = hostspeed.sample()
        kernel = 0.5 * (before + after)
        self.raw_s.append(seconds)
        self.kernel_s.append(kernel)
        self.reference_s.append(seconds * hostspeed.NOMINAL_S / kernel)
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, time (or trace) and check one workload; returns its record."""
    sizes = sizes_for(smoke)
    size = sizes[name]
    if size.get("one_cpu"):
        # Harness environment (README.md): the calling thread's affinity is
        # inherited by every thread the workload starts afterwards.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with Scratch(name) as scratch:
        workload = WORKLOADS[name](size, seed, scratch)
        setups = Samples()
        for _ in range(1 if trace else SETUP_REPEATS):
            setups.time(workload.setup)
        for _ in range(size["warmups"]):
            workload.prepare()
            workload.body(NULL_TRACER)
        if trace:
            return _traced_pass(workload, sizes, scratch, setups.raw_s)
        bodies, digests = Samples(), []
        started = MONOTONIC()
        while len(bodies.raw_s) < MAX_REPETITIONS and (
            len(bodies.raw_s) < size["min_reps"] or MONOTONIC() - started < seconds
        ):
            workload.prepare()
            output = bodies.time(lambda: workload.body(NULL_TRACER))
            digests.append(workload.digest(output))
            del output
        verdict = workload.check(digests)
        samples = {
            "wall_s": bodies.reference_s,
            "setup_s": setups.reference_s,
            "peak_rss_mb": [peak_rss_mb()],
            "wall_raw_s": bodies.raw_s,
            "setup_raw_s": setups.raw_s,
            "host_kernel_s": bodies.kernel_s + setups.kernel_s,
        }
        return _record(workload, verdict, samples, trace=False)


def _traced_pass(workload, sizes, scratch, setup_times) -> dict:
    """Tracing overhead, one suite-traced repetition, extras, then the probes."""
    clock = MONOTONIC
    digests = []

    # Overhead of the program's own tracing: the same body with and without
    # a TraceRecorder attached (no suite proxies on either side), in pairs
    # whose order alternates, both sides in reference seconds.
    plain, recorded = Samples(), Samples()
    for pair in range(sizes["trace_pairs"]):
        program_telemetry = TraceRecorder()
        sides = [(plain, None), (recorded, program_telemetry)]
        for side, attached in sides if pair % 2 == 0 else reversed(sides):
            workload.prepare()
            output = side.time(lambda: workload.body(NULL_TRACER, attached))
            digests.append(workload.digest(output))
            del output
    overhead = statistics.median(recorded.reference_s) / statistics.median(plain.reference_s)

    recorder = SpanRecorder(clock)
    workload.prepare()
    with recorder.root(f"{workload.name}.body"):
        output = workload.body(recorder)
    digests.append(workload.digest(output))
    del output
    body_spans = recorder.spans()

    verdict = workload.check(digests)
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(probes.run_probes(sizes["probes"], workload.seed, scratch))
    values.update(workload.layer_counts(digests[-1]))
    values.update(workload.traced_extras(recorder, digests[-1]))
    verdict.failures += workload.check_extras()

    own = self_times(body_spans)
    body_s = next(s.duration for s in body_spans if s.parent_id is None)
    for layer in LAYERS:
        values[f"trace.{layer}_self_s"] = own.get(layer, 0.0)
    values["trace.suite_self_s"] = own.get(UNATTRIBUTED, 0.0)
    values["trace.attributed_frac"] = 1.0 - own.get(UNATTRIBUTED, 0.0) / body_s
    values["realtime.cycle_overhead_ms"] = own.get("realtime", 0.0) * 1e3
    values["workflow.member_wait_s"] = wait_times(body_spans).get("workflow", 0.0)
    for metric, span_name in SPAN_METRICS_MS.items():
        values[metric] = sum(span_durations(body_spans, span_name)) * 1e3
    gets = sorted(span_durations(body_spans, "products.fetch"))
    if gets:
        for label, share in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            rank = min(int(share * len(gets)), len(gets) - 1)
            values[f"products.get_{label}_ms"] = gets[rank] * 1e3
        values["products.get_samples"] = float(len(gets))
    values["telemetry.trace_overhead_frac"] = overhead - 1.0
    values["telemetry.spans_recorded"] = float(len(program_telemetry.spans()))
    values["skill"] = verdict.skill
    values["fail_frac"] = verdict.failed / verdict.attempted

    RESULTS_DIR.mkdir(exist_ok=True)
    write_spans(RESULTS_DIR / f"TRACE_{workload.name}.jsonl", recorder.spans())
    samples = {key: [value] for key, value in values.items()}
    samples["setup_s"] = setup_times
    samples["untraced_body_s"] = plain.reference_s
    samples["program_traced_body_s"] = recorded.reference_s
    samples["suite_traced_body_s"] = [body_s]
    return _record(workload, verdict, samples, trace=True)


def _record(workload, verdict, samples: dict, trace: bool) -> dict:
    """The suite's own record of one run (ROADMAP item 1's format)."""
    return {
        "workload": workload.name,
        "trace": trace,
        "host": host_block(workload.seed),
        "repetitions": {
            "setup": len(samples["setup_s"]),
            "warmups": workload.size["warmups"],
            "timed": len(samples.get("wall_s", samples.get("untraced_body_s"))),
        },
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "fail_frac": verdict.failed / verdict.attempted,
        "skill": verdict.skill,
        "check_failures": verdict.failures,
        "metrics": {name: summary(name, values) for name, values in samples.items()},
    }


def driver_line(record: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    names = [m[0] for m in (PER_LAYER if record["trace"] else END_TO_END)]
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {
                    "value": record["metrics"][name]["value"],
                    "unit": record["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


def print_record(record: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then the check verdict."""
    kind = "traced" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} ({kind}, seed {record['host']['seed']}) ==", file=stream)
    for name, m in record["metrics"].items():
        spread = ""
        if m["n"] > 1:
            spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        print(f"  {name:<34s} {m['value']:>14.6g} {m['unit']}{spread}", file=stream)
    if not record["trace"]:
        print(f"  {'fail_frac':<34s} {record['fail_frac']:>14.6g} ratio", file=stream)
        print(f"  {'skill':<34s} {record['skill']:>14.6g} ratio", file=stream)
    failures = record["check_failures"]
    for failure in failures[:8]:
        print(f"  CHECK FAILED: {failure}", file=stream)
    if len(failures) > 8:
        print(f"  ... and {len(failures) - 8} more failed checks", file=stream)
    print(
        f"  checks: {'ok' if record['correct'] else 'FAILED'} "
        f"({record['failed']} of {record['attempted']} operations failed)",
        file=stream,
    )
