"""Entry point of the repository benchmark.

One workload, as the driver runs it (last stdout line is one JSON object)::

    python3 benchmarks/suite/run.py --workload cycle_ref --seed 0 --seconds 10 --trace 0

Every workload in a fresh subprocess each, with a table of all metrics::

    python3 benchmarks/suite/run.py --all [--trace 1] [--smoke]

Two sets of 3 runs of every workload, failing if the median of any
end-to-end metric moves between the sets by more than its bound (writes
``results/BENCH_suite_a.json`` and ``_b.json``)::

    python3 benchmarks/suite/run.py --selfcheck

Exit status is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from sizes import PINNED_ENV, SUITE_DIR

WORKLOAD_NAMES = ("cycle_ref", "mtc_pool", "analysis_dense", "serve_hot", "serve_publish")
DEFAULT_SECONDS = 10
#: Untraced runs of every workload in each of the self-check's two sets.
SELFCHECK_RUNS = 3


def parse_args(argv):
    """The command line (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--selfcheck", action="store_true", help="run the suite twice and compare")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; never recorded")
    parser.add_argument("--json-record", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(args) -> int:
    """Run one workload in this (pinned) process."""
    source = SUITE_DIR.parents[1] / "src"
    if not (source / "repro").is_dir():
        # The benchmark measures the checkout it sits in, never an installed copy.
        print(f"no program to measure: {source / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import harness

    record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    harness.print_record(record)
    if args.json_record:
        print(json.dumps(record))
    print(harness.driver_line(record))
    return 0 if record["correct"] else 1


def run_child(name: str, args, trace: int) -> dict | None:
    """One workload in a fresh subprocess; its record, or None if it died."""
    command = [
        sys.executable, str(SUITE_DIR / "run.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--json-record",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    sys.stderr.write(done.stderr)
    try:
        return json.loads(lines[-2])
    except (IndexError, ValueError):
        print(f"{name}: no record (exit status {done.returncode})")
        return None


def run_suite(args, runs: int) -> tuple[dict, bool]:
    """Every workload ``runs`` times untraced (and once traced if asked).

    The record kept per workload is the last run's, with the reported
    end-to-end values of all its runs and their median under ``"set"``.
    """
    from metrics import ABSOLUTE_BOUNDS, END_TO_END

    records = {}
    ok = True
    for name in WORKLOAD_NAMES:
        done = [run_child(name, args, 0) for _ in range(runs)]
        ok = ok and all(r is not None and r["correct"] for r in done)
        done = [r for r in done if r is not None]
        if done:
            values = {m: [r["metrics"][m]["value"] for r in done] for m, *_ in END_TO_END}
            values.update({m: [r[m] for r in done] for m in ABSOLUTE_BOUNDS})
            records[name] = {
                **done[-1],
                "set": {
                    m: {"values": v, "median": statistics.median(v)} for m, v in values.items()
                },
            }
        if args.trace:
            traced = run_child(name, args, 1)
            ok = ok and traced is not None and traced["correct"]
            if traced is not None:
                records[f"{name}/traced"] = traced
    return records, ok


def write_results(label: str, records: dict) -> Path:
    """Write one suite pass as ``results/BENCH_suite_<label>.json``."""
    results = SUITE_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_suite_{label}.json"
    path.write_text(json.dumps({"schema": 1, "records": records}, indent=1) + "\n")
    return path


def selfcheck(args) -> int:
    """Two sets of runs of the same code must agree within every bound.

    Like the driver, the sets run one after the other and are compared
    by the medians of their runs.
    """
    from metrics import ABSOLUTE_BOUNDS, END_TO_END

    sets = []
    ok = True
    for label in ("a", "b"):
        records, passed = run_suite(args, SELFCHECK_RUNS)
        ok = ok and passed
        sets.append(records)
        if not args.smoke:
            print(f"wrote {write_results(label, records)}")
    first, second = sets
    bounds = [(name, bound, True) for name, _, _, bound in END_TO_END]
    bounds += [(name, bound, False) for name, bound in ABSOLUTE_BOUNDS.items()]
    for key in first:
        if key.endswith("/traced") or key not in second:
            continue
        for name, bound, relative in bounds:
            a = first[key]["set"][name]["median"]
            b = second[key]["set"][name]["median"]
            moved = (b - a) / a if relative else b - a
            within = abs(moved) <= bound
            ok = ok and within
            print(
                f"{key:<16s}{name:<14s} a={a:<12.6g} b={b:<12.6g} "
                f"{moved:+.4f} ({'relative' if relative else 'absolute'} bound {bound}) "
                f"{'ok' if within else 'OUT OF BOUND'}"
            )
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv) -> int:
    """Dispatch on the mode; single-workload runs re-execute pinned."""
    args = parse_args(argv)
    if args.workload:
        if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
            os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
        return run_one(args)
    if args.selfcheck:
        return selfcheck(args)
    _, ok = run_suite(args, 1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
