"""Before/after record of the repository benchmark for one change.

Runs ``benchmarks/suite/run.py`` in two checkouts -- the parent commit and
the change -- on the same box and writes one JSON file holding

- ``suite``: every workload's record, untraced and traced (what
  ``run.py --all --trace 1`` prints as tables), for both checkouts;
- ``pairs``: N alternating parent/change runs of one workload per seed,
  whichever side ran first swapping every pair, with medians, quartiles
  and the number of pairs the change won on each end-to-end metric.

Usage::

    python tools/bench_pairs.py --parent /root/scratch/parent --change . \\
        --out benchmarks/results/BENCH_suite_pr16.json \\
        --workload cycle_ref --pairs 10 --seeds 0 7

The suite itself is not imported: each run is the driver's own command
line in a fresh subprocess with ``--json-record``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cycle_ref", "mtc_pool", "analysis_dense", "serve_hot", "serve_publish")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def run_record(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in ``checkout``; its full JSON record."""
    done = subprocess.run(
        [
            sys.executable, "benchmarks/suite/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--json-record",
        ],
        cwd=checkout, capture_output=True, text=True, timeout=1200,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {workload} failed\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-2])


def quartiles(values: list[float]) -> dict:
    """Median and quartiles of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def paired(
    parent: Path, change: Path, workload: str, seed: int, pairs: int, seconds: float
) -> dict:
    """``pairs`` alternating parent/change runs of one workload at one seed."""
    runs = {"parent": [], "change": []}
    sides = [("parent", parent), ("change", change)]
    for k in range(pairs):
        # whichever side went first in the last pair goes second in this one
        for side, checkout in sides if k % 2 == 0 else reversed(sides):
            record = run_record(checkout, workload, seed, seconds, 0)
            runs[side].append(record)
            wall = record["metrics"]["wall_s"]["value"]
            print(f"  pair {k} {side}: wall_s {wall:.4f}", flush=True)
    out = {"skill": {side: sorted({r["skill"] for r in rs}) for side, rs in runs.items()}}
    for metric in END_TO_END:
        a = [r["metrics"][metric]["value"] for r in runs["parent"]]
        b = [r["metrics"][metric]["value"] for r in runs["change"]]
        out[metric] = {
            "parent": quartiles(a),
            "change": quartiles(b),
            "pairs_won_by_change": sum(y < x for x, y in zip(a, b)),
            "median_change_over_parent": statistics.median(b) / statistics.median(a),
        }
    return out


def main(argv=None) -> int:
    """Parse the command line, run, write the record."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", default="cycle_ref", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    record = {"schema": 1, "workload": args.workload, "suite": {}, "pairs": {}}
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        record["suite"][side] = {}
        for name in WORKLOADS:
            print(f"suite {side} {name}", flush=True)
            record["suite"][side][name] = run_record(checkout, name, 0, args.seconds, 0)
            record["suite"][side][f"{name}/traced"] = run_record(
                checkout, name, 0, args.seconds, 1
            )
    for seed in args.seeds:
        print(f"pairs seed {seed}", flush=True)
        record["pairs"][f"seed_{seed}"] = paired(
            args.parent, args.change, args.workload, seed, args.pairs, args.seconds
        )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
