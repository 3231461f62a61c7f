"""Before/after record of the repository benchmark for one change.

Runs ``benchmarks/suite/run.py`` in two checkouts -- the parent commit and
the change -- on the same box and writes one JSON file holding

- ``suite``: every workload's record, untraced and traced (what
  ``run.py --all --trace 1`` prints as tables), for both checkouts;
- ``pairs``: N alternating parent/change runs of one workload per seed,
  whichever side ran first swapping every pair, with medians, quartiles
  and the number of pairs the change won on each end-to-end metric;
- ``traced``: ``--traced-repeats`` alternating *traced* runs of the same
  workload per side (seed 0), every per-layer metric of every run plus
  its median -- where the saving sits.

- ``other_workload_pairs`` (``--other-pairs N``): N alternating pairs at
  seed 0 of each workload that is *not* ``--workload`` -- side effects and
  must-not-move checks, not claims;
- ``analysis_skill`` (``--digest-seeds K ...``): the accuracy facts of
  ``analysis_dense``'s digest (analysis error against the twin truth, tiled
  against global, variance excess) at the full size for each seed and side,
  with median and range -- they do not depend on timing, and a single seed
  of a skill number proves nothing;
- ``cycle_skill`` (``--cycle-seeds K ...``): ``cycle_ref``'s error
  reduction per period (what its ``skill`` averages) at the full size for
  each seed and side, with median and range, for the same reason.  Both
  tables carry the per-seed difference change - parent, its mean and its
  standard error (``paired_difference``).

Usage::

    python tools/bench_pairs.py --parent /root/scratch/parent --change . \\
        --out benchmarks/results/BENCH_suite_pr18.json \\
        --workload cycle_ref --pairs 10 --seeds 0 7 --traced-repeats 3
    python tools/bench_pairs.py --table benchmarks/results/BENCH_suite_pr18.json \\
        --metrics trace. ocean. acoustics.

The second form prints the record's before/after tables as Markdown (the
ones EXPERIMENTS.md quotes).

The suite itself is not imported: each run is the driver's own command
line in a fresh subprocess with ``--json-record`` (the digest facts come
from a subprocess in the checkout that calls the workload's own functions).
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


#: Run inside a checkout: the full-size ``analysis_dense`` case of one seed,
#: both updates, and the workload's own accuracy facts as one JSON line.
_DIGEST_SNIPPET = """
import json, sys
sys.path[:0] = ["benchmarks/suite", "src"]
from repro.util.rng import SeedSequenceStream
from sizes import FULL
from workloads.analysis_dense import (
    analysis_facts, build_dense_case, default_analysis, tiled_analysis,
)
size = FULL["analysis_dense"]
shape = tuple(size["field_shape"])
case = build_dense_case(
    shape, size["rank"], size["bump_radius"], size["noise_std"],
    SeedSequenceStream(int(sys.argv[1])),
)
args = (case["forecast"], case["subspace"], case["operator"])
tiled = tiled_analysis(
    case["layout"], shape, tuple(size["tile_shape"]), size["taper_radius"],
    size["energy_floor"],
)
facts = analysis_facts(
    case, default_analysis(case["layout"]).update(*args), tiled.update(*args)
)
print(json.dumps(facts))
"""


#: Run inside a checkout: one full-size ``cycle_ref`` body of one seed; its
#: error reduction per period (and their mean, which ``skill`` clips) as one JSON line.
_CYCLE_SNIPPET = """
import json, sys
sys.path[:0] = ["benchmarks/suite", "src"]
from harness import Scratch
from sizes import FULL
from tracing import NULL_TRACER
from workloads import WORKLOADS
with Scratch("cycle-skill") as scratch:
    workload = WORKLOADS["cycle_ref"](FULL["cycle_ref"], int(sys.argv[1]), scratch)
    workload.setup()
    workload.prepare()
    reduction = workload.digest(workload.body(NULL_TRACER))["error_reduction"]
facts = {f"error_reduction_period_{k + 1}": x for k, x in enumerate(reduction)}
facts["mean_error_reduction"] = sum(reduction) / len(reduction)
print(json.dumps(facts))
"""


def digest_by_seed(checkout: Path, snippet: str, seeds: list[int]) -> dict:
    """A digest snippet's facts per seed, with median and range."""
    by_seed = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, "-c", snippet, str(seed)],
            cwd=checkout, capture_output=True, text=True, timeout=1200,
        )
        if done.returncode != 0:
            raise SystemExit(f"{checkout}: digest seed {seed} failed\n{done.stderr}")
        by_seed[f"seed_{seed}"] = json.loads(done.stdout.splitlines()[-1])
        print(f"  digest seed {seed}: {by_seed[f'seed_{seed}']}", flush=True)
    numeric = [k for k, v in next(iter(by_seed.values())).items() if not isinstance(v, bool)]
    spread = {}
    for name in numeric:
        values = [facts[name] for facts in by_seed.values()]
        spread[name] = {
            "median": statistics.median(values), "min": min(values), "max": max(values)
        }
    return {"by_seed": by_seed, "summary": spread}


def paired_difference(parent: dict, change: dict) -> dict:
    """Change minus parent per seed of two ``digest_by_seed`` blocks, per fact."""
    out = {}
    for name in change["summary"]:
        diffs = [
            change["by_seed"][seed][name] - parent["by_seed"][seed][name]
            for seed in change["by_seed"]
        ]
        out[name] = {
            "mean": statistics.fmean(diffs),
            "standard_error": statistics.stdev(diffs) / len(diffs) ** 0.5,
            "seeds_where_change_is_higher": sum(d > 0 for d in diffs),
            "seeds": len(diffs),
        }
    return out


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


def traced(
    parent: Path, change: Path, workload: str, repeats: int, seconds: float
) -> dict:
    """``repeats`` alternating traced runs per side; every metric and its median."""
    runs = {"parent": [], "change": []}
    sides = [("parent", parent), ("change", change)]
    for k in range(repeats):
        for side, checkout in sides if k % 2 == 0 else reversed(sides):
            metrics = run_record(checkout, workload, 0, seconds, 1)["metrics"]
            runs[side].append({name: m["value"] for name, m in metrics.items()})
            print(f"  traced {k} {side}", flush=True)
    median = {
        side: {name: statistics.median(r[name] for r in rs) for name in rs[0]}
        for side, rs in runs.items()
    }
    return {"runs": runs, "median": median}


def markdown_tables(record: dict, prefixes: tuple[str, ...] = ("",)) -> str:
    """The record's end-to-end pairs and per-layer medians as Markdown.

    ``prefixes`` keeps the per-layer rows whose metric name starts with one
    of them (default: all).
    """
    lines = [
        "| seed | metric | parent median (q1 - q3) | change median (q1 - q3) "
        "| pairs won by change | change / parent |",
        "|---|---|---|---|---|---|",
    ]
    for seed, block in record["pairs"].items():
        for metric in END_TO_END:
            m = block[metric]
            cells = [
                "{median:.3f} ({q1:.3f} - {q3:.3f})".format(**m[side])
                for side in ("parent", "change")
            ]
            lines.append(
                f"| {seed.removeprefix('seed_')} | `{metric}` | {cells[0]} | {cells[1]} "
                f"| {m['pairs_won_by_change']} / {len(m['parent']['values'])} "
                f"| {m['median_change_over_parent']:.2f} |"
            )
    if "traced" in record:
        before, after = (record["traced"]["median"][s] for s in ("parent", "change"))
        n = len(record["traced"]["runs"]["parent"])
        lines += [
            "",
            f"| per-layer metric (median of {n} traced runs) | parent | change "
            "| change / parent |",
            "|---|---|---|---|",
        ]
        for name in sorted(before):
            if name in END_TO_END or not name.startswith(prefixes):
                continue
            ratio = f"{after[name] / before[name]:.2f}" if before[name] else "-"
            lines.append(f"| `{name}` | {before[name]:.4g} | {after[name]:.4g} | {ratio} |")
    for block, workload in (("analysis_skill", "analysis_dense"), ("cycle_skill", "cycle_ref")):
        if block not in record:
            continue
        sides = record[block]
        n = len(sides["change"]["by_seed"])
        lines += [
            "",
            f"| `{workload}` fact, median (min - max) over {n} seeds | parent | change "
            "| change - parent per seed, mean +- s.e. (seeds higher) |",
            "|---|---|---|---|",
        ]
        for name in sides["change"]["summary"]:
            cells = [
                "{median:.4g} ({min:.4g} - {max:.4g})".format(**sides[side]["summary"][name])
                for side in ("parent", "change")
            ]
            # records older than PR 23 carry no paired block
            diff = sides.get("paired_difference", {}).get(name)
            cells.append(
                "{mean:+.4f} +- {standard_error:.4f} "
                "({seeds_where_change_is_higher} / {seeds})".format(**diff)
                if diff else "-"
            )
            lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Parse the command line, run, write the record."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", type=Path, help="print a record's tables and exit")
    parser.add_argument(
        "--metrics", nargs="+", default=[""], help="with --table: per-layer name prefixes"
    )
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--workload", default="cycle_ref", choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced-repeats", type=int, default=0)
    parser.add_argument(
        "--other-pairs", type=int, default=0, help="pairs of every other workload, seed 0"
    )
    parser.add_argument(
        "--digest-seeds", type=int, nargs="+", default=[],
        help="seeds of the analysis_dense accuracy table",
    )
    parser.add_argument(
        "--cycle-seeds", type=int, nargs="+", default=[],
        help="seeds of the cycle_ref error-reduction table",
    )
    args = parser.parse_args(argv)
    if args.table is not None:
        print(markdown_tables(json.loads(args.table.read_text()), tuple(args.metrics)))
        return 0
    if None in (args.parent, args.change, args.out):
        parser.error("--parent, --change and --out are required to run")
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
    if args.traced_repeats:
        print("traced repeats", flush=True)
        record["traced"] = traced(
            args.parent, args.change, args.workload, args.traced_repeats, args.seconds
        )
    if args.other_pairs:
        others = {}
        for name in WORKLOADS:
            if name != args.workload:
                print(f"other workload {name}", flush=True)
                others[name] = paired(
                    args.parent, args.change, name, 0, args.other_pairs, args.seconds
                )
        record["other_workload_pairs"] = {
            "why": "side effects and must-not-move workloads, alternating pairs "
            "at seed 0; not claims",
            "pairs": others,
        }
    for block, snippet, seeds in (
        ("analysis_skill", _DIGEST_SNIPPET, args.digest_seeds),
        ("cycle_skill", _CYCLE_SNIPPET, args.cycle_seeds),
    ):
        if seeds:
            record[block] = {}
            for side, checkout in (("parent", args.parent), ("change", args.change)):
                print(f"{block} {side}", flush=True)
                record[block][side] = digest_by_seed(checkout, snippet, seeds)
            if len(seeds) > 1:
                record[block]["paired_difference"] = paired_difference(
                    record[block]["parent"], record[block]["change"]
                )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
