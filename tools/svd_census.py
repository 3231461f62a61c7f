"""Census of the routes to the ESSE error subspace: which wins which cell.

Times every way a checkout has of getting the rank-``k`` subspace of an
``n x N`` anomaly matrix whose last ``k_new`` columns are new, on the
``(n, N, k_new)`` cells the program's stage schedule produces (stage growth
``k_new = N (1 - 1/g)`` at the sizes ``cycle_ref``, the probe battery and
``analysis_dense`` run, and those workloads' own warm cells) and on the
paper's cadence (Sec 4.1: an SVD "whenever a multiple of a set number of
realizations has finished" -- every 16 members up to N = 256 at
n = 20 000).  One subprocess per checkout under one BLAS thread; the paths
are whatever that checkout's ``repro.util.linalg`` / ``repro.core.subspace``
offer:

- ``cold LAPACK`` / ``cold Gram`` / ``cold randomized``: from scratch;
- ``Gram carry``: :class:`IncrementalSubspaceEstimator` primed with the
  first ``N - k_new`` columns (untimed), then the timed update;
- ``Brand update`` / ``warm sketch``: the same at a checkout that still has
  the truncated carry (``svd_rank_update`` / ``warm_randomized_svd``,
  forced through ``warm_batch_factor``) -- pass it as ``--parent``.

Usage::

    python tools/svd_census.py --out benchmarks/results/SVD_census_pr20.json \\
        --parent /root/scratch/parent [--repeats 7]
    python tools/svd_census.py --table benchmarks/results/SVD_census_pr20.json

Every run is recorded; the tables quote medians.  ``sigma_err`` is the
largest deviation of a path's singular values from the cold LAPACK ones,
relative to the leading one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: ``(label, n, N, rank, [k_new, ...])``: stage growth g = 1.25 and 2, plus
#: the warm cell the suite itself times where it is neither.
CELLS = [
    ("cycle_ref", 9856, 32, 24, [6, 16]),
    ("probe", 6400, 128, 48, [26, 32, 64]),
    ("analysis_dense", 25600, 256, 60, [51, 64, 128]),
]
SEQUENCE = {"n": 20000, "N": 256, "stride": 16, "rank": 60}

#: Run inside a checkout: argv = repeats; prints one JSON object.
_SNIPPET = r"""
import json, sys, time
sys.path.insert(0, "src")
import numpy as np
import scipy.linalg
from repro.core.subspace import IncrementalSubspaceEstimator
from repro.util import linalg

repeats, cells, sequence = int(sys.argv[1]), json.loads(sys.argv[2]), json.loads(sys.argv[3])
ENERGY = 0.999
has_gram = hasattr(linalg, "gram_svd")


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return (time.perf_counter() - t0) * 1e3, out


def lapack(a, rank):
    u, s, _ = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd")
    return s[:rank]


def cold_paths(a, rank):
    paths = {"cold LAPACK": lambda: lapack(a, rank)}
    if has_gram:
        paths["cold Gram"] = lambda: linalg.gram_svd(a, rank=rank, energy=ENERGY)[1]
    paths["cold randomized"] = lambda: linalg.randomized_svd(
        a, rank=rank, rng=np.random.default_rng(1)
    )[1]
    return paths


def carries(rank):
    # name -> estimator factory; a checkout has either the exact or the truncated carry
    if has_gram:
        return {"Gram carry": lambda: IncrementalSubspaceEstimator(rank=rank, energy=ENERGY)}
    return {
        "Brand update": lambda: IncrementalSubspaceEstimator(
            rank=rank, energy=ENERGY, warm_batch_factor=1e9
        ),
        "warm sketch": lambda: IncrementalSubspaceEstimator(
            rank=rank, energy=ENERGY, warm_batch_factor=1e-9,
            rng=np.random.default_rng(2),
        ),
    }


def measure(paths, reference):
    runs = {name: [] for name in paths}
    sigmas = {}
    for _ in range(repeats):  # round-robin: host drift hits every path alike
        for name, fn in paths.items():
            ms, s = timed(fn)
            runs[name].append(ms)
            sigmas[name] = s
    return {
        name: {
            "runs_ms": runs[name],
            "sigma_err": float(
                np.max(np.abs(sigmas[name] - reference[: len(sigmas[name])])) / reference[0]
            ),
        }
        for name in paths
    }


out = {"cells": []}
for label, n, count, rank, news in cells:
    a = np.random.default_rng(0).standard_normal((n, count)) * np.geomspace(1.0, 0.05, count)
    reference = lapack(a, rank)
    cold = measure(cold_paths(a, rank), reference)
    for k_new in news:
        paths = {}
        for name, make in carries(rank).items():
            runs = []
            for _ in range(repeats):
                est = make()
                est.update(a, count - k_new, 1.0)  # primed: not timed
                ms, sub = timed(lambda: est.update(a, count, 1.0))
                runs.append(ms)
            s = sub.sigmas
            paths[name] = {
                "runs_ms": runs, "last_path": est.last_path,
                "sigma_err": float(np.max(np.abs(s - reference[: len(s)])) / reference[0]),
            }
        out["cells"].append({
            "workload": label, "n": n, "N": count, "k_new": k_new, "rank": rank,
            "paths": {**cold, **paths},
        })

# The paper's cadence: low-rank decaying signal + noise floor, an SVD every stride.
n, count, stride, rank = (sequence[k] for k in ("n", "N", "stride", "rank"))
rng = np.random.default_rng(0)
basis, _ = np.linalg.qr(rng.standard_normal((n, 120)))
a = (basis * np.geomspace(5.0, 0.3, 120)) @ rng.standard_normal((120, count))
a += 0.1 * rng.standard_normal((n, count))
checkpoints = list(range(stride, count + 1, stride))
reference = lapack(a, rank)


def from_scratch(factor):
    def run():
        for k in checkpoints:
            s = factor(a[:, :k])
        return s
    return run


def carried(make):
    def run():
        est = make()
        for k in checkpoints:
            sub = est.update(a, k, 1.0)
        return sub.sigmas
    return run


paths = {"cold LAPACK": from_scratch(lambda m: lapack(m, rank))}
if has_gram:
    paths["cold Gram"] = from_scratch(lambda m: linalg.gram_svd(m, rank=rank, energy=ENERGY)[1])
paths.update({name: carried(make) for name, make in carries(rank).items()})
out["sequence"] = {**sequence, "checkpoints": len(checkpoints), "paths": measure(paths, reference)}

# Where tall begins: both routes on every shape (census only: the aspect
# constant is lifted so the Gram route takes input it would decline).
if has_gram:
    linalg.TALL_ASPECT = 0.0
    out["aspect"] = []
    for count in (16, 64, 256):
        for depth in (0.05, 1e-3):  # shallow: raw modes; deep: with the polish pass
            for ratio in (1, 2, 3, 4, 8, 32):
                left, _ = np.linalg.qr(rng.standard_normal((ratio * count, count)))
                right, _ = np.linalg.qr(rng.standard_normal((count, count)))
                a = (left * np.geomspace(1.0, depth, count)) @ right.T  # exactly this spectrum
                for keep in (count, count // 4):
                    reference = lapack(a, keep)
                    paths = {
                        "LAPACK": lambda: linalg.lapack_svd(a, rank=keep)[1],
                        "Gram": lambda: linalg.gram_svd(a, rank=keep)[1],
                    }
                    out["aspect"].append({
                        "N": count, "depth": depth, "rows_per_column": ratio, "keep": keep,
                        "paths": measure(paths, reference),
                    })
print(json.dumps(out))
"""


def run_checkout(checkout: Path, repeats: int) -> dict:
    """The census of one checkout (a fresh subprocess, one BLAS thread)."""
    done = subprocess.run(
        [sys.executable, "-c", _SNIPPET, str(repeats), json.dumps(CELLS), json.dumps(SEQUENCE)],
        cwd=checkout, capture_output=True, text=True, timeout=7200,
        env={**os.environ, **BLAS_ENV},
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: census failed\n{done.stderr}")
    sha = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True
    ).stdout.strip()
    return {"checkout": str(checkout), "git_sha": sha, **json.loads(done.stdout.splitlines()[-1])}


def _median(path: dict) -> float:
    return statistics.median(path["runs_ms"])


def merged_paths(record: dict, pick) -> dict:
    """``path name -> path`` over both sides; the change's reading wins a tie."""
    merged = {}
    for side in ("parent", "change"):
        if side in record:
            merged.update(pick(record[side]))
    return merged


def markdown_tables(record: dict) -> str:
    """The per-cell and the sequence table as Markdown (medians, ms)."""
    order = [
        "cold LAPACK", "cold randomized", "Brand update", "warm sketch", "cold Gram", "Gram carry"
    ]
    n_cells = len(record["change"]["cells"])
    cells = [
        {
            **record["change"]["cells"][k],
            "paths": merged_paths(record, lambda side, k=k: side["cells"][k]["paths"]),
        }
        for k in range(n_cells)
    ]
    names = [name for name in order if name in cells[0]["paths"]]
    lines = [
        "| workload size | n | N | k_new | rank | " + " | ".join(names) + " | fastest |",
        "|---|---|---|---|---|" + "---|" * (len(names) + 1),
    ]
    for cell in cells:
        medians = {name: _median(cell["paths"][name]) for name in names}
        lines.append(
            f"| `{cell['workload']}` | {cell['n']} | {cell['N']} | {cell['k_new']} "
            f"| {cell['rank']} | "
            + " | ".join(f"{medians[name]:.1f}" for name in names)
            + f" | {min(medians, key=medians.get)} |"
        )
    sequence = merged_paths(record, lambda side: side["sequence"]["paths"])
    facts = record["change"]["sequence"]
    lines += [
        "",
        f"| path, {facts['checkpoints']} checkpoints (every {facts['stride']} of "
        f"N = {facts['N']}, n = {facts['n']}) | sequence ms | sigma err at N = {facts['N']} |",
        "|---|---|---|",
    ]
    for name in order:
        if name in sequence:
            lines.append(
                f"| {name} | {_median(sequence[name]):.0f} | {sequence[name]['sigma_err']:.1e} |"
            )
    aspect = record["change"].get("aspect", [])
    ratios = sorted({cell["rows_per_column"] for cell in aspect})
    if aspect:
        lines += [
            "",
            "| Gram ms / LAPACK ms at rows per column = | "
            + " | ".join(str(r) for r in ratios) + " |",
            "|---|" + "---|" * len(ratios),
        ]
    rows = {}
    for cell in aspect:
        key = (cell["N"], cell["keep"], cell["depth"])
        rows.setdefault(key, {})[cell["rows_per_column"]] = (
            _median(cell["paths"]["Gram"]) / _median(cell["paths"]["LAPACK"])
        )
    for (count, keep, depth), by_ratio in rows.items():
        lines.append(
            f"| N = {count}, keep {keep}, spectrum to {depth:g} | "
            + " | ".join(f"{by_ratio[r]:.2f}" for r in ratios) + " |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    """Parse the command line, run, write the record."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", type=Path, help="print a record's tables and exit")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--change", type=Path, default=Path("."))
    parser.add_argument("--parent", type=Path, help="a checkout with the deleted paths")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if args.table is not None:
        print(markdown_tables(json.loads(args.table.read_text())))
        return 0
    if args.out is None:
        parser.error("--out is required to run")
    import numpy
    import scipy

    record = {
        "schema": 1,
        "host": {
            "cpus": os.cpu_count(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_env": BLAS_ENV,
        },
        "repeats": args.repeats,
    }
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        if checkout is not None:
            print(f"census {side} ({checkout})", flush=True)
            record[side] = run_checkout(checkout, args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
