"""Output checks: invariants and tolerances, never golden bytes.

Each ``check_*`` takes the digests of a workload's repetitions (small
dicts the workload's ``digest`` produced from the program's real
outputs) and returns the list of checks that did not hold, as sentences.
An empty list means the outputs are correct.  The thresholds hold on any
BLAS; ``tests/test_verify.py`` feeds every check a corrupted output and
sees it fail.
"""

from __future__ import annotations

import math

#: Repetitions of one body on the same inputs must agree this closely.
REPEAT_TOLERANCE = 1e-9
#: Parallel and engine subspaces vs the serial reference.
MIN_SIMILARITY = 0.999
#: Both analysis engines must at least halve the normalized RMSE.
MAX_RMSE_RATIO = 0.5
#: Global mean increment vs the benchmark's own p x p solve of the same problem.
MAX_GLOBAL_REF_REL_ERR = 1e-6
#: Tiled vs global mean increment (the known ~6% localization gap).
MAX_TILED_REL_ERR = 0.15
#: Warm incremental SVD vs cold SVD on the leading singular values.
MAX_SVD_WARM_REL_ERR = 0.05
#: Round-off allowance on "tiled posterior variance <= prior".
VARIANCE_EXCESS_TOLERANCE = 1e-9


def check_cycle(digests: list[dict], n_periods: int, ensemble_size: int) -> list[str]:
    """``cycle_ref``: finite, full-size, published, served, repeatable."""
    failures = []
    for rep, d in enumerate(digests):
        where = f"cycle_ref repetition {rep}"
        if len(d["error_reduction"]) != n_periods:
            failures.append(f"{where}: {len(d['error_reduction'])} cycle records, expected {n_periods}")
        if not all(d["finite"]) or not all(math.isfinite(x) for x in d["error_reduction"]):
            failures.append(f"{where}: a cycle record is not finite")
        if any(size != ensemble_size for size in d["ensemble_size"]):
            failures.append(f"{where}: ensemble sizes {d['ensemble_size']}, expected all {ensemble_size}")
        if d["store_version"] != n_periods or d["published"] != list(range(1, n_periods + 1)):
            failures.append(
                f"{where}: store at version {d['store_version']} after publishing "
                f"{d['published']}, expected versions 1..{n_periods}"
            )
        reads = d["reads"]
        if not reads["cold_statuses"] or any(s != 200 for s in reads["cold_statuses"]):
            failures.append(f"{where}: cold GETs answered {reads['cold_statuses']}, expected all 200")
        if len(reads["cold_statuses"]) != 1 + len(reads["fields"]) or not reads["fields"]:
            failures.append(f"{where}: manifest lists {reads['fields']} but {len(reads['cold_statuses'])} GETs were made")
        if reads["manifest_checksum"] != d["head_checksum"]:
            failures.append(f"{where}: manifest checksum differs from HEAD")
        if reads["manifest_version"] != n_periods:
            failures.append(f"{where}: served version {reads['manifest_version']}, expected {n_periods}")
        if reads["revalidation_status"] != 304:
            failures.append(f"{where}: revalidation answered {reads['revalidation_status']}, expected 304")
        if d["acoustic"]["failed"]:
            failures.append(f"{where}: {d['acoustic']['failed']} acoustic tasks failed")
    if digests:
        first = digests[0]["error_reduction"]
        for rep, d in enumerate(digests[1:], start=1):
            if len(d["error_reduction"]) != len(first) or any(
                abs(a - b) > REPEAT_TOLERANCE for a, b in zip(d["error_reduction"], first)
            ):
                failures.append(
                    f"cycle_ref repetition {rep}: error reduction {d['error_reduction']} "
                    f"differs from repetition 0 {first}"
                )
    return failures


def _check_pool_run(where: str, facts: dict, ensemble_size: int) -> list[str]:
    failures = []
    if facts["ensemble_size"] != ensemble_size:
        failures.append(f"{where}: ensemble size {facts['ensemble_size']}, expected {ensemble_size}")
    if facts["n_failed"] != 0:
        failures.append(f"{where}: {facts['n_failed']} members failed terminally")
    if not facts["rho"] >= MIN_SIMILARITY:
        failures.append(f"{where}: similarity to the serial subspace {facts['rho']:.6f} < {MIN_SIMILARITY}")
    return failures


def check_pool(digests: list[dict], ensemble_size: int) -> list[str]:
    """``mtc_pool``: full ensembles, nothing lost, serial-equivalent subspaces."""
    failures = []
    for rep, d in enumerate(digests):
        for part in ("parallel", "engine"):
            failures += _check_pool_run(f"mtc_pool repetition {rep} {part}", d[part], ensemble_size)
    return failures


def check_faulted(facts: dict, ensemble_size: int) -> list[str]:
    """The fault-injected pool run: retried, yet complete and equivalent."""
    failures = _check_pool_run("mtc_pool faulted run", facts, ensemble_size)
    if not facts["n_retried"] > 0:
        failures.append("mtc_pool faulted run: no member was retried")
    return failures


def check_analysis(digests: list[dict]) -> list[str]:
    """``analysis_dense``: both engines work, tiled tracks global, variance shrinks."""
    failures = []
    for rep, d in enumerate(digests):
        where = f"analysis_dense repetition {rep}"
        if not d["finite"] or not d["svd_finite"]:
            failures.append(f"{where}: a result is not finite")
        for engine in ("global", "tiled"):
            ratio = d[f"rmse_ratio_{engine}"]
            if not ratio < MAX_RMSE_RATIO:
                failures.append(f"{where}: {engine} RMSE ratio {ratio:.4f} >= {MAX_RMSE_RATIO}")
        if not d["global_ref_rel_err"] < MAX_GLOBAL_REF_REL_ERR:
            failures.append(
                f"{where}: global mean increment off the benchmark's own solution by "
                f"{d['global_ref_rel_err']:.3e} >= {MAX_GLOBAL_REF_REL_ERR}"
            )
        if not d["tiled_rel_err"] < MAX_TILED_REL_ERR:
            failures.append(f"{where}: tiled vs global mean increment {d['tiled_rel_err']:.4f} >= {MAX_TILED_REL_ERR}")
        if not d["tiled_variance_excess"] <= VARIANCE_EXCESS_TOLERANCE:
            failures.append(f"{where}: tiled posterior variance exceeds the prior by {d['tiled_variance_excess']:.3e} (relative)")
        if not d["svd_warm_rel_err"] < MAX_SVD_WARM_REL_ERR:
            failures.append(f"{where}: warm SVD singular values off by {d['svd_warm_rel_err']:.4f} >= {MAX_SVD_WARM_REL_ERR}")
    return failures


def check_serving(digests: list[dict]) -> list[str]:
    """Serving: every request answered, bodies right, fresh, in order."""
    failures = []
    for rep, d in enumerate(digests):
        where = f"serving repetition {rep}"
        if d["failed"] or d["ok"] != d["requests"]:
            failures.append(f"{where}: {d['failed']} of {d['requests']} requests got no 200/304 within the attempt budget")
        if d["unparsable"]:
            failures.append(f"{where}: {d['unparsable']} bodies did not parse")
        if d["wrong_bodies"]:
            failures.append(f"{where}: {d['wrong_bodies']} bodies differ from the benchmark's rendering of their version")
        if d["stale"]:
            failures.append(f"{where}: {d['stale']} responses were older than a publish that had already returned")
        if d["backwards"]:
            failures.append(f"{where}: versions went backwards {d['backwards']} times on a connection")
        if d["publish_error"]:
            failures.append(f"{where}: publisher raised {d['publish_error']}")
        if d["publishes"] != d["publishes_expected"]:
            failures.append(f"{where}: {d['publishes']} publishes, expected {d['publishes_expected']}")
        if not d["status"].get(200, 0):
            failures.append(f"{where}: no 200 response at all")
    return failures
