"""The metrics the suite reports: names, units, directions and bounds.

``BENCHMARK.json`` at the repository root declares the same lists for
the driver; ``tests/test_suite_smoke.py`` checks the two agree.

End-to-end metrics are what a user of the system sees and carry a bound:
the share of the parent's median by which the metric may worsen before a
change counts as a regression.  The two timings are in *reference
seconds* (:mod:`hostspeed`): seconds on a host on which the suite's fixed
kernel takes its nominal time, which on the quiet reference box are plain
seconds.  The bounds are as wide as the driver allows because of the box,
not the suite: a neighbour on the sibling hardware thread slows every
workload 1.3-1.5x for seconds or minutes at a time, and the kernel removes
most but not all of that (README.md has the measured spreads).  Per-layer
metrics have no bound; they say where an end-to-end change came from.
The suite's own result files also carry ``fail_frac`` (bound +0.001
absolute) and ``skill`` (bound 0.01 absolute).  Neither can be declared
end-to-end: ``fail_frac`` is always 0, and ``skill`` depends on the
seed's twin truth (``cycle_ref``: quartiles 20-32 % of the median apart
over ten seeds) while the driver measures on ten seeds and refuses a spread
beyond the bound.  The driver sees them through ``failed`` /
``attempted`` / ``correct`` and as per-layer values.
"""

from __future__ import annotations

#: (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

#: Absolute bounds of the two quality numbers in the suite's own records.
ABSOLUTE_BOUNDS = {"fail_frac": 0.001, "skill": 0.01}

LAYERS = ("ocean", "core", "workflow", "obs", "acoustics", "realtime", "products")

#: (name, unit, better).  Sources: "trace" = spans of the traced body,
#: "body" = exact counts/values of the workload's own body (0 where the
#: body never touches that layer), "probe" = the fixed probe battery.
PER_LAYER = (
    # -- the whole run -------------------------------------------------------
    ("skill", "ratio", "higher"),
    ("fail_frac", "ratio", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.suite_self_s", "s", "lower"),
    *((f"trace.{layer}_self_s", "s", "lower") for layer in LAYERS),
    ("telemetry.trace_overhead_frac", "ratio", "lower"),
    ("telemetry.spans_recorded", "count", "lower"),
    # -- ocean ---------------------------------------------------------------
    ("ocean.member_step_us", "us", "lower"),
    ("ocean.batched_member_step_us", "us", "lower"),
    ("ocean.central_forecast_ms", "ms", "lower"),
    ("ocean.steps", "count", "lower"),
    ("ocean.state_bytes", "bytes", "lower"),
    # -- core ----------------------------------------------------------------
    ("core.perturb_ms", "ms", "lower"),
    ("core.svd_cold_ms", "ms", "lower"),
    ("core.svd_warm_ms", "ms", "lower"),
    ("core.svd_randomized_ms", "ms", "lower"),
    ("core.analysis_global_ms", "ms", "lower"),
    ("core.analysis_tiled_ms", "ms", "lower"),
    ("core.update_ensemble_ms", "ms", "lower"),
    ("core.convergence_checks", "count", "lower"),
    ("core.analysis_tiled_rel_err", "ratio", "lower"),
    ("core.rmse_ratio_global", "ratio", "lower"),
    ("core.rmse_ratio_tiled", "ratio", "lower"),
    ("core.dense_global_ms", "ms", "lower"),
    ("core.dense_tiled_ms", "ms", "lower"),
    ("core.dense_svd_cold_ms", "ms", "lower"),
    ("core.dense_svd_warm_ms", "ms", "lower"),
    # -- workflow ------------------------------------------------------------
    ("workflow.parallel_wall_s", "s", "lower"),
    ("workflow.engine_wall_s", "s", "lower"),
    ("workflow.serial_ref_wall_s", "s", "lower"),
    ("workflow.parallel_over_serial", "ratio", "lower"),
    ("workflow.overlap_frac", "ratio", "higher"),
    ("workflow.member_wait_s", "s", "lower"),
    ("workflow.members_run", "count", "lower"),
    ("workflow.members_retried", "count", "lower"),
    ("workflow.members_cancelled", "count", "lower"),
    ("workflow.members_failed", "count", "lower"),
    ("workflow.covfile_append_ms", "ms", "lower"),
    ("workflow.covfile_publish_ms", "ms", "lower"),
    ("workflow.covfile_read_ms", "ms", "lower"),
    ("workflow.covfile_bytes", "bytes", "lower"),
    ("workflow.tilepool_run_ms", "ms", "lower"),
    ("workflow.faulted_wall_s", "s", "lower"),
    ("workflow.retry_useful_frac", "ratio", "higher"),
    # -- obs, acoustics, realtime --------------------------------------------
    ("obs.observe_ms", "ms", "lower"),
    ("obs.operator_apply_ms", "ms", "lower"),
    ("acoustics.tl_task_ms", "ms", "lower"),
    ("acoustics.tasks", "count", "lower"),
    ("realtime.generate_product_ms", "ms", "lower"),
    ("realtime.cycle_overhead_ms", "ms", "lower"),
    # -- products, util ------------------------------------------------------
    ("products.publish_ms", "ms", "lower"),
    ("products.publish_bytes", "bytes", "lower"),
    ("products.fetch_cold_ms", "ms", "lower"),
    ("products.handle_hit_us", "us", "lower"),
    ("products.handle_miss_ms", "ms", "lower"),
    ("products.http_rps", "1/s", "higher"),
    ("products.get_p50_ms", "ms", "lower"),
    ("products.get_p95_ms", "ms", "lower"),
    ("products.get_p99_ms", "ms", "lower"),
    ("products.get_samples", "count", "higher"),
    ("products.cache_hit_rate", "ratio", "higher"),
    ("products.status_304", "count", "higher"),
    ("products.status_503", "count", "lower"),
    ("products.attempts_per_request", "ratio", "lower"),
    ("products.publishes", "count", "lower"),
    ("util.fsio_durable_replace_ms", "ms", "lower"),
)

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}
