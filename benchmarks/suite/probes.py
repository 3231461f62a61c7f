"""The layer probe battery: timed calls into each module's public functions.

Every traced run executes the same battery at one fixed, small size, so
each layer has a number of its own whatever workload the run is about.
The probes time the program from outside (``MONOTONIC`` around a public
call); inputs come from the seed.  They run after the traced body, so
they never disturb it.

A probe reports the median over a few calls.  The first call of a kind
is included: with three or more calls the median already ignores it.
"""

from __future__ import annotations

import statistics

import numpy as np

from repro.acoustics import acoustic_climate_tasks
from repro.core import (
    EnsembleRunner,
    ErrorSubspace,
    IncrementalSubspaceEstimator,
    PerturbationGenerator,
)
from repro.products import ProductReader, ProductService, ProductStore
from repro.realtime import generate_product
from repro.telemetry.clock import MONOTONIC
from repro.util.fsio import durable_replace
from repro.util.rng import SeedSequenceStream
from repro.workflow import MemmapCovarianceStore, TileTaskPool

from workloads.analysis_dense import (
    analysis_facts,
    build_dense_case,
    default_analysis,
    tiled_analysis,
)
from workloads.base import build_ocean_case
from workloads.serving import product_for, seed_base_fields


def timed(fn, repeats: int = 3) -> tuple[float, object]:
    """Median seconds of ``repeats`` calls of ``fn`` and the last result."""
    times = []
    result = None
    for _ in range(repeats):
        start = MONOTONIC()
        result = fn()
        times.append(MONOTONIC() - start)
    return statistics.median(times), result


def probe_ocean_and_friends(size: dict, seed: int) -> dict[str, float]:
    """``ocean``, ``core.perturb``, ``obs``, ``acoustics`` and ``realtime``."""
    n_members = size["members"]
    case = build_ocean_case(
        {
            "grid": size["grid"],
            "ensemble": (n_members, 2 * n_members),
            "subspace_rank": 8,
            "initial_rank": 8,
            "spinup_days": 0.5,
        },
        seed,
    )
    model, background = case.model, case.background
    duration = size["member_days"] * 86400.0
    steps = int(round(duration / case.config.model.dt))
    perturber = PerturbationGenerator(model.layout, case.subspace, root_seed=seed)
    runner = EnsembleRunner(model, perturber, duration=duration, root_seed=seed)
    members = list(range(n_members))
    out = {"ocean.state_bytes": float(model.layout.size * 8)}

    central_s, _ = timed(lambda: runner.central_forecast(background))
    out["ocean.central_forecast_ms"] = central_s * 1e3
    serial_s, _ = timed(lambda: [runner.run_member(background, i) for i in members], 2)
    out["ocean.member_step_us"] = serial_s / (n_members * steps) * 1e6
    batched_s, _ = timed(lambda: runner.run_members_batched(background, members), 2)
    out["ocean.batched_member_step_us"] = batched_s / (n_members * steps) * 1e6

    mean_vector = model.to_vector(background)
    perturb_s, _ = timed(
        lambda: [perturber.member_state(mean_vector, i) for i in range(16)]
    )
    out["core.perturb_ms"] = perturb_s / 16 * 1e3

    network = case.config.build_network(model)
    observe_s, batch = timed(lambda: network.observe(background))
    out["obs.observe_ms"] = observe_s * 1e3

    tasks = acoustic_climate_tasks(
        model.grid, n_slices=2, frequencies=(100.0, 200.0), source_depths=(15.0,)
    )[: size["acoustic_tasks"]]
    task_times = []
    for task in tasks:
        seconds, _ = timed(lambda t=task: t.run(model.grid, background), 1)
        task_times.append(seconds)
    out["acoustics.tl_task_ms"] = statistics.median(task_times) * 1e3

    forecast = case.config.build_driver(model).forecast(
        background, case.subspace, duration=duration / 2
    )
    product_s, _ = timed(lambda: generate_product(model, forecast, batch.operator))
    out["realtime.generate_product_ms"] = product_s * 1e3
    return out


def probe_analysis(size: dict, seed: int) -> dict[str, float]:
    """``core`` analysis and SVD kernels, ``obs`` operator apply, tile pool."""
    stream = SeedSequenceStream(seed)
    shape = tuple(size["analysis_shape"])
    rank = size["analysis_rank"]
    case = build_dense_case(shape, rank, 6.0, 0.3, stream)
    args = (case["forecast"], case["subspace"], case["operator"])
    tile_args = (case["layout"], shape, (16, 16), 8.0, 0.02)
    global_engine = default_analysis(case["layout"])
    tiled_engine = tiled_analysis(*tile_args)
    out = {}

    global_s, global_result = timed(lambda: global_engine.update(*args))
    tiled_s, tiled_result = timed(lambda: tiled_engine.update(*args))
    out["core.analysis_global_ms"] = global_s * 1e3
    out["core.analysis_tiled_ms"] = tiled_s * 1e3
    facts = analysis_facts(case, global_result, tiled_result)
    out["core.analysis_tiled_rel_err"] = facts["tiled_rel_err"]
    out["core.rmse_ratio_global"] = facts["rmse_ratio_global"]
    out["core.rmse_ratio_tiled"] = facts["rmse_ratio_tiled"]

    pooled_engine = tiled_analysis(*tile_args, task_runner=TileTaskPool(n_workers=2).run)
    pooled_s, _ = timed(lambda: pooled_engine.update(*args))
    out["workflow.tilepool_run_ms"] = pooled_s * 1e3

    members = np.tile(case["forecast"], (8, 1))
    ensemble_s, _ = timed(
        lambda: global_engine.update_ensemble(
            members, case["subspace"], case["operator"], stream.rng("probe", "perturbed-obs")
        )
    )
    out["core.update_ensemble_ms"] = ensemble_s * 1e3

    apply_s, _ = timed(lambda: case["operator"].observe_modes(case["subspace"].modes), 5)
    out["obs.operator_apply_ms"] = apply_s * 1e3

    columns = size["anomaly_columns"]
    anomalies = stream.rng("probe", "anomalies").standard_normal(
        (case["layout"].size, columns)
    ) * np.geomspace(1.0, 0.05, columns)
    svd_rank = rank // 2
    cold_s, _ = timed(
        lambda: ErrorSubspace.from_anomalies(anomalies, rank=svd_rank, energy=0.999)
    )
    out["core.svd_cold_ms"] = cold_s * 1e3
    randomized_s, _ = timed(
        lambda: ErrorSubspace.from_anomalies(
            anomalies,
            rank=svd_rank,
            method="randomized",
            rng=stream.rng("probe", "sketch"),
        )
    )
    out["core.svd_randomized_ms"] = randomized_s * 1e3
    primed = 3 * columns // 4
    warm_times = []
    for _ in range(3):
        estimator = IncrementalSubspaceEstimator(
            rank=svd_rank, energy=0.999, rng=stream.rng("probe", "estimator")
        )
        estimator.update(anomalies, primed, 1.0 / np.sqrt(primed - 1))
        seconds, _ = timed(
            lambda e=estimator: e.update(anomalies, columns, 1.0 / np.sqrt(columns - 1)), 1
        )
        warm_times.append(seconds)
    out["core.svd_warm_ms"] = statistics.median(warm_times) * 1e3
    return out


def probe_covfile(state_dim: int, seed: int, scratch) -> dict[str, float]:
    """``workflow.covfile``: append, publish and read of the column store."""
    rng = SeedSequenceStream(seed).rng("probe", "covfile")
    store = MemmapCovarianceStore(scratch.fresh("covfile"))
    appends, publishes, reads = [], [], []
    total_bytes = 0
    try:
        for batch in range(4):
            columns = rng.standard_normal((state_dim, 8))
            ids = np.arange(batch * 8, (batch + 1) * 8)
            seconds, nbytes = timed(lambda: store.append(columns, ids), 1)
            appends.append(seconds)
            total_bytes += nbytes
            seconds, _ = timed(store.publish, 1)
            publishes.append(seconds)
            seconds, snapshot = timed(store.read_safe, 1)
            reads.append(seconds)
            if snapshot is None or snapshot.count != (batch + 1) * 8:
                raise RuntimeError("covfile probe read back the wrong column count")
            del snapshot
    finally:
        store.close()
    return {
        "workflow.covfile_append_ms": statistics.median(appends) * 1e3,
        "workflow.covfile_publish_ms": statistics.median(publishes) * 1e3,
        "workflow.covfile_read_ms": statistics.median(reads) * 1e3,
        "workflow.covfile_bytes": float(total_bytes),
    }


def probe_products(size: dict, seed: int, scratch) -> dict[str, float]:
    """``products`` store, reader and service; ``util.fsio`` durable replace."""
    rng = SeedSequenceStream(seed).rng("probe", "products")
    base = seed_base_fields((128, 160), rng)
    workdir = scratch.fresh("products")
    store = ProductStore(workdir, tile_size=16, levels=3, retain=8)
    publish_times = []
    for version in range(1, size["product_versions"] + 1):
        fields = {name: array + 0.01 * version for name, array in base.items()}
        seconds, _ = timed(lambda f=fields, v=version: store.publish(product_for(v), f), 1)
        publish_times.append(seconds)
    last_dir = max(p for p in workdir.iterdir() if p.name.startswith("v"))
    out = {
        "products.publish_ms": statistics.median(publish_times) * 1e3,
        "products.publish_bytes": float(
            sum(p.stat().st_size for p in last_dir.iterdir())
        ),
    }
    fetch_s, snapshot = timed(lambda: ProductReader(workdir).fetch(), 5)
    if snapshot is None or snapshot.version != store.version:
        raise RuntimeError("product probe fetched the wrong version")
    out["products.fetch_cold_ms"] = fetch_s * 1e3

    target = "/v1/products/latest/tiles/sst_nowcast/1/1"
    miss_times = []
    service = None
    for _ in range(5):
        service = ProductService(workdir)
        seconds, response = timed(lambda s=service: s.handle("GET", target), 1)
        if response.status != 200:
            raise RuntimeError(f"product probe miss answered {response.status}")
        miss_times.append(seconds)
    out["products.handle_miss_ms"] = statistics.median(miss_times) * 1e3
    hits = size["handle_hits"]
    hit_s, _ = timed(lambda: [service.handle("GET", target) for _ in range(hits)])
    out["products.handle_hit_us"] = hit_s / hits * 1e6

    replace_dir = scratch.fresh("fsio")
    replace_times = []
    for k in range(size["replaces"]):
        tmp = replace_dir / "value.json.tmp"
        tmp.write_text(f'{{"k": {k}}}')
        seconds, _ = timed(lambda t=tmp: durable_replace(t, replace_dir / "value.json"), 1)
        replace_times.append(seconds)
    out["util.fsio_durable_replace_ms"] = statistics.median(replace_times) * 1e3
    return out


def run_probes(size: dict, seed: int, scratch) -> dict[str, float]:
    """The whole battery; keys are per-layer metric names."""
    out = probe_ocean_and_friends(size, seed)
    out.update(probe_analysis(size, seed))
    # The column store is probed at the ocean state's dimension.
    out.update(probe_covfile(int(out["ocean.state_bytes"]) // 8, seed, scratch))
    out.update(probe_products(size, seed, scratch))
    return out
