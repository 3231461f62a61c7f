"""``cycle_ref``: the product the forecaster waits for (paper Fig 1).

One body walks the whole timeline of a twin experiment: for each
observation period the truth advances, ESSE forecasts the uncertainty
with a growing ensemble, the AOSN-II-like network samples the truth, the
batch is assimilated, the acoustic climate is computed on the central
forecast, the products are published, and a web reader fetches them over
HTTP (cold GET of the manifest and of every field, then one
``If-None-Match`` revalidation).

Chosen because it is the forecaster's timeline end to end.  Almost all of
it is ocean time stepping, so it exercises ``ocean`` and bypasses
``workflow``, the dense analysis and the serving hot path.
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np

from repro.acoustics import AcousticClimate, acoustic_climate_tasks
from repro.ocean import StochasticForcing
from repro.products import (
    CycleProductPublisher,
    ProductHTTPServer,
    ProductService,
    ProductStore,
    fetch,
)
from repro.realtime import RealTimeForecastCycle

import verify
from workloads.base import Verdict, Workload, build_ocean_case, stage_count


class CycleRef(Workload):
    """The realtime forecast cycle through publish and first web read."""

    name = "cycle_ref"

    def setup(self) -> None:
        """Spin the model up and draw the twin truth from the seed."""
        size = self.size
        self.case = build_ocean_case(
            size,
            self.seed,
            timeline={
                "period_hours": size["period_hours"],
                "n_periods": size["n_periods"],
            },
        )
        model, subspace = self.case.model, self.case.subspace
        # The truth differs from the forecaster's background by one draw
        # from the initial error subspace: the error the cycle must find.
        coefficients = subspace.sigmas * self.stream.rng("truth", "initial").standard_normal(
            subspace.rank
        )
        truth_vector = model.to_vector(self.case.background) + model.layout.denormalize(
            subspace.modes @ coefficients
        )
        self.truth = model.from_vector(truth_vector, time=self.case.background.time)
        self.acoustic_tasks = acoustic_climate_tasks(
            model.grid,
            n_slices=size["acoustic_slices"],
            frequencies=size["acoustic_frequencies"],
            source_depths=(15.0,),
        )
        self.steps_per_run = int(
            round(size["period_hours"] * 3600.0 / self.case.config.model.dt)
        )

    def body(self, tracer, program_telemetry=None):
        """One full timeline: forecast, assimilate, publish, read back."""
        case = self.case
        model = case.model
        workdir = self.scratch.fresh("cycle")
        acoustic = {"tasks": 0, "failed": 0}

        def tl_section(product, forecast):
            climate = AcousticClimate(model.grid, self.acoustic_tasks).run(
                forecast.central,
                mapper=tracer.mapper("acoustics", "acoustics.tl_task"),
            )
            acoustic["tasks"] += len(self.acoustic_tasks)
            acoustic["failed"] += len(climate.failures)
            first = min(climate.results)
            return {"tl_section": climate.results[first].tl}

        store = ProductStore(workdir)
        publisher = CycleProductPublisher(
            tracer.wrap(store, "products", {"publish": "products.publish"}),
            model,
            extra_fields=tl_section,
        )
        # The truth evolves with model error; the stream is rebuilt here so
        # that every repetition sees the same noise.
        truth_model = model.with_noise(
            StochasticForcing(model.grid, rng=self.stream.rng("truth", "model-error"))
        )
        cycle = RealTimeForecastCycle(
            tracer.wrap(
                case.config.build_driver(model, telemetry=program_telemetry),
                "core",
                {"forecast": "core.forecast", "assimilate": "core.assimilate"},
            ),
            tracer.wrap(truth_model, "ocean", {"run": "ocean.truth_run"}),
            tracer.wrap(
                case.config.build_network(model), "obs", {"observe": "obs.observe"}
            ),
            case.config.build_timeline(t0=case.background.time),
            telemetry=program_telemetry,
            product_hook=tracer.wrap_fn(publisher, "products", "products.cycle_hook"),
        )
        with tracer.span("realtime.cycle_run", "realtime"):
            records, _, _ = cycle.run(
                case.background,
                self.truth,
                case.subspace,
                mapper=tracer.mapper("ocean", "ocean.member_run"),
            )
        reads = asyncio.run(self._read_back(workdir, tracer))
        return {
            "records": records,
            "published": list(publisher.published_versions),
            "store_version": store.version,
            "head": json.loads((workdir / "HEAD.json").read_text()),
            "reads": reads,
            "acoustic": acoustic,
        }

    async def _read_back(self, workdir, tracer) -> dict:
        """The first web reader: cold GETs, then one revalidation."""
        service = ProductService(workdir)
        server = ProductHTTPServer(
            tracer.wrap(service, "products", {"handle": "products.handle"})
        )
        get = tracer.wrap_fn(fetch, "products", "products.fetch")
        statuses = []
        async with server.serving():
            status, headers, body = await get(server.host, server.port, "/v1/products/latest")
            statuses.append(status)
            manifest = json.loads(body) if status == 200 else {}
            for name in sorted(manifest.get("fields", {})):
                field_status, _, field_body = await get(
                    server.host, server.port, f"/v1/products/latest/fields/{name}"
                )
                statuses.append(field_status)
                json.loads(field_body)
            revalidated, _, _ = await get(
                server.host,
                server.port,
                "/v1/products/latest",
                headers={"If-None-Match": headers.get("etag", "")},
            )
        return {
            "cold_statuses": statuses,
            "manifest_checksum": manifest.get("checksum"),
            "manifest_version": manifest.get("version"),
            "fields": sorted(manifest.get("fields", {})),
            "revalidation_status": revalidated,
        }

    def digest(self, output) -> dict:
        """Keep the cycle records' numbers and the read-back facts."""
        records = output["records"]
        return {
            "error_reduction": [r.error_reduction for r in records],
            "ensemble_size": [r.ensemble_size for r in records],
            "finite": [
                all(
                    math.isfinite(x)
                    for x in (r.innovation_rms, r.analysis_rms, r.forecast_error, r.analysis_error)
                )
                for r in records
            ],
            "published": output["published"],
            "store_version": output["store_version"],
            "head_checksum": output["head"]["checksum"],
            "reads": output["reads"],
            "acoustic": output["acoustic"],
        }

    def check(self, digests: list[dict]) -> Verdict:
        """Every cycle finite, full ensemble, published, served, repeatable."""
        n_periods = self.size["n_periods"]
        failures = verify.check_cycle(
            digests, n_periods=n_periods, ensemble_size=self.size["ensemble"][1]
        )
        unpublished = sum(n_periods - len(d["published"]) for d in digests)
        skill = float(np.mean([np.mean(d["error_reduction"]) for d in digests]))
        return Verdict(
            attempted=n_periods * len(digests),
            failed=max(unpublished, 0),
            skill=min(max(skill, 0.0), 1.0),
            failures=failures,
        )

    def layer_counts(self, digest: dict) -> dict[str, float]:
        """Exact counts of the work one body did."""
        n_periods = self.size["n_periods"]
        runs_per_period = self.size["ensemble"][1] + 2  # members + central + truth
        return {
            "ocean.steps": float(n_periods * runs_per_period * self.steps_per_run),
            "core.convergence_checks": float(
                n_periods * stage_count(self.case.config.esse)
            ),
            "acoustics.tasks": float(digest["acoustic"]["tasks"]),
        }
