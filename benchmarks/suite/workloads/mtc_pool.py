"""``mtc_pool``: the paper's Fig 4 many-task pipeline.

One body is one :class:`~repro.workflow.ParallelESSEWorkflow` run with
two workers (member pool, continuous differ, covariance files, decoupled
SVD loop) followed by one default-backend
:class:`~repro.workflow.EnsembleEngine` run on the same members.  The
plain single-threaded :class:`~repro.workflow.SerialESSEWorkflow` runs
once during set-up: it is the baseline the pool's wall time is divided
by and the reference both subspaces must reproduce.

Chosen because the ``workflow`` layer does a third of this body's work
and none of ``cycle_ref``'s: the members are only four steps long, so the
pipeline around them (pool threads, polling, differ, covariance files,
SVD loop) is 0.17 s of a 0.55 s body.  The traced pass also shows how the
pool's threads share the interpreter: each member run spends about as
long in its span waiting for the lock that the other worker, the differ,
the SVD thread and the polling main loop also want as it spends stepping.
That waiting (member span minus the member thread's CPU time) is charged
to ``workflow``, not to ``ocean``; README.md records the measured shares.

The process is confined to one CPU.  Spread over the box's two hardware
threads the same pool run takes twice as long (the interpreter lock then
changes cores at every hand-off) and moves by 20-30 % between identical
runs with whatever else the host is doing, so what it would gate is the
host.  On one CPU the number is the pool's own cost: its threads, its
polling, the differ, the covariance files and the SVD loop.
"""

from __future__ import annotations

import statistics

from repro.core import (
    EnsembleRunner,
    ESSEConfig,
    PerturbationGenerator,
    similarity_coefficient,
)
from repro.workflow import (
    FaultInjector,
    FaultKind,
    ParallelESSEWorkflow,
    RetryPolicy,
    SerialESSEWorkflow,
)

import verify
from workloads.base import Verdict, Workload, build_ocean_case


class MtcPool(Workload):
    """Parallel workflow plus engine run against the serial reference."""

    name = "mtc_pool"

    def setup(self) -> None:
        """Spin up, build the member runner, run the serial reference."""
        size = self.size
        self.case = build_ocean_case(size, self.seed)
        model = self.case.model
        esse = self.case.config.esse
        self.esse = ESSEConfig(
            initial_ensemble_size=esse.initial_ensemble_size,
            max_ensemble_size=esse.max_ensemble_size,
            growth_factor=esse.growth_factor,
            convergence_tolerance=esse.convergence_tolerance,
            max_subspace_rank=esse.max_subspace_rank,
        )
        self.runner = EnsembleRunner(
            model,
            PerturbationGenerator(model.layout, self.case.subspace, root_seed=self.seed),
            duration=size["member_days"] * 86400.0,
            root_seed=self.seed,
        )
        self.steps_per_member = int(
            round(size["member_days"] * 86400.0 / self.case.config.model.dt)
        )
        serial = self._serial_run()
        self.serial_subspace = serial.subspace
        self.serial_wall_s = serial.timings.total

    def _serial_run(self):
        return SerialESSEWorkflow(
            self.runner, self.esse, self.scratch.fresh("serial")
        ).run(self.case.background)

    def _traced_runner(self, tracer):
        """Member runs charge their CPU to ocean and their waiting to workflow."""
        return tracer.wrap(
            self.runner,
            "ocean",
            {
                "run_member": "ocean.member_run",
                "run_members_batched": "ocean.batched_run",
                "central_forecast": "ocean.central_forecast",
            },
            waiting="workflow",
        )

    def body(self, tracer, program_telemetry=None):
        """One pool run, then one engine run, on the same members."""
        runner = self._traced_runner(tracer)
        background = self.case.background
        workflow = ParallelESSEWorkflow(
            runner,
            self.esse,
            self.scratch.fresh("parallel"),
            n_workers=self.size["n_workers"],
            telemetry=program_telemetry,
        )
        parallel = tracer.wrap(
            workflow, "workflow", {"run": "workflow.parallel_run"}, ambient=True
        ).run(background)
        engine = self.case.config.build_engine(
            runner, self.scratch.fresh("engine"), telemetry=program_telemetry
        )
        engine_result = tracer.wrap(
            engine, "workflow", {"run": "workflow.engine_run"}, ambient=True
        ).run(background)
        return parallel, engine_result

    def digest(self, output) -> dict:
        """Counts, wall times and agreement with the serial reference."""
        parallel, engine = output
        return {
            "parallel": self._pool_facts(parallel),
            "engine": {
                "ensemble_size": engine.ensemble_size,
                "n_failed": len(engine.failed_members),
                "wall_s": engine.wall_seconds,
                "rho": similarity_coefficient(self.serial_subspace, engine.subspace),
                "checks": len(engine.convergence_history),
            },
        }

    def _pool_facts(self, result) -> dict:
        return {
            "ensemble_size": result.ensemble_size,
            "n_completed": result.n_completed,
            "n_failed": result.n_failed,
            "n_cancelled": result.n_cancelled,
            "n_retried": result.n_retried,
            "wall_s": result.wall_seconds,
            "overlap": result.overlap_fraction(),
            "rho": similarity_coefficient(self.serial_subspace, result.subspace),
            "checks": len(result.convergence_history),
        }

    def check(self, digests: list[dict]) -> Verdict:
        """Full ensembles, no lost member, both subspaces match serial."""
        n_max = self.size["ensemble"][1]
        failures = verify.check_pool(digests, ensemble_size=n_max)
        failed = sum(d["parallel"]["n_failed"] + d["engine"]["n_failed"] for d in digests)
        skill = min(min(d["parallel"]["rho"], d["engine"]["rho"]) for d in digests)
        return Verdict(
            attempted=2 * n_max * len(digests),
            failed=failed,
            skill=min(max(float(skill), 0.0), 1.0),
            failures=failures,
        )

    def layer_counts(self, digest: dict) -> dict[str, float]:
        """The pool's own numbers for one body."""
        parallel, engine = digest["parallel"], digest["engine"]
        runs = parallel["n_completed"] + parallel["n_failed"] + engine["ensemble_size"] + 2
        return {
            "workflow.parallel_wall_s": parallel["wall_s"],
            "workflow.engine_wall_s": engine["wall_s"],
            "workflow.overlap_frac": parallel["overlap"],
            "workflow.members_run": float(parallel["n_completed"]),
            "workflow.members_retried": float(parallel["n_retried"]),
            "workflow.members_cancelled": float(parallel["n_cancelled"]),
            "workflow.members_failed": float(parallel["n_failed"]),
            "ocean.steps": float(runs * self.steps_per_member),
            "core.convergence_checks": float(parallel["checks"] + engine["checks"]),
        }

    def _fault_injector(self) -> FaultInjector:
        """A seeded injector that crashes some first attempt but loses no member.

        Fault draws are pure functions of (seed, index, attempt), so the
        first derived seed whose schedule retries at least one member
        and exhausts no member's attempts is found without running
        anything; the faulted run then never fails an operation.
        """
        n_max = self.size["ensemble"][1]
        attempts = self.size["retry_attempts"]
        for offset in range(1000):
            faults = FaultInjector(
                crash_rate=self.size["fault_crash_rate"], seed=self.seed * 1000 + offset
            )
            crashes = [
                [faults.draw(i, a) is FaultKind.CRASH for a in range(1, attempts + 1)]
                for i in range(n_max)
            ]
            if any(row[0] for row in crashes) and not any(all(row) for row in crashes):
                return faults
        raise RuntimeError("no fault seed retries a member without losing one")

    def traced_extras(self, tracer, digest: dict) -> dict[str, float]:
        """A pool run under injected crashes; a steadier serial baseline."""
        workflow = ParallelESSEWorkflow(
            self._traced_runner(tracer),
            self.esse,
            self.scratch.fresh("faulted"),
            n_workers=self.size["n_workers"],
            retry=RetryPolicy(
                max_attempts=self.size["retry_attempts"],
                backoff_base_s=0.01,
                seed=self.seed,
            ),
            faults=self._fault_injector(),
        )
        with tracer.span("workflow.faulted_run", "workflow", ambient=True):
            result = workflow.run(self.case.background)
        facts = self.faulted = self._pool_facts(result)
        attempts = facts["n_completed"] + facts["n_failed"] + facts["n_retried"]
        # The set-up's serial run is one sample; two more make a median.
        serial_wall_s = statistics.median(
            [self.serial_wall_s, *(self._serial_run().timings.total for _ in range(2))]
        )
        return {
            "workflow.faulted_wall_s": facts["wall_s"],
            "workflow.retry_useful_frac": facts["ensemble_size"] / max(attempts, 1),
            "workflow.serial_ref_wall_s": serial_wall_s,
            "workflow.parallel_over_serial": digest["parallel"]["wall_s"] / serial_wall_s,
        }

    def check_extras(self) -> list[str]:
        """The faulted run retried a member, lost none, matches serial."""
        return verify.check_faulted(self.faulted, self.size["ensemble"][1])
