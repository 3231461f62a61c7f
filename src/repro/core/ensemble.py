"""Ensemble forecasting: member specifications and execution.

The ESSE ensemble has unusual properties (paper Sec 4): members are
identified by a *perturbation index*, may complete in any order on
heterogeneous hosts, may fail (tolerated), and the ensemble grows in stages
until the subspace converges.  :class:`EnsembleRunner` encapsulates one
member execution -- perturb, integrate, return the forecast vector -- as a
pure function of (mean state, member index), which both the in-process
driver and the many-task workflow reuse.  :func:`grow_ensemble` is the
staged growth itself (Fig 2 ii-iv), written once for
:meth:`repro.core.driver.ESSEDriver.forecast`,
:meth:`repro.workflow.ensemble.EnsembleEngine.run` and the Fig 3 / Fig 4
workflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.core.convergence import ConvergenceCriterion
from repro.core.perturbation import PerturbationGenerator
from repro.core.subspace import ErrorSubspace
from repro.util.rng import member_rng

if TYPE_CHECKING:  # avoid core <-> ocean/driver import cycles; hints only
    from repro.core.driver import ESSEConfig
    from repro.ocean.model import ModelState, PEModel


@dataclass(frozen=True)
class MemberResult:
    """Outcome of one ensemble-member forecast."""

    member_index: int
    forecast: np.ndarray | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the member completed."""
        return self.forecast is not None


class EnsembleRunner:
    """Runs perturbed stochastic forecasts for one ESSE cycle.

    Parameters
    ----------
    model:
        The deterministic base model (grid/config/forcing shared by all
        members).
    perturber:
        Initial-condition perturbation generator.
    duration:
        Forecast length (s).
    root_seed:
        Experiment seed; each member's model-error (Wiener) forcing
        derives from it.
    """

    def __init__(
        self,
        model: PEModel,
        perturber: PerturbationGenerator,
        duration: float,
        root_seed: int,
    ):
        if duration <= 0:
            raise ValueError("forecast duration must be positive")
        self.model = model
        self.perturber = perturber
        self.duration = float(duration)
        self.root_seed = int(root_seed)

    def central_forecast(self, mean_state: ModelState) -> ModelState:
        """The unperturbed, noise-free central forecast."""
        return self.model.run(mean_state, self.duration)

    def run_member(self, mean_state: ModelState, member_index: int) -> MemberResult:
        """Perturb + integrate one member; failures are captured, not raised.

        "Individual ensemble members are not significant (and their results
        can be ignored if unavailable)" -- paper Sec 4 point 3.
        """
        try:
            mean_vec = self.model.to_vector(mean_state)
            perturbed = self.perturber.member_state(mean_vec, member_index)
            state0 = self.model.from_vector(perturbed, time=mean_state.time)
            from repro.ocean.stochastic import StochasticForcing

            noise = StochasticForcing(
                self.model.grid,
                rng=member_rng(self.root_seed, member_index, purpose="model"),
            )
            model = self.model.with_noise(noise)
            final = model.run(state0, self.duration)
            return MemberResult(member_index, model.to_vector(final))
        except Exception as exc:
            return MemberResult(member_index, None, f"{type(exc).__name__}: {exc}")

    def run_members_batched(
        self,
        mean_state: ModelState,
        member_indices: Iterable[int],
    ) -> list[MemberResult]:
        """Run a batch of members in one vectorized ensemble integration.

        Perturbations and stochastic draws use exactly the per-member
        keyed streams of :meth:`run_member`, and the batched operators
        are bit-identical to per-member stepping, so each returned
        forecast vector equals the one :meth:`run_member` would produce
        for that index -- including which members fail and with what
        error (blow-ups are isolated per member, paper Sec 4 point 3).
        """
        from repro.ocean.stochastic import BatchedStochasticForcing

        indices = list(member_indices)
        if not indices:
            return []
        mean_vec = self.model.to_vector(mean_state)
        perturbed = np.stack(
            [self.perturber.member_state(mean_vec, idx) for idx in indices], axis=1
        )  # shape: (state_dim, n_members)
        ensemble = self.model.ensemble_from_matrix(perturbed, time=mean_state.time)
        noise = BatchedStochasticForcing(
            self.model.grid,
            rngs=[member_rng(self.root_seed, idx, purpose="model") for idx in indices],
        )
        final, failed = self.model.run_ensemble(
            ensemble, self.duration, noise=noise
        )
        matrix = self.model.ensemble_to_matrix(final)
        results = []
        for pos, idx in enumerate(indices):
            if pos in failed:
                results.append(MemberResult(idx, None, failed[pos]))
            else:
                results.append(MemberResult(idx, matrix[:, pos].copy()))
        return results


@dataclass
class EnsembleGrowth:
    """Outcome of :func:`grow_ensemble`; what every staged run reports."""

    subspace: ErrorSubspace
    ensemble_size: int  # members actually in the final covariance
    converged: bool
    convergence_history: tuple[tuple[int, float], ...]
    member_ids: tuple[int, ...]  # arrival order
    failed_members: tuple[int, ...]


def grow_ensemble(
    config: ESSEConfig,
    propagate: Callable,
    sink,
    telemetry,
    started: float,
    rng: np.random.Generator | None = None,
    on_check: Callable | None = None,
) -> EnsembleGrowth:
    """The Fig 2 stage loop: grow, propagate, fold, SVD, test, stop.

    A stage that leaves the sink's count where the last check found it
    -- every member failed, or a client running ahead already delivered
    them -- is neither factored nor tested: the same columns would give
    a similarity of 1 and a false convergence.

    Parameters
    ----------
    config:
        Stage sizes, convergence tolerance, SVD settings, Tmax.
    propagate:
        ``propagate(indices, deliver)`` runs one stage's member indices
        and calls ``deliver(result)`` once per :class:`MemberResult`,
        from the calling thread.  It may deliver members of later
        stages too.
    sink:
        Where columns go: ``add_member(index, forecast)``, ``count``,
        ``member_ids``, and ``view()`` returning ``columns`` / ``count`` /
        ``scale`` of what the SVD should factor -- an
        :class:`~repro.core.covariance.AnomalyAccumulator`, or a wrapper
        that publishes to a column store and reads the snapshot back.
    telemetry:
        Span recorder; its clock times the Tmax check against ``started``.
    rng:
        Sketch generator of the subspace estimator.  The driver keys it
        on its root seed; the engine passes none (the estimators' fixed
        keyed-stream fallback) -- the one difference between the two.
    on_check:
        Called after every check as ``on_check(count, subspace, rho,
        converged)``; the Fig 4 workflow logs its events from it.
    """
    criterion = ConvergenceCriterion(tolerance=config.convergence_tolerance)
    estimator = config.subspace_estimator(rng=rng)
    failed: list[int] = []
    subspace = None
    checked = 0  # sink count at the last check

    def deliver(result: MemberResult) -> None:
        """Fold one member result into the sink."""
        if result.ok:
            sink.add_member(result.member_index, result.forecast)
        else:
            failed.append(result.member_index)

    next_index = 0
    for round_no, stage_target in enumerate(config.stage_sizes()):
        indices = range(next_index, stage_target)
        next_index = stage_target
        with telemetry.span("stage.propagate", round=round_no, size=len(indices)):
            propagate(indices, deliver)
        if sink.count >= 2 and sink.count > checked:
            with telemetry.span("stage.svd", count=sink.count) as span:
                view = sink.view()
                subspace = estimator.update(view.columns, view.count, view.scale)
                rho = criterion.update(subspace, count=view.count)
                span.set(path=estimator.last_path, rank=subspace.rank)
            checked = view.count
            telemetry.event(
                "convergence_check",
                count=view.count,
                rho=rho,
                converged=criterion.converged,
            )
            if on_check is not None:
                on_check(view.count, subspace, rho, criterion.converged)
        if criterion.converged:
            break
        if (
            config.deadline_seconds is not None
            and telemetry.clock() - started > config.deadline_seconds
        ):
            break
    if subspace is None:
        raise RuntimeError(f"too few surviving members ({sink.count}) for a subspace")
    return EnsembleGrowth(
        subspace=subspace,
        ensemble_size=sink.count,
        converged=criterion.converged,
        convergence_history=tuple(criterion.history),
        member_ids=sink.member_ids,
        failed_members=tuple(failed),
    )
