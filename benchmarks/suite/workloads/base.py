"""What every workload provides, and the ocean case two of them share."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import ExperimentConfig
from repro.core import synthetic_initial_subspace
from repro.util.rng import SeedSequenceStream

from sizes import UNREACHABLE_TOLERANCE


@dataclass
class Verdict:
    """Outcome of a workload's output checks.

    ``attempted``/``failed`` count the workload's operations (members,
    cycles, updates, requests); ``skill`` is how right the answer is, a
    ratio in [0, 1]; ``failures`` lists every check that did not hold.
    """

    attempted: int
    failed: int
    skill: float
    failures: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        """True when every check held and no operation failed."""
        return not self.failures and self.failed == 0


class Workload:
    """One named set of inputs plus the fixed body that is timed.

    Subclasses implement :meth:`setup` (build every input from the seed;
    timed as ``setup_s``, callable repeatedly), :meth:`prepare` (untimed
    per-repetition state), :meth:`body` (one repetition; timed as
    ``wall_s``), :meth:`digest` (reduce a body's
    return value to what the checks need; untimed) and :meth:`check`.
    :meth:`layer_counts` turns one digest into the workload-dependent
    per-layer metrics of the traced pass, and :meth:`traced_extras`
    runs whatever only the traced pass measures.
    """

    name = "abstract"

    def __init__(self, size: dict, seed: int, scratch):
        self.size = size
        self.seed = int(seed)
        self.scratch = scratch
        self.stream = SeedSequenceStream(self.seed)

    def setup(self) -> None:
        """Build all inputs from the seed."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed per-repetition preparation (default: none)."""

    def body(self, tracer, program_telemetry=None):
        """Run one repetition and return its raw output."""
        raise NotImplementedError

    def digest(self, output) -> dict:
        """Reduce one raw output to a small dict the checks read."""
        raise NotImplementedError

    def check(self, digests: list[dict]) -> Verdict:
        """Run the output checks over every repetition's digest."""
        raise NotImplementedError

    def layer_counts(self, digest: dict) -> dict[str, float]:
        """Per-layer metrics this workload's own body determines."""
        return {}

    def traced_extras(self, tracer, digest: dict) -> dict[str, float]:
        """Per-layer metrics that need extra runs (traced pass only)."""
        return {}

    def check_extras(self) -> list[str]:
        """Checks on what :meth:`traced_extras` produced."""
        return []


@dataclass
class OceanCase:
    """A configured model with a spun-up state and an initial subspace."""

    config: ExperimentConfig
    model: object
    background: object
    subspace: object


def build_ocean_case(size: dict, seed: int, timeline: dict | None = None) -> OceanCase:
    """Model, spun-up background and synthetic initial subspace for ``size``.

    Engines are selected by :class:`ExperimentConfig` defaults only, so a
    later change may delete a backend without touching the benchmark.
    """
    nx, ny, nz = size["grid"]
    n0, nmax = size["ensemble"]
    document = {
        "domain": {"nx": nx, "ny": ny, "nz": nz},
        "esse": {
            "initial_ensemble_size": n0,
            "max_ensemble_size": nmax,
            "convergence_tolerance": UNREACHABLE_TOLERANCE,
            "max_subspace_rank": size["subspace_rank"],
            "root_seed": seed,
        },
        "observations": {"seed": seed},
    }
    if timeline is not None:
        document["timeline"] = timeline
    config = ExperimentConfig.from_dict(document)
    model = config.build_model()
    background = model.spun_up_state(days=size["spinup_days"])
    subspace = synthetic_initial_subspace(
        model.layout,
        model.grid.shape2d,
        model.grid.nz,
        rank=size["initial_rank"],
        seed=seed,
    )
    return OceanCase(config, model, background, subspace)


def stage_count(esse) -> int:
    """Growth stages (= convergence checks) an ``esse`` config section implies."""
    size, stages = esse.initial_ensemble_size, 1
    while size < esse.max_ensemble_size:
        size = min(math.ceil(size * esse.growth_factor), esse.max_ensemble_size)
        stages += 1
    return stages
