"""Declarative, validated experiment configuration.

Paper Sec 7: "We plan to simplify the use of such setups via the use of an
XML driven validating graphical user interface" (their reference [1] is a
web-enabled configuration front-end for legacy ocean codes).  This module
is that idea in library form: one plain dict/JSON document describes the
whole experiment -- domain, ESSE tuning, observation network, timeline --
is validated on load, and builds every runtime object.

Example
-------
>>> cfg = ExperimentConfig.from_dict({
...     "domain": {"nx": 20, "ny": 16, "nz": 3},
...     "esse": {"initial_ensemble_size": 8, "max_ensemble_size": 32},
... })
>>> model = cfg.build_model()
>>> driver = cfg.build_driver(model)
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.driver import ESSEConfig, ESSEDriver
from repro.obs.network import ObservationNetwork, aosn2_network
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.model import ModelConfig, PEModel
from repro.realtime.times import ExperimentTimeline
from repro.util.rng import SeedSequenceStream


class ConfigError(ValueError):
    """A configuration document failed validation."""


@dataclass(frozen=True)
class DomainSection:
    """Grid and domain parameters."""

    nx: int = 42
    ny: int = 36
    nz: int = 10

    def __post_init__(self):
        if min(self.nx, self.ny) < 4 or self.nz < 1:
            raise ConfigError("domain: nx/ny must be >= 4 and nz >= 1")


@dataclass(frozen=True)
class ModelSection:
    """Numerical model parameters (subset of :class:`ModelConfig`)."""

    dt: float = 400.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("model: dt must be positive")


@dataclass(frozen=True)
class ESSESection:
    """ESSE tuning (subset of :class:`ESSEConfig`)."""

    initial_ensemble_size: int = 16
    max_ensemble_size: int = 128
    growth_factor: float = 2.0
    convergence_tolerance: float = 0.97
    max_subspace_rank: int = 60
    root_seed: int = 0

    def __post_init__(self):
        if self.root_seed < 0:
            raise ConfigError("esse: root_seed must be >= 0")
        try:
            self.build()
        except ValueError as exc:
            raise ConfigError(f"esse: {exc}") from exc

    def build(self) -> ESSEConfig:
        """The :class:`ESSEConfig` this section describes (validates)."""
        return ESSEConfig(
            initial_ensemble_size=self.initial_ensemble_size,
            max_ensemble_size=self.max_ensemble_size,
            growth_factor=self.growth_factor,
            convergence_tolerance=self.convergence_tolerance,
            max_subspace_rank=self.max_subspace_rank,
        )


@dataclass(frozen=True)
class AssimilationSection:
    """Analysis configuration (``docs/ASSIMILATION.md``).

    There is one analysis engine; ``backend`` picks how it is localized.
    The inflation keys apply to both backends, every other key to
    ``tiled`` only.

    Parameters
    ----------
    backend:
        ``global`` -- the paper's full-domain update: no tile
        decomposition, no taper, every mode kept, run in-process -- or
        ``tiled`` (the same update localized over independent grid
        tiles).
    tile_ny, tile_nx:
        Nominal tile shape, in grid cells.
    taper:
        Localization taper: ``gaspari_cohn``, ``cutoff`` or ``none``.
    radius:
        Taper support radius in grid cells.
    halo:
        Hard observation-selection radius on top of the taper; 0 means
        no hard cap (taper support alone decides).
    inflation:
        ``multiplicative`` (constant ``inflation_factor``) or
        ``adaptive`` (innovation-consistency estimate clipped to
        ``[inflation_factor, adaptive_inflation_max]``).
    inflation_factor:
        Constant sigma inflation factor (>= 1).
    adaptive_inflation_max:
        Upper clip for the adaptive estimate.
    local_energy_floor:
        Per-tile relative mode-energy truncation floor in [0, 1).
    n_workers:
        Tile-pool width.
    max_attempts:
        Retry budget per tile task (1 disables retries).
    """

    backend: str = "global"
    tile_ny: int = 16
    tile_nx: int = 16
    taper: str = "gaspari_cohn"
    radius: float = 8.0
    halo: float = 0.0
    inflation: str = "multiplicative"
    inflation_factor: float = 1.0
    adaptive_inflation_max: float = 2.0
    local_energy_floor: float = 0.0
    n_workers: int = 4
    max_attempts: int = 3

    def __post_init__(self):
        if self.backend not in ("global", "tiled"):
            raise ConfigError(
                f"assimilation: unknown backend {self.backend!r} "
                "(have: global, tiled)"
            )
        if self.tile_ny < 1 or self.tile_nx < 1:
            raise ConfigError("assimilation: tile shape must be >= 1")
        if self.taper not in ("gaspari_cohn", "cutoff", "none"):
            raise ConfigError(
                f"assimilation: unknown taper {self.taper!r} "
                "(have: gaspari_cohn, cutoff, none)"
            )
        if self.radius <= 0:
            raise ConfigError("assimilation: radius must be positive")
        if self.halo < 0:
            raise ConfigError("assimilation: halo must be >= 0")
        if self.inflation not in ("multiplicative", "adaptive"):
            raise ConfigError(
                f"assimilation: unknown inflation {self.inflation!r} "
                "(have: multiplicative, adaptive)"
            )
        if self.inflation_factor < 1.0:
            raise ConfigError("assimilation: inflation_factor must be >= 1")
        if self.adaptive_inflation_max < self.inflation_factor:
            raise ConfigError(
                "assimilation: adaptive_inflation_max must be >= inflation_factor"
            )
        if not 0.0 <= self.local_energy_floor < 1.0:
            raise ConfigError(
                "assimilation: local_energy_floor must be in [0, 1)"
            )
        if self.n_workers < 1:
            raise ConfigError("assimilation: n_workers must be >= 1")
        if self.max_attempts < 1:
            raise ConfigError("assimilation: max_attempts must be >= 1")


@dataclass(frozen=True)
class ObservationsSection:
    """Observation-network parameters."""

    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("observations: seed must be >= 0")


@dataclass(frozen=True)
class TimelineSection:
    """Real-time timeline parameters."""

    period_hours: float = 48.0
    n_periods: int = 5

    def __post_init__(self):
        if self.period_hours <= 0 or self.n_periods < 1:
            raise ConfigError("timeline: positive period and >= 1 periods required")


def _type_error(kind: str, value) -> str | None:
    """Why ``value`` is not a valid ``kind`` key value (None when it is).

    ``bool`` is an ``int`` subclass and ``json.load`` parses ``NaN``, so
    neither ``isinstance`` nor a range check alone refuses them.
    """
    if kind == "str":
        return None if isinstance(value, str) else "a string"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "an integer" if kind == "int" else "a number"
    if kind == "int" and not isinstance(value, int):
        return "an integer"
    if isinstance(value, float) and not math.isfinite(value):
        return "finite"
    return None


_SECTIONS = {
    "domain": DomainSection,
    "model": ModelSection,
    "esse": ESSESection,
    "assimilation": AssimilationSection,
    "observations": ObservationsSection,
    "timeline": TimelineSection,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment document."""

    domain: DomainSection = field(default_factory=DomainSection)
    model: ModelSection = field(default_factory=ModelSection)
    esse: ESSESection = field(default_factory=ESSESection)
    assimilation: AssimilationSection = field(default_factory=AssimilationSection)
    observations: ObservationsSection = field(default_factory=ObservationsSection)
    timeline: TimelineSection = field(default_factory=TimelineSection)

    # -- document I/O ------------------------------------------------------

    @classmethod
    def from_dict(cls, document: dict) -> "ExperimentConfig":
        """Build and validate from a plain dict.

        Unknown sections or keys, and values of the wrong type (a float
        or ``true`` for an integer key, a string or non-finite number for
        a number key) raise :class:`ConfigError` -- a silently ignored
        typo in an at-sea configuration costs a forecast cycle.
        """
        if not isinstance(document, dict):
            raise ConfigError(f"document must be a dict, got {type(document)}")
        unknown = set(document) - set(_SECTIONS)
        if unknown:
            raise ConfigError(
                f"unknown sections {sorted(unknown)}; valid: {sorted(_SECTIONS)}"
            )
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            raw = document.get(name, {})
            if not isinstance(raw, dict):
                raise ConfigError(f"section {name!r} must be a mapping")
            kinds = {f.name: f.type for f in fields(section_cls)}
            bad = set(raw) - set(kinds)
            if bad:
                raise ConfigError(
                    f"section {name!r}: unknown keys {sorted(bad)}; "
                    f"valid: {sorted(kinds)}"
                )
            for key, value in raw.items():
                expected = _type_error(kinds[key], value)
                if expected:
                    raise ConfigError(
                        f"section {name!r}: {key} must be {expected}, got {value!r}"
                    )
            kwargs[name] = section_cls(**raw)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The full document (all defaults made explicit)."""
        return asdict(self)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        """Load and validate a JSON document."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str | Path) -> None:
        """Write the validated document as JSON."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    # -- builders --------------------------------------------------------------

    def build_model(self) -> PEModel:
        """The configured :class:`PEModel`."""
        grid = monterey_grid(nx=self.domain.nx, ny=self.domain.ny, nz=self.domain.nz)
        return PEModel(grid=grid, config=ModelConfig(dt=self.model.dt))

    def build_analysis(self, model: PEModel, telemetry=None):
        """The analysis the ``assimilation`` section describes.

        Both backends are the one engine of
        :mod:`repro.core.assimilation` and both honour the inflation
        keys.  ``backend: global`` is the preset with no tile
        decomposition and no taper (one locale that assimilates every
        observation, run in-process; of ``model`` it reads the layout
        only); ``backend: tiled`` localizes it over grid tiles whose
        tasks run through a fault-tolerant
        :class:`~repro.workflow.pool.TileTaskPool` (retry seed =
        ``esse.root_seed``).
        """
        from repro.core.assimilation import ESSEAnalysis, TiledESSEAnalysis
        from repro.core.localization import make_inflation, make_taper

        asm = self.assimilation
        inflation = make_inflation(
            asm.inflation,
            factor=asm.inflation_factor,
            min_factor=asm.inflation_factor,
            max_factor=asm.adaptive_inflation_max,
        )
        if asm.backend == "global":
            analysis = ESSEAnalysis(model.layout, inflation=inflation)
            if telemetry is not None:
                analysis.telemetry = telemetry
            return analysis
        from repro.workflow.policies import RetryPolicy
        from repro.workflow.pool import TileTaskPool

        pool = TileTaskPool(
            n_workers=asm.n_workers,
            retry=RetryPolicy(
                max_attempts=asm.max_attempts, seed=self.esse.root_seed
            ),
            telemetry=telemetry,
        )
        return TiledESSEAnalysis(
            model.layout,
            model.grid.shape2d,
            (asm.tile_ny, asm.tile_nx),
            taper=make_taper(asm.taper, asm.radius),
            halo=asm.halo if asm.halo > 0 else None,
            inflation=inflation,
            local_energy_floor=asm.local_energy_floor,
            task_runner=pool.run,
            telemetry=telemetry,
        )

    def build_driver(self, model: PEModel, telemetry=None) -> ESSEDriver:
        """The configured :class:`ESSEDriver` (analysis backend included)."""
        return ESSEDriver(
            model,
            self.esse.build(),
            root_seed=self.esse.root_seed,
            telemetry=telemetry,
            analysis=self.build_analysis(model, telemetry=telemetry),
        )

    def build_network(self, model: PEModel) -> ObservationNetwork:
        """The configured observation network.

        The noise generator is a keyed
        :class:`~repro.util.rng.SeedSequenceStream` stream rather than
        ``default_rng(seed)`` directly, so config-driven runs and
        driver-driven runs (which key member streams off the same root
        seed) draw from non-overlapping streams.
        """
        return aosn2_network(
            model.grid,
            model.layout,
            rng=SeedSequenceStream(self.observations.seed).rng("obs", "network"),
        )

    def build_engine(self, runner, workdir, **kwargs):
        """The configured :class:`~repro.workflow.ensemble.EnsembleEngine`.

        ``runner`` is an :class:`~repro.core.ensemble.EnsembleRunner` and
        ``workdir`` the engine's working directory; extra keyword
        arguments (telemetry, metrics) pass through.
        """
        from repro.workflow.ensemble import EnsembleEngine

        return EnsembleEngine(runner, self.esse.build(), workdir, **kwargs)

    def build_timeline(self, t0: float = 0.0) -> ExperimentTimeline:
        """The configured real-time timeline."""
        return ExperimentTimeline(
            t0=t0,
            period_length=self.timeline.period_hours * 3600.0,
            n_periods=self.timeline.n_periods,
        )
