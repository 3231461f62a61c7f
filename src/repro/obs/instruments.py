"""Synthetic instrument models: CTD stations, AUVs, gliders, satellite SST.

Each instrument turns a *true* model state into a list of noisy
:class:`~repro.obs.operators.Observation` samples, mimicking the AOSN-II
measurement suite.  Instruments are deterministic in *where* they sample
(given their configuration) and stochastic only in the measurement noise,
which is drawn from the supplied generator -- so twin experiments are fully
reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.obs.operators import Observation
from repro.ocean.grid import OceanGrid
from repro.ocean.model import ModelState

#: Running depth (m) of an AUV, and the along-track spacing (m) of its
#: temperature samples.
AUV_DEPTH = 30.0
AUV_SAMPLE_SPACING = 3000.0
#: Equally spaced surfacing points of a glider transect, and the depth (m)
#: its profiles reach.
GLIDER_PROFILES = 5
GLIDER_MAX_DEPTH = 200.0


class Instrument(ABC):
    """Base class: produce noisy point samples of a true state."""

    name: str = "generic"

    @abstractmethod
    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """The (field, level, j, i) tuples this instrument samples."""

    def noise_std_for(self, fieldname: str) -> float:
        """Measurement-error std-dev for a field (override per instrument)."""
        return {"temp": 0.05, "salt": 0.02}.get(fieldname, 0.05)

    def observe(
        self,
        grid: OceanGrid,
        truth: ModelState,
        rng: np.random.Generator,
    ) -> list[Observation]:
        """Noisy observations of ``truth`` at this instrument's points."""
        fields = {"temp": truth.temp, "salt": truth.salt, "eta": truth.eta}
        out: list[Observation] = []
        for fieldname, level, j, i in self.sample_points(grid):
            if not grid.mask[j, i]:
                continue  # instrument over land: skip silently
            arr = fields[fieldname]
            true_val = arr[level, j, i] if arr.ndim == 3 else arr[j, i]
            std = self.noise_std_for(fieldname)
            out.append(
                Observation(
                    field=fieldname,
                    level=level,
                    j=j,
                    i=i,
                    value=float(true_val + std * rng.standard_normal()),
                    noise_std=std,
                    instrument=self.name,
                )
            )
        return out


@dataclass
class CTDStation(Instrument):
    """A ship CTD cast: full-depth (T, S) profile at a fixed position.

    Parameters
    ----------
    x, y:
        Station position in metres.
    """

    x: float
    y: float
    name = "ctd"

    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """Full-depth (T, S) sample points at the station's grid cell."""
        j, i = grid.nearest_point(self.x, self.y)
        pts = []
        for k in range(grid.nz):
            pts.append(("temp", k, j, i))
            pts.append(("salt", k, j, i))
        return pts

    def noise_std_for(self, fieldname: str) -> float:
        """Measurement noise std-dev; CTDs are the suite's most accurate."""
        return {"temp": 0.02, "salt": 0.01}[fieldname]


@dataclass
class AUVTrack(Instrument):
    """An AUV running at ``AUV_DEPTH`` through a list of waypoints.

    Temperature is sampled every ``AUV_SAMPLE_SPACING`` metres along the
    legs.
    """

    waypoints: list[tuple[float, float]]
    name = "auv"

    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """Temperature points along the legs at the AUV's running depth."""
        if len(self.waypoints) < 2:
            raise ValueError("AUV track needs at least two waypoints")
        level = grid.level_index(AUV_DEPTH)
        pts: list[tuple[str, int, int, int]] = []
        seen: set[tuple[int, int]] = set()
        for (x0, y0), (x1, y1) in zip(self.waypoints[:-1], self.waypoints[1:]):
            leg = float(np.hypot(x1 - x0, y1 - y0))
            n = max(int(leg / AUV_SAMPLE_SPACING), 1)
            for s in np.linspace(0.0, 1.0, n + 1):
                j, i = grid.nearest_point(x0 + s * (x1 - x0), y0 + s * (y1 - y0))
                if (j, i) not in seen:
                    seen.add((j, i))
                    pts.append(("temp", level, j, i))
        return pts

    def noise_std_for(self, fieldname: str) -> float:
        """Measurement noise std-dev for AUV temperature samples."""
        return 0.05


@dataclass
class GliderTransect(Instrument):
    """A glider sawtooth: profiles at stations along a straight transect.

    At each of ``GLIDER_PROFILES`` equally spaced surfacing points the
    glider yields a (T, S) profile down to ``GLIDER_MAX_DEPTH``.
    """

    start: tuple[float, float]
    end: tuple[float, float]
    name = "glider"

    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """(T, S) profile points at the transect's surfacing stations."""
        levels = [k for k, z in enumerate(grid.z_levels) if z <= GLIDER_MAX_DEPTH]
        pts: list[tuple[str, int, int, int]] = []
        for s in np.linspace(0.0, 1.0, GLIDER_PROFILES):
            x = self.start[0] + s * (self.end[0] - self.start[0])
            y = self.start[1] + s * (self.end[1] - self.start[1])
            j, i = grid.nearest_point(x, y)
            for k in levels:
                pts.append(("temp", k, j, i))
                pts.append(("salt", k, j, i))
        return pts

    def noise_std_for(self, fieldname: str) -> float:
        """Measurement noise std-dev for glider (T, S) profiles."""
        return {"temp": 0.05, "salt": 0.02}[fieldname]


@dataclass
class SSTSwath(Instrument):
    """Satellite SST: the surface temperature level on a decimated grid.

    Parameters
    ----------
    decimation:
        Sample every ``decimation``-th point in each direction.
    coverage:
        Fraction of the swath retained (cloud masking); points are dropped
        deterministically by a hash of their indices so coverage does not
        depend on the caller's RNG state.
    """

    decimation: int = 2
    coverage: float = 0.8
    name = "sst"

    def __post_init__(self):
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")

    def sample_points(self, grid: OceanGrid) -> list[tuple[str, int, int, int]]:
        """Decimated surface-temperature points minus the cloud mask."""
        pts: list[tuple[str, int, int, int]] = []
        for j in range(0, grid.ny, self.decimation):
            for i in range(0, grid.nx, self.decimation):
                # Deterministic pseudo-random cloud mask.
                h = ((j * 2654435761 + i * 40503) % 1000) / 1000.0
                if h < self.coverage:
                    pts.append(("temp", 0, j, i))
        return pts

    def noise_std_for(self, fieldname: str) -> float:
        """Measurement noise std-dev; satellite SST is the noisiest."""
        return 0.3
