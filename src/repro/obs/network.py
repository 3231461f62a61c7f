"""Observation networks: batching instrument data over periods T_k.

Paper Fig 1 (top row): "new observations are made available in batches
during periods T_k, from the start of the experiment (T_0) up to the final
time (T_f)".  :class:`ObservationNetwork` owns a set of instruments and
produces one :class:`ObservationBatch` per period by sampling a
twin-experiment truth state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.state import FieldLayout
from repro.obs.instruments import (
    AUVTrack,
    CTDStation,
    GliderTransect,
    Instrument,
    SSTSwath,
)
from repro.obs.operators import Observation, ObservationOperator
from repro.ocean.grid import OceanGrid
from repro.ocean.model import ModelState
from repro.util.rng import SeedSequenceStream


@dataclass(frozen=True)
class ObservationBatch:
    """All observations that became available during one period T_k."""

    period_index: int
    time: float
    operator: ObservationOperator

    @property
    def size(self) -> int:
        """Number of scalar observations in the batch."""
        return self.operator.size


class ObservationNetwork:
    """A fixed instrument suite sampled repeatedly over an experiment.

    Parameters
    ----------
    grid:
        Ocean grid shared by model and instruments.
    layout:
        State-vector layout observations index into.
    instruments:
        The instrument suite; must be non-empty.
    rng:
        Generator for measurement noise; thread one from your
        experiment's root seed (see :mod:`repro.util.rng`).  The default
        is a deterministic keyed stream off the zero root seed, so twin
        experiments repeat bit-identically even when no rng is passed.
    """

    def __init__(
        self,
        grid: OceanGrid,
        layout: FieldLayout,
        instruments: list[Instrument],
        rng: np.random.Generator | None = None,
    ):
        if not instruments:
            raise ValueError("network needs at least one instrument")
        self.grid = grid
        self.layout = layout
        self.instruments = tuple(instruments)
        self.rng = (
            rng
            if rng is not None
            else SeedSequenceStream(0).rng("obs", "network-noise")
        )
        self._period_count = 0

    def observe(self, truth: ModelState) -> ObservationBatch:
        """Sample all instruments against a truth state -> one batch at its time.

        Raises
        ------
        RuntimeError
            If every instrument point fell on land (empty batch).
        """
        observations: list[Observation] = []
        for instrument in self.instruments:
            observations.extend(instrument.observe(self.grid, truth, self.rng))
        if not observations:
            raise RuntimeError("observation batch is empty (all points on land?)")
        batch = ObservationBatch(
            period_index=self._period_count,
            time=truth.time,
            operator=ObservationOperator(self.layout, observations),
        )
        self._period_count += 1
        return batch


def aosn2_network(
    grid: OceanGrid,
    layout: FieldLayout,
    rng: np.random.Generator | None = None,
) -> ObservationNetwork:
    """An AOSN-II-like instrument suite scaled to the given grid.

    Two CTD stations over the shelf, one AUV box survey in the bay, two
    glider transects running offshore, and a cloudy SST swath -- the
    qualitative mix the paper assimilated in real time.
    """
    lx = grid.nx * grid.dx
    ly = grid.ny * grid.dy
    instruments: list[Instrument] = [
        CTDStation(x=0.30 * lx, y=0.40 * ly),
        CTDStation(x=0.45 * lx, y=0.62 * ly),
        AUVTrack(
            waypoints=[
                (0.55 * lx, 0.50 * ly),
                (0.65 * lx, 0.50 * ly),
                (0.65 * lx, 0.60 * ly),
                (0.55 * lx, 0.60 * ly),
            ],
            depth=30.0,
        ),
        GliderTransect(start=(0.15 * lx, 0.30 * ly), end=(0.60 * lx, 0.45 * ly)),
        GliderTransect(start=(0.15 * lx, 0.70 * ly), end=(0.60 * lx, 0.60 * ly)),
        SSTSwath(decimation=3, coverage=0.75),
    ]
    return ObservationNetwork(grid, layout, instruments, rng=rng)
