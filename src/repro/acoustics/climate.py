"""Acoustic-climate ensembles: the many-task acoustic workload.

Paper Sec 2.2/3.1: "With enough compute power one can compute the whole
'acoustic climate' in a three-dimensional region, providing TL for any
source and receiver locations in the region as a function of time and
frequency, by running multiple independent tasks for different
sources/frequencies/slices at different times" -- Sec 5.2.1 reports 6000+
such jobs of ~3 minutes each following the ESSE run.

:func:`acoustic_climate_tasks` enumerates that task set; each task is a
pure function of (state, section, source, frequency) and can be executed
by any map-like executor (in-process, process pool, or the scheduler
simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.acoustics.environment import AcousticSection, extract_section
from repro.acoustics.tl import TLField, transmission_loss
from repro.ocean.grid import OceanGrid
from repro.ocean.model import ModelState


@dataclass(frozen=True)
class AcousticTask:
    """One independent acoustic computation (a many-task singleton).

    Attributes
    ----------
    task_id:
        Unique index in the climate campaign.
    slice_start, slice_end:
        Section end points (m); the source is at ``slice_start``.
    frequency:
        Source frequency (Hz).
    source_depth:
        Source depth (m).
    """

    task_id: int
    slice_start: tuple[float, float]
    slice_end: tuple[float, float]
    frequency: float
    source_depth: float

    def run(
        self,
        grid: OceanGrid,
        state: ModelState,
        n_ranges: int = 16,
        max_depth: float | None = 300.0,
    ) -> TLField:
        """Execute the task against one ocean realization."""
        section = extract_section(
            grid,
            state,
            self.slice_start,
            self.slice_end,
            n_ranges=n_ranges,
            max_depth=max_depth,
        )
        return transmission_loss(
            section, self.frequency, source_depth=self.source_depth
        )


def acoustic_climate_tasks(
    grid: OceanGrid,
    n_slices: int = 8,
    frequencies: Sequence[float] = (100.0, 200.0, 400.0),
    source_depths: Sequence[float] = (15.0, 60.0),
) -> list[AcousticTask]:
    """Enumerate the acoustic-climate task set for a region.

    Slices fan out from the bay mouth across the domain (rotated sections
    through the region); the cross product with frequencies and source
    depths yields the many-task workload --
    ``n_slices * len(frequencies) * len(source_depths)`` tasks.
    """
    if n_slices < 1:
        raise ValueError("need at least one slice")
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy
    center = (0.62 * lx, 0.55 * ly)  # near the bay mouth
    radius = 0.45 * min(lx, ly)
    tasks: list[AcousticTask] = []
    task_id = 0
    for s in range(n_slices):
        angle = np.pi * (0.55 + 0.9 * s / max(n_slices - 1, 1))  # westward fan
        end = (
            center[0] + radius * np.cos(angle),
            center[1] + radius * np.sin(angle),
        )
        for f in frequencies:
            for zs in source_depths:
                tasks.append(
                    AcousticTask(
                        task_id=task_id,
                        slice_start=center,
                        slice_end=end,
                        frequency=float(f),
                        source_depth=float(zs),
                    )
                )
                task_id += 1
    return tasks


class AcousticClimate:
    """Run an acoustic-climate campaign and collect statistics.

    Parameters
    ----------
    grid:
        Model grid.
    tasks:
        Task set (see :func:`acoustic_climate_tasks`).

    Notes
    -----
    Individual task failures are tolerated, mirroring the ESSE ensemble
    philosophy (paper Sec 4 point 3): a failed task is recorded and
    excluded from the statistics.
    """

    def __init__(self, grid: OceanGrid, tasks: Iterable[AcousticTask]):
        self.grid = grid
        self.tasks = list(tasks)
        if not self.tasks:
            raise ValueError("acoustic climate needs at least one task")
        self.results: dict[int, TLField] = {}
        self.failures: dict[int, str] = {}

    def run(
        self,
        state: ModelState,
        mapper: Callable | None = None,
        **task_kwargs,
    ) -> "AcousticClimate":
        """Execute all tasks.

        Parameters
        ----------
        state:
            The ocean realization every task propagates through.
        mapper:
            Optional ``map(func, iterable)``-compatible executor (e.g.
            ``ProcessPoolExecutor.map``); defaults to the builtin map.
        """
        def execute(task: AcousticTask):
            try:
                return task.task_id, task.run(self.grid, state, **task_kwargs), None
            except Exception as exc:  # tolerated member failure
                return task.task_id, None, f"{type(exc).__name__}: {exc}"

        run_map = mapper if mapper is not None else map
        for task_id, field, error in run_map(execute, self.tasks):
            if error is None:
                self.results[task_id] = field
            else:
                self.failures[task_id] = error
        return self

    @property
    def completed(self) -> int:
        """Number of successfully completed tasks."""
        return len(self.results)

    def tl_statistics(self) -> dict[str, float]:
        """Aggregate TL statistics over all completed tasks."""
        if not self.results:
            raise RuntimeError("no completed acoustic tasks")
        all_tl = np.concatenate([f.tl.ravel() for f in self.results.values()])
        return {
            "mean": float(all_tl.mean()),
            "std": float(all_tl.std()),
            "min": float(all_tl.min()),
            "max": float(all_tl.max()),
        }
