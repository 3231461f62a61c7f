"""Shared helpers for the reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure from the paper's
evaluation and prints it in the paper's row format next to the published
values.  Absolute wall-clock numbers are not expected to match (the
substrate is a simulator, not the authors' testbed); the *shape* -- who
wins, by what factor, where crossovers fall -- is asserted.
"""

import pytest


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one paper-style table."""
    widths = [
        max(len(str(headers[c])), max((len(str(r[c])) for r in rows), default=0))
        for c in range(len(headers))
    ]
    print(f"\n{title}")
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


@pytest.fixture(scope="session")
def small_esse_setup():
    """A small but real ESSE configuration shared by the figure benches."""
    from repro.core import PerturbationGenerator, synthetic_initial_subspace
    from repro.core.ensemble import EnsembleRunner
    from repro.ocean import PEModel
    from repro.ocean.bathymetry import monterey_grid

    grid = monterey_grid(nx=16, ny=14, nz=3)
    model = PEModel(grid=grid)
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, grid.shape2d, grid.nz, rank=8, seed=0
    )
    perturber = PerturbationGenerator(model.layout, subspace, root_seed=5)
    runner = EnsembleRunner(model, perturber, duration=8 * 400.0, root_seed=5)
    return {
        "grid": grid,
        "model": model,
        "background": background,
        "subspace": subspace,
        "runner": runner,
    }
