"""Shared fixtures: small grids and models sized for fast unit tests."""

import numpy as np
import pytest

from repro.ocean import (
    AtmosphericForcing,
    ModelConfig,
    PEModel,
    StochasticForcing,
)
from repro.ocean.bathymetry import monterey_grid
from repro.ocean.grid import demo_grid


@pytest.fixture(scope="session")
def small_grid():
    """A small closed-basin grid (tests run in milliseconds)."""
    return demo_grid(nx=16, ny=14, nz=3)


@pytest.fixture(scope="session")
def small_monterey_grid():
    """A coarse Monterey-like grid with coastline and bay."""
    return monterey_grid(nx=24, ny=20, nz=4)


@pytest.fixture(scope="session")
def small_model(small_monterey_grid):
    """A deterministic model on the coarse Monterey grid."""
    return PEModel(grid=small_monterey_grid)


@pytest.fixture(scope="session")
def spun_up_state(small_model):
    """A 3-day spin-up state shared across tests (read-only; copy first)."""
    return small_model.run(small_model.rest_state(), 3 * 86400.0)


@pytest.fixture()
def noisy_model(small_monterey_grid):
    """A model with seeded stochastic forcing."""
    noise = StochasticForcing(
        small_monterey_grid, rng=np.random.default_rng(42)
    )
    return PEModel(grid=small_monterey_grid, noise=noise)
