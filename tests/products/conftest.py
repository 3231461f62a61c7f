"""Shared fixtures for the product-service tests: tiny products/fields."""

import asyncio

import numpy as np
import pytest

from repro.realtime.products import CandidateScore, ForecastProduct


def make_product(cycle_index: int = 0) -> ForecastProduct:
    """A small, fully-populated product bulletin."""
    return ForecastProduct(
        cycle_index=cycle_index,
        nowcast_time=3600.0 * (cycle_index + 1),
        selected="central",
        scores=(
            CandidateScore(label="central", weighted_rmse=0.42),
            CandidateScore(label="ensemble-mean", weighted_rmse=0.57),
        ),
        sst_mean=12.5,
        sst_min=9.75,
        sst_max=15.25,
        sst_sigma_median=0.31,
        ensemble_size=16,
        converged=True,
    )


def make_field(seed: int = 0, shape=(20, 24)) -> np.ndarray:
    """A seeded 2-D field with a NaN 'land' corner."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal(shape)
    field[:3, :3] = np.nan
    return field


@pytest.fixture()
def product():
    """One product bulletin."""
    return make_product()


@pytest.fixture()
def field():
    """One masked 2-D field."""
    return make_field()


async def exchange(server, *chunks, eof=False, abort=False, patience=2.0):
    """Send raw bytes to ``server`` on a fresh connection (a pause after each
    chunk lets it see them apart); everything it answers until it closes.

    ``patience`` bounds the wait: a server that neither answers nor closes
    fails the test instead of hanging it.  None if the connection was reset
    (the server closed while bytes were still arriving); ``abort`` drops the
    connection right after sending, reading nothing.
    """
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        for chunk in chunks:
            writer.write(chunk)
            await asyncio.sleep(0.003)
        if abort:
            writer.transport.abort()
            return b""
        if eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), patience)
    except ConnectionError:
        return None
    finally:
        writer.close()
