"""The model's output pinned to recorded numbers.

``test_step_kernel.py`` compares the step with reference formulas that read
the model's own constants, so a constant mistyped in the model would move
both sides.  This file compares a run with numbers recorded once, on the
benchmark's ``cycle_ref`` grid (32 x 28 x 4): each field's sum and sum of
squares after a quiet 200-step run, and after 50 noisy steps of a batch of
eight members started from it.  Any physics constant, the forcing, the noise
amplitudes or their correlation length moving by a part in a thousand fails
here.
"""

import numpy as np
import pytest

from repro.ocean.bathymetry import monterey_grid
from repro.ocean.model import EnsembleState, PEModel
from repro.ocean.stochastic import BatchedStochasticForcing

FIELDS = ("u", "v", "eta", "temp", "salt")

#: ``(sum, sum of squares)`` per field, recorded with the code these tests pin.
QUIET = {
    "u": (-0.1614579552976969, 0.0021100700975787983),
    "v": (-1.0045583184187628, 0.0031366745451122512),
    "eta": (0.339012486455303, 69.92718162783214),
    "temp": (24271.968262663046, 248048.27090110895),
    "salt": (88174.04973083502, 2995072.804299864),
}
NOISY_BATCH = {
    "u": (-1.2831727574518625, 0.3145174143696546),
    "v": (-7.603634721943544, 0.34741108465888215),
    "eta": (191.06109591583692, 2325.402437113198),
    "temp": (194122.91365010096, 1982967.7550478722),
    "salt": (705392.5288814607, 23960591.65635313),
}


@pytest.fixture(scope="module")
def runs():
    model = PEModel(grid=monterey_grid(nx=32, ny=28, nz=4))
    quiet = model.run(model.rest_state(), 200 * model.config.dt)
    noise = BatchedStochasticForcing(
        model.grid, rngs=[np.random.default_rng(seed) for seed in range(8)]
    )
    batch, failed = model.run_ensemble(
        EnsembleState.from_states([quiet] * 8), 50 * model.config.dt, noise=noise
    )
    assert failed == {}
    return {"quiet": (quiet, QUIET), "noisy batch": (batch, NOISY_BATCH)}


@pytest.mark.parametrize("run", ["quiet", "noisy batch"])
@pytest.mark.parametrize("name", FIELDS)
def test_field_moments_match_the_record(runs, run, name):
    state, record = runs[run]
    values = getattr(state, name)
    total, squares = record[name]
    assert values.sum() == pytest.approx(total, rel=1e-10)
    assert (values * values).sum() == pytest.approx(squares, rel=1e-10)
