"""Kernel costs of the reproduction's own singletons.

The paper's workload economics rest on per-task cost asymmetries: ``pert``
is seconds, ``pemodel`` is half an hour, the SVD "require[s] a lot of
memory and time, especially for large N", and an acoustic singleton is ~3
minutes.  This bench measures the same inventory for *this* implementation
on the full-size AOSN-II domain, verifying the asymmetry survives the
translation (perturbation << model step x steps; SVD grows with N).
"""

import numpy as np
import pytest

from conftest import print_table
from record import record_bench
from repro.acoustics import extract_section, transmission_loss
from repro.core import (
    ESSEAnalysis,
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.obs.network import aosn2_network
from repro.ocean import PEModel
from repro.util.linalg import thin_svd


@pytest.fixture(scope="module")
def kernel_results():
    """Accumulates per-kernel mean timings; written as BENCH_kernels.json."""
    results = {}
    yield results
    if results:
        record_bench("kernels", results)


@pytest.fixture(scope="module")
def full_domain():
    model = PEModel()  # the 42x36x10 AOSN-II-like default
    background = model.run(model.rest_state(), 20 * model.config.dt)
    subspace = synthetic_initial_subspace(
        model.layout, model.grid.shape2d, model.grid.nz, rank=30, seed=0
    )
    return model, background, subspace


def test_kernel_model_step(benchmark, full_domain, kernel_results):
    """One pemodel time step on the full domain."""
    model, background, _ = full_domain
    state = background

    def step():
        return model.step(state)

    benchmark(step)
    per_step = benchmark.stats.stats.mean
    kernel_results["model_step_s"] = per_step
    steps_per_day = int(86400 / model.config.dt)
    print_table(
        "Kernel: pemodel step (42x36x10 domain)",
        ["per step", "per model-day", "state dim"],
        [[f"{1e3 * per_step:.2f} ms", f"{per_step * steps_per_day:.2f} s",
          model.layout.size]],
    )
    assert per_step < 0.1  # a model day stays O(seconds)


def test_kernel_perturbation(benchmark, full_domain, kernel_results):
    """One pert singleton: cheap next to the forecast (paper Table 1)."""
    model, background, subspace = full_domain
    gen = PerturbationGenerator(model.layout, subspace, root_seed=0)
    mean = model.to_vector(background)
    benchmark(lambda: gen.member_state(mean, 7))
    kernel_results["perturbation_s"] = benchmark.stats.stats.mean
    assert benchmark.stats.stats.mean < 0.05


def test_kernel_esse_svd(benchmark, full_domain, kernel_results):
    """The SVD of a 600-member anomaly matrix on the full state."""
    model, _, _ = full_domain
    rng = np.random.default_rng(0)
    anomalies = rng.standard_normal((model.layout.size, 600)) / np.sqrt(599)

    result = benchmark.pedantic(
        lambda: thin_svd(anomalies), rounds=2, iterations=1
    )
    u, s, _ = result
    kernel_results["esse_svd_600_s"] = benchmark.stats.stats.mean
    print_table(
        "Kernel: ESSE SVD (n x N thin SVD)",
        ["n", "N", "time"],
        [[model.layout.size, 600, f"{benchmark.stats.stats.mean:.2f} s"]],
    )
    assert u.shape == (model.layout.size, 600)
    assert np.all(np.diff(s) <= 1e-12)


def test_kernel_acoustic_singleton(benchmark, full_domain, kernel_results):
    """One acoustic-climate task (section + normal-mode TL)."""
    model, background, _ = full_domain
    grid = model.grid
    lx, ly = grid.nx * grid.dx, grid.ny * grid.dy

    def singleton():
        section = extract_section(
            grid, background, (0.6 * lx, 0.5 * ly), (0.1 * lx, 0.5 * ly),
            n_ranges=16, max_depth=300.0,
        )
        return transmission_loss(section, 200.0, source_depth=30.0)

    field = benchmark.pedantic(singleton, rounds=3, iterations=1)
    kernel_results["acoustic_singleton_s"] = benchmark.stats.stats.mean
    assert np.all(np.isfinite(field.tl))
    assert benchmark.stats.stats.mean < 5.0


def test_kernel_analysis_update(benchmark, full_domain, kernel_results):
    """The (global) analysis update with a realistic observation batch."""
    model, background, subspace = full_domain
    network = aosn2_network(
        model.grid, model.layout, rng=np.random.default_rng(1)
    )
    batch = network.observe(background)
    analysis = ESSEAnalysis(model.layout)
    x = model.to_vector(background)

    result = benchmark.pedantic(
        lambda: analysis.update(x, subspace, batch.operator),
        rounds=3,
        iterations=1,
    )
    kernel_results["analysis_update_s"] = benchmark.stats.stats.mean
    print_table(
        "Kernel: ESSE analysis (information form, m obs x p modes)",
        ["m", "p", "time"],
        [[batch.size, subspace.rank, f"{1e3 * benchmark.stats.stats.mean:.1f} ms"]],
    )
    assert result.subspace.rank <= subspace.rank
    assert benchmark.stats.stats.mean < 2.0
