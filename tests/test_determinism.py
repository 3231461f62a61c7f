"""Bit-identical repeat runs: RNG fallbacks, and the whole realtime cycle.

Every former ``np.random.default_rng()`` fallback now derives from a keyed
:class:`repro.util.rng.SeedSequenceStream`, so default-constructed objects
must reproduce exactly across independent constructions -- the property the
REP001 lint rule guards statically, asserted here dynamically.

The replay classes compare whole runs: one fixed-seed realtime cycle must
publish the same bytes whatever ``engine.batch_size`` the driver steps its
ensemble with, and every client of the one stage loop,
:func:`repro.core.ensemble.grow_ensemble` -- the driver, the engine, the Fig 3
shepherd and the Fig 4 pipeline on threads and on processes -- must agree.
"""

import hashlib

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.core import (
    ESSEDriver,
    EnsembleRunner,
    PerturbationGenerator,
    similarity_coefficient,
    synthetic_initial_subspace,
)
from repro.obs.network import aosn2_network
from repro.ocean.stochastic import StochasticForcing
from repro.products.store import CycleProductPublisher, ProductStore
from repro.realtime import RealTimeForecastCycle
from repro.util.linalg import randomized_svd
from repro.util.randomfields import GaussianRandomField2D
from repro.workflow import EnsembleEngine, ParallelESSEWorkflow, SerialESSEWorkflow


class TestDefaultStreamRepeatability:
    def test_observation_network_fallback_repeats(self, small_model):
        grid, layout = small_model.grid, small_model.layout
        first = aosn2_network(grid, layout).rng.standard_normal(16)
        second = aosn2_network(grid, layout).rng.standard_normal(16)
        assert np.array_equal(first, second)

    def test_randomized_svd_fallback_repeats(self):
        a = np.random.default_rng(7).standard_normal((40, 24))
        u1, s1, vt1 = randomized_svd(a, rank=4)
        u2, s2, vt2 = randomized_svd(a, rank=4)
        assert np.array_equal(u1, u2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(vt1, vt2)

    def test_random_field_fallback_repeats(self):
        first = GaussianRandomField2D((12, 10), 2.0).sample()
        second = GaussianRandomField2D((12, 10), 2.0).sample()
        assert np.array_equal(first, second)

    def test_stochastic_forcing_fallback_repeats(self, small_grid):
        first = StochasticForcing(small_grid).increments(400.0)
        second = StochasticForcing(small_grid).increments(400.0)
        assert np.array_equal(first, second)


# -- whole-run replay ---------------------------------------------------------

BOMB = 13  # the member index whose initial state is made to blow up


def replay_config() -> ExperimentConfig:
    """A 2-period, N = 10 -> 20 experiment."""
    document = {
        "domain": {"nx": 16, "ny": 14, "nz": 3},
        "esse": {
            "initial_ensemble_size": 10,
            "max_ensemble_size": 20,
            "convergence_tolerance": 0.99999,  # out of reach: all 20 run
            "max_subspace_rank": 8,
            "root_seed": 3,
        },
        "observations": {"seed": 3},
        "timeline": {"period_hours": 3.0, "n_periods": 2},
    }
    return ExperimentConfig.from_dict(document)


def build_replay_case():
    """Model, spun-up background, initial subspace and twin truth."""
    model = replay_config().build_model()
    background = model.run(model.rest_state(), 86400.0)
    subspace = synthetic_initial_subspace(
        model.layout, model.grid.shape2d, model.grid.nz, rank=8, seed=3
    )
    truth = model.from_vector(
        PerturbationGenerator(model.layout, subspace, root_seed=99).member_state(
            model.to_vector(background), 0
        ),
        time=background.time,
    )
    return model, background, subspace, truth


@pytest.fixture(scope="module")
def replay_case():
    """One :func:`build_replay_case` shared by the module's replay classes."""
    return build_replay_case()


def run_cycle(case, workdir, batch_size, bomb=None):
    """One fixed-seed published cycle; everything a replay must reproduce.

    ``batch_size`` None keeps the driver's default.
    """
    model, background, subspace, truth = case
    config = replay_config()
    driver = config.build_driver(model)
    if batch_size is not None:
        driver = ESSEDriver(
            model,
            driver.config,
            root_seed=driver.root_seed,
            analysis=driver.analysis,
            batch_size=batch_size,
        )
    store = ProductStore(workdir, tile_size=4, levels=2)
    publisher = CycleProductPublisher(store, model)
    forecasts = []

    def hook(product, forecast):
        forecasts.append(forecast)
        return publisher(product, forecast)

    member_state = PerturbationGenerator.member_state

    def planted(self, mean, member_index):
        state = member_state(self, mean, member_index)
        return state * 1e9 if member_index == bomb else state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PerturbationGenerator, "member_state", planted)
        records, _, final_subspace = RealTimeForecastCycle(
            driver,
            model.with_noise(
                StochasticForcing(model.grid, rng=np.random.default_rng(55))
            ),
            config.build_network(model),
            config.build_timeline(t0=background.time),
            product_hook=hook,
        ).run(background, truth, subspace)
    payloads = [
        hashlib.sha256((path / "snapshot").read_bytes()).hexdigest()
        for path in sorted(workdir.glob("v*"))
    ]
    return records, forecasts, final_subspace, payloads


class TestCycleReplayAcrossBatchSizes:
    """Stepping members 1, 3 or 8 at a time is invisible in every output."""

    @pytest.fixture(scope="class")
    def runs(self, replay_case, tmp_path_factory):
        return {
            size: run_cycle(
                replay_case, tmp_path_factory.mktemp(f"batch{size}"), size, bomb=BOMB
            )
            for size in (1, 3, None)
        }

    def test_default_batch_size_is_the_engine_section_default(self, replay_case):
        assert replay_config().build_driver(replay_case[0]).batch_size == 8

    @pytest.mark.parametrize("size", [1, 3])
    def test_outputs_bit_identical(self, runs, size):
        records, forecasts, subspace, payloads = runs[size]
        ref_records, ref_forecasts, ref_subspace, ref_payloads = runs[None]
        assert records == ref_records  # dataclass equality: exact floats
        assert len(records) == 2
        for fc, ref in zip(forecasts, ref_forecasts, strict=True):
            assert fc.member_ids == ref.member_ids
            assert fc.failed_members == ref.failed_members
            assert fc.convergence_history == ref.convergence_history
            assert np.array_equal(fc.member_forecasts, ref.member_forecasts)
            assert np.array_equal(fc.subspace.modes, ref.subspace.modes)
        assert np.array_equal(subspace.modes, ref_subspace.modes)
        assert np.array_equal(subspace.sigmas, ref_subspace.sigmas)
        assert payloads == ref_payloads and len(payloads) == 2

    @pytest.mark.parametrize("size", [1, 3, None])
    def test_blown_up_member_is_isolated(self, runs, size):
        for fc in runs[size][1]:
            assert fc.failed_members == (BOMB,)
            assert fc.member_ids == tuple(i for i in range(20) if i != BOMB)
            assert fc.ensemble_size == 19

    def test_survivors_equal_the_clean_run(self, runs, replay_case, tmp_path):
        """The bomb's batch siblings are bitwise what a run without it steps."""
        _, clean, _, _ = run_cycle(replay_case, tmp_path, None)
        first, bombed = clean[0], runs[None][1][0]
        assert first.failed_members == () and first.ensemble_size == 20
        keep = [i for i in first.member_ids if i != BOMB]
        assert np.array_equal(first.member_forecasts[keep], bombed.member_forecasts)


class TestOneLoopTwoSinks:
    """Driver (in-memory sink) and engine (memmap sink) run the same loop."""

    def test_driver_and_batched_engine_agree(self, replay_case, tmp_path):
        model, background, subspace, _ = replay_case
        config = replay_config()
        duration = 3 * 3600.0
        fc = config.build_driver(model).forecast(background, subspace, duration)
        runner = EnsembleRunner(
            model,
            PerturbationGenerator(model.layout, subspace, root_seed=3),
            duration,
            root_seed=3,
        )
        result = config.build_engine(runner, tmp_path / "engine").run(background)
        # Same members, same loop; the engine factors the column-major
        # memmap snapshot, so BLAS sums in another order: equal to round-off.
        (count, rho), = result.convergence_history
        assert [(count, pytest.approx(rho, abs=1e-12))] == list(fc.convergence_history)
        assert result.member_ids == fc.member_ids
        assert similarity_coefficient(result.subspace, fc.subspace) >= 1 - 1e-12


class TestReplayMatrix:
    """Every staged route runs the same members to the same subspace.

    Convergence is out of reach, so each route grows to all 20 members and
    ends on the SVD of the same 20 columns, signs oriented.  The similarity
    trace on the way is not compared for Fig 4: its pool runs ahead of the
    stage being grown, so its first check factors however many members
    had arrived by then.  Where two routes factor the same column order
    from the same memory layout they agree bit for bit: the driver and
    Fig 3 (in-memory columns, the Fig 3 file a copy of them).  The engine
    factors the published memmap, where BLAS sums in another order, and
    the Fig 4 pipeline folds in completion order, which permutes the Gram
    matrix: those agree to :attr:`TOLERANCE` (measured 6e-14 on the
    modes).
    """

    #: Stated tolerance, relative to each quantity's largest magnitude.
    TOLERANCE = 1e-10
    DURATION = 3 * 3600.0
    BIT_IDENTICAL = (("driver", "fig3"),)

    @pytest.fixture(scope="class")
    def routes(self, replay_case, tmp_path_factory):
        model, background, subspace, _ = replay_case
        config = replay_config()
        esse = config.esse.build()
        runner = EnsembleRunner(
            model,
            PerturbationGenerator(model.layout, subspace, root_seed=3),
            self.DURATION,
            root_seed=3,
        )
        workdir = tmp_path_factory.mktemp
        fig3 = SerialESSEWorkflow(runner, esse, workdir("fig3"))
        runs = {
            "driver": config.build_driver(model).forecast(
                background, subspace, self.DURATION
            ),
            "fig3": fig3.run(background),
            "fig4_threads": ParallelESSEWorkflow(
                runner, esse, workdir("fig4_threads"), n_workers=2
            ).run(background),
            "fig4_processes": ParallelESSEWorkflow(
                runner, esse, workdir("fig4_processes"), n_workers=2, use_processes=True
            ).run(background),
            "engine_batched": EnsembleEngine(runner, esse, workdir("engine")).run(
                background
            ),
        }
        # Fig 3 keeps its member ids where the paper does: in its one file.
        with np.load(fig3.cov_path) as data:
            fig3_ids = tuple(data["member_ids"].tolist())
        return {
            name: (fig3_ids if name == "fig3" else run.member_ids, run)
            for name, run in runs.items()
        }

    def close(self, got, expected):
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=self.TOLERANCE * np.abs(expected).max()
        )

    @pytest.mark.parametrize(
        "route",
        ["fig3", "fig4_threads", "fig4_processes", "engine_batched"],
    )
    def test_route_agrees_with_the_driver(self, routes, route):
        ids, run = routes[route]
        ref_ids, ref = routes["driver"]
        assert sorted(ids) == sorted(ref_ids) == list(range(20))
        assert run.ensemble_size == 20 and not run.converged
        count, rho = run.convergence_history[-1]
        assert count == 20
        if not route.startswith("fig4"):
            # Fig 4's first check sees whatever its pool ran ahead of stage
            # 1, so its similarity trace is timing's; every other route
            # checks exactly 10 and 20 members.
            assert [(count, pytest.approx(rho, abs=1e-12))] == list(
                ref.convergence_history
            )
        assert run.subspace.rank == ref.subspace.rank
        self.close(run.subspace.sigmas, ref.subspace.sigmas)
        self.close(run.subspace.modes, ref.subspace.modes)  # signs included

    @pytest.mark.parametrize("pair", BIT_IDENTICAL, ids=lambda pair: "=".join(pair))
    def test_same_order_same_layout_is_bit_identical(self, routes, pair):
        (ids, run), (other_ids, other) = (routes[name] for name in pair)
        assert ids == other_ids == tuple(range(20))
        assert run.convergence_history == other.convergence_history
        assert np.array_equal(run.subspace.sigmas, other.subspace.sigmas)
        assert np.array_equal(run.subspace.modes, other.subspace.modes)


class TestCycleReplayAcrossSvdRoutes:
    """A cycle is a function of its covariances, not of the solver.

    Every state-sized SVD of the run -- the synthetic initial subspace and
    each forecast-stage checkpoint -- goes through
    :func:`repro.util.linalg.truncated_svd`, which factors tall input in
    ensemble space.  There is no runtime switch; with the kernel's aspect
    constant patched out of reach the same run takes the LAPACK driver
    everywhere.  The global posterior factors only its ``p x p`` factor,
    by LAPACK on either run.  Both routes sign-orient their modes, so the two runs agree
    period by period *including mode signs* -- which the fixed coefficients
    :class:`PerturbationGenerator` multiplies into the modes require.
    """

    #: Stated tolerance, relative to each quantity's largest magnitude.
    TOLERANCE = 1e-10  # measured 3e-13 on the modes after two periods

    @staticmethod
    def build_and_run(workdir):
        """The case is built per route: its initial subspace is an SVD too."""
        case = build_replay_case()
        return case[2], run_cycle(case, workdir, None)

    @pytest.fixture(scope="class")
    def routes(self, tmp_path_factory):
        from repro.core import assimilation, subspace as estimators
        from repro.util import linalg

        calls = {"gram": 0, "lapack": 0, "factor": 0}
        gram_svd, lapack_svd = linalg.gram_svd, linalg.lapack_svd

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                calls[name] += out is not None
                return out

            return wrapper

        runs = {}
        for route, aspect in (("gram", linalg.TALL_ASPECT), ("lapack", np.inf)):
            calls.update(gram=0, lapack=0, factor=0)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "TALL_ASPECT", aspect)
                for module in (linalg, estimators):  # the kernel's two callers
                    patch.setattr(module, "gram_svd", counted("gram", gram_svd))
                    patch.setattr(module, "lapack_svd", counted("lapack", lapack_svd))
                patch.setattr(assimilation, "lapack_svd", counted("factor", lapack_svd))
                runs[route] = self.build_and_run(tmp_path_factory.mktemp(route))
            runs[route] += (dict(calls),)
        return runs

    def test_each_run_took_its_route(self, routes):
        # initial subspace + 2 periods x 2 stage checkpoints; 2 posteriors
        assert routes["gram"][-1] == {"gram": 5, "lapack": 0, "factor": 2}
        assert routes["lapack"][-1] == {"gram": 0, "lapack": 5, "factor": 2}

    def close(self, got, expected):
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=self.TOLERANCE * np.abs(expected).max()
        )

    def test_initial_subspace_agrees_including_sign(self, routes):
        gram, lapack = routes["gram"][0], routes["lapack"][0]
        self.close(gram.sigmas, lapack.sigmas)
        self.close(gram.modes, lapack.modes)

    def test_cycles_agree_period_by_period(self, routes):
        _, (records, forecasts, final, _), _ = routes["gram"]
        _, (ref_records, ref_forecasts, ref_final, _), _ = routes["lapack"]
        assert len(records) == len(ref_records) == 2
        for record, ref in zip(records, ref_records):
            assert record.ensemble_size == ref.ensemble_size
            for name in ("innovation_rms", "analysis_rms", "forecast_error", "analysis_error"):
                assert getattr(record, name) == pytest.approx(
                    getattr(ref, name), rel=self.TOLERANCE
                )
        for fc, ref in zip(forecasts, ref_forecasts, strict=True):
            assert fc.member_ids == ref.member_ids
            self.close(fc.member_forecasts.mean(axis=0), ref.member_forecasts.mean(axis=0))
            self.close(fc.member_forecasts, ref.member_forecasts)
            assert fc.subspace.rank == ref.subspace.rank
            self.close(fc.subspace.sigmas, ref.subspace.sigmas)
            self.close(fc.subspace.modes, ref.subspace.modes)  # signs included
        assert final.rank == ref_final.rank
        self.close(final.sigmas, ref_final.sigmas)
        self.close(final.modes, ref_final.modes)
