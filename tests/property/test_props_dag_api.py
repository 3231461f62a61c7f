"""Properties of the workflow DAG analysis + public-API surface checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workflow.dag import (
    analyse,
    build_parallel_esse_dag,
    build_serial_esse_dag,
)


durations_strategy = st.fixed_dictionaries(
    {
        "pert": st.floats(0.1, 100.0),
        "pemodel": st.floats(1.0, 5000.0),
        "diff": st.floats(0.1, 50.0),
        "svd": st.floats(0.1, 500.0),
        "conv": st.floats(0.1, 10.0),
    }
)


class TestDagProperties:
    @given(st.integers(1, 40), durations_strategy)
    @settings(max_examples=40, deadline=None)
    def test_span_never_exceeds_work(self, n, durations):
        for builder in (build_serial_esse_dag, build_parallel_esse_dag):
            a = analyse(builder(n), durations)
            assert a.critical_path <= a.total_work + 1e-9
            assert a.average_parallelism >= 1.0 - 1e-12

    @given(st.integers(2, 40), durations_strategy)
    @settings(max_examples=40, deadline=None)
    def test_decoupling_never_lengthens_the_span(self, n, durations):
        """Fig 4's graph is a subset of Fig 3's constraints: its span can
        only be shorter or equal."""
        serial = analyse(build_serial_esse_dag(n), durations)
        parallel = analyse(build_parallel_esse_dag(n), durations)
        assert parallel.critical_path <= serial.critical_path + 1e-9
        assert parallel.total_work == pytest.approx(serial.total_work)

    @given(st.integers(1, 30), durations_strategy, st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_brents_bound_consistent(self, n, durations, workers):
        a = analyse(build_parallel_esse_dag(n), durations)
        bound = a.makespan_lower_bound(workers)
        assert bound >= a.critical_path - 1e-9
        assert bound >= a.total_work / workers - 1e-9


class TestPublicAPISurface:
    """The names the README and examples rely on must stay exported."""

    def test_core_surface(self):
        import repro.core as core

        for name in (
            "ESSEConfig", "ESSEDriver", "ErrorSubspace", "ESSEAnalysis",
            "PerturbationGenerator", "synthetic_initial_subspace",
            "similarity_coefficient", "ESSESmoother", "crps",
            "verify_ensemble",
        ):
            assert name in core.__all__, name
            assert hasattr(core, name), name

    def test_sched_surface(self):
        import repro.sched as sched

        for name in (
            "Simulator", "EnsembleCampaign", "mseas_cluster",
            "TERAGRID_SITES", "EC2_INSTANCE_TYPES", "EC2CostModel",
            "federate", "ElasticEC2Pool", "simulate_output_return",
        ):
            assert name in sched.__all__, name
            assert hasattr(sched, name), name

    def test_workflow_surface(self):
        import repro.workflow as workflow

        for name in (
            "SerialESSEWorkflow", "ParallelESSEWorkflow", "StatusDirectory",
            "MemmapCovarianceStore", "CancellationPolicy", "ProgressMonitor",
        ):
            assert name in workflow.__all__, name

    def test_other_surfaces(self):
        import repro.acoustics as ac
        import repro.obs as obs
        import repro.realtime as rt
        from repro.config import ExperimentConfig  # noqa: F401

        assert "transmission_loss" in ac.__all__
        assert "coupled_uncertainty_modes" in ac.__all__
        assert "aosn2_network" in obs.__all__
        assert "suggest_sampling_locations" in obs.__all__
        assert "ExperimentTimeline" in rt.__all__
        assert "generate_product" in rt.__all__
