"""Public-API surface checks: the names the README and examples import."""


class TestPublicAPISurface:
    """The names the README and examples rely on must stay exported."""

    def test_core_surface(self):
        import repro.core as core

        for name in (
            "ESSEConfig", "ESSEDriver", "ErrorSubspace", "ESSEAnalysis",
            "PerturbationGenerator", "synthetic_initial_subspace",
            "similarity_coefficient", "crps",
            "verify_ensemble",
        ):
            assert name in core.__all__, name
            assert hasattr(core, name), name

    def test_sched_surface(self):
        import repro.sched as sched

        for name in (
            "Simulator", "EnsembleCampaign", "mseas_cluster",
            "TERAGRID_SITES", "EC2_INSTANCE_TYPES", "EC2CostModel",
            "simulate_output_return",
        ):
            assert name in sched.__all__, name
            assert hasattr(sched, name), name

    def test_workflow_surface(self):
        import repro.workflow as workflow

        for name in (
            "SerialESSEWorkflow", "ParallelESSEWorkflow", "StatusDirectory",
            "MemmapCovarianceStore", "CancellationPolicy",
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
