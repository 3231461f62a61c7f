"""Tests for the declarative experiment configuration."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from repro.config import ConfigError, ExperimentConfig


NAN_FOR_EVERY_FLOAT_KEY = [
    (section.name, key.name, float("nan"))
    for section in fields(ExperimentConfig)
    for key in fields(section.default_factory)
    if key.type == "float"
]

VALID_KEYS = {
    "domain": {"nx", "ny", "nz"},
    "model": {"dt"},
    "esse": {
        "initial_ensemble_size", "max_ensemble_size", "growth_factor",
        "convergence_tolerance", "max_subspace_rank", "root_seed",
    },
    "assimilation": {
        "backend", "tile_ny", "tile_nx", "taper", "radius", "halo", "inflation",
        "inflation_factor", "adaptive_inflation_max", "local_energy_floor",
        "n_workers", "max_attempts",
    },
    "observations": {"seed"},
    "timeline": {"period_hours", "n_periods"},
}

DELETED_KEYS = [
    ("domain", "dx", 3000.0),
    ("domain", "dy", 3000.0),
    ("domain", "max_level_depth", 400.0),
    ("model", "viscosity", 120.0),
    ("model", "diffusivity", 60.0),
    ("timeline", "forecast_horizon_periods", 1),
    ("observations", "network", "aosn2"),
    ("engine", "batch_size", 8),
]


class TestValidation:
    def test_empty_document_uses_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.domain.nx == 42
        assert cfg.esse.max_ensemble_size == 128

    def test_partial_overrides(self):
        cfg = ExperimentConfig.from_dict(
            {"domain": {"nx": 20, "ny": 16, "nz": 3}, "esse": {"root_seed": 7}}
        )
        assert cfg.domain.nx == 20
        assert cfg.esse.root_seed == 7
        assert cfg.model.dt == 400.0  # untouched section keeps defaults

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown sections"):
            ExperimentConfig.from_dict({"oceanography": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict({"domain": {"resolution": 9}})

    @pytest.mark.parametrize(
        "section, key, value",
        DELETED_KEYS,
        ids=[f"{section}-{key}" for section, key, _ in DELETED_KEYS],
    )
    def test_deleted_key_rejected(self, section, key, value):
        """Keys that no example, bench or workload set were deleted; a
        document that still carries one is refused with the valid keys."""
        if section in VALID_KEYS:
            valid = sorted(VALID_KEYS[section])
            match = rf"section '{section}': unknown keys \['{key}'\]; valid: {re.escape(str(valid))}"
        else:
            match = rf"unknown sections \['{section}'\]"
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({section: {key: value}})

    def test_valid_keys_are_the_census_set(self):
        assert {s.name for s in fields(ExperimentConfig)} == set(VALID_KEYS)
        for section in fields(ExperimentConfig):
            keys = {key.name for key in fields(section.default_factory)}
            assert keys == VALID_KEYS[section.name], section.name

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError, match="domain"):
            ExperimentConfig.from_dict({"domain": {"nx": 1}})
        with pytest.raises(ConfigError, match="esse"):
            ExperimentConfig.from_dict({"esse": {"initial_ensemble_size": 1}})
        with pytest.raises(ConfigError, match="model"):
            ExperimentConfig.from_dict({"model": {"dt": -1.0}})
        with pytest.raises(ConfigError, match="timeline"):
            ExperimentConfig.from_dict({"timeline": {"n_periods": 0}})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            *NAN_FOR_EVERY_FLOAT_KEY,
            ("esse", "convergence_tolerance", 1.5),
            ("esse", "convergence_tolerance", -1),
            ("assimilation", "radius", float("inf")),
            ("timeline", "n_periods", 2.5),
            ("domain", "nx", "20"),
            ("esse", "root_seed", -1),
            ("observations", "seed", -3),
        ],
    )
    def test_wrong_type_or_range_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=section):
            ExperimentConfig.from_dict({section: {key: value}})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="dict"):
            ExperimentConfig.from_dict("nx=20")
        with pytest.raises(ConfigError, match="mapping"):
            ExperimentConfig.from_dict({"domain": [1, 2]})


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = ExperimentConfig.from_dict({"domain": {"nx": 24, "ny": 20, "nz": 4}})
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_json_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"esse": {"max_ensemble_size": 64}, "timeline": {"n_periods": 3}}
        )
        path = tmp_path / "experiment.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded == cfg
        # document is valid JSON with explicit defaults
        doc = json.loads(path.read_text())
        assert doc["esse"]["max_ensemble_size"] == 64
        assert doc["domain"]["nx"] == 42

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"domain": {"nx": 0}}')
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)


class TestBuilders:
    @pytest.fixture(scope="class")
    def cfg(self):
        return ExperimentConfig.from_dict(
            {
                "domain": {"nx": 16, "ny": 14, "nz": 3},
                "esse": {"initial_ensemble_size": 4, "max_ensemble_size": 8,
                         "max_subspace_rank": 6, "root_seed": 5},
                "timeline": {"period_hours": 6.0, "n_periods": 2},
            }
        )

    def test_build_model(self, cfg):
        model = cfg.build_model()
        assert (model.grid.ny, model.grid.nx, model.grid.nz) == (14, 16, 3)
        assert model.config.dt == 400.0

    def test_build_driver(self, cfg):
        model = cfg.build_model()
        driver = cfg.build_driver(model)
        assert driver.config.max_ensemble_size == 8
        assert driver.root_seed == 5

    def test_build_network(self, cfg):
        model = cfg.build_model()
        net = cfg.build_network(model)
        assert len(net.instruments) >= 3

    def test_build_timeline(self, cfg):
        tl = cfg.build_timeline(t0=100.0)
        assert tl.n_periods == 2
        assert tl.period_length == 6.0 * 3600.0
        assert tl.t0 == 100.0

    def test_configured_experiment_runs(self, cfg):
        """End to end: the document drives one working forecast."""
        from repro.core import synthetic_initial_subspace

        model = cfg.build_model()
        driver = cfg.build_driver(model)
        background = model.run(model.rest_state(), 4 * model.config.dt)
        subspace = synthetic_initial_subspace(
            model.layout, model.grid.shape2d, model.grid.nz, rank=6, seed=0
        )
        forecast = driver.forecast(
            background, subspace, duration=4 * model.config.dt
        )
        assert forecast.ensemble_size >= 4


class TestEngineSection:
    def test_unknown_backend_rejected(self):
        """There is no engine section: each of its old keys is refused."""
        for key in ("batch_size", "backend", "n_workers"):
            with pytest.raises(ConfigError, match=r"unknown sections \['engine'\]"):
                ExperimentConfig.from_dict({"engine": {key: "batched"}})


class TestAssimilationSection:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        asm = cfg.assimilation
        assert asm.backend == "global"
        assert asm.taper == "gaspari_cohn"
        assert (asm.tile_ny, asm.tile_nx) == (16, 16)
        assert asm.inflation == "multiplicative"

    def test_invalid_values_rejected(self):
        bad = [
            {"backend": "letkf"},
            {"tile_ny": 0},
            {"taper": "boxcar"},
            {"radius": 0.0},
            {"halo": -1.0},
            {"inflation": "relaxation"},
            {"inflation_factor": 0.5},
            {"adaptive_inflation_max": 0.5, "inflation_factor": 1.0},
            {"local_energy_floor": 1.0},
            {"n_workers": 0},
            {"max_attempts": 0},
        ]
        for overrides in bad:
            with pytest.raises(ConfigError, match="assimilation"):
                ExperimentConfig.from_dict({"assimilation": overrides})

    def test_round_trips(self):
        doc = {
            "assimilation": {
                "backend": "tiled",
                "tile_ny": 8,
                "tile_nx": 6,
                "taper": "cutoff",
                "radius": 5.0,
                "local_energy_floor": 0.05,
            }
        }
        cfg = ExperimentConfig.from_dict(doc)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.assimilation == cfg.assimilation

    def test_global_backend_builds_default_analysis(self):
        from repro.core.assimilation import ESSEAnalysis

        cfg = ExperimentConfig.from_dict(
            {"domain": {"nx": 12, "ny": 10, "nz": 2}}
        )
        model = cfg.build_model()
        driver = cfg.build_driver(model)
        assert type(driver.analysis) is ESSEAnalysis
        assert type(cfg.build_analysis(model)) is ESSEAnalysis
        assert driver.analysis.decomposition is None
        assert driver.analysis.taper is None

    @pytest.mark.parametrize("backend", ["global", "tiled"])
    def test_inflation_keys_reach_the_analysis(self, backend):
        """Regression: ``backend: global`` used to drop all three keys.

        ``build_analysis`` returned None for it and the driver fell back
        to ``ESSEConfig.inflation``, which no section sets -- so
        ``inflation_factor: 1.3`` ran at 1.0.
        """
        from repro.core import synthetic_initial_subspace
        from repro.core.localization import AdaptiveInflation
        from repro.obs.operators import Observation, ObservationOperator

        def posterior_sigmas(**assimilation):
            cfg = ExperimentConfig.from_dict(
                {
                    "domain": {"nx": 12, "ny": 10, "nz": 2},
                    "assimilation": {
                        "backend": backend, "tile_ny": 5, "tile_nx": 6,
                        "taper": "none", **assimilation,
                    },
                }
            )
            model = cfg.build_model()
            analysis = cfg.build_driver(model).analysis
            subspace = synthetic_initial_subspace(
                model.layout, model.grid.shape2d, model.grid.nz, rank=4, seed=0
            )
            operator = ObservationOperator(
                model.layout,
                [
                    Observation(field="temp", level=0, j=2, i=3, value=9.0,
                                noise_std=0.5),
                    Observation(field="temp", level=1, j=7, i=9, value=-4.0,
                                noise_std=0.5),
                ],
            )
            result = analysis.update(
                np.zeros(model.layout.size), subspace, operator
            )
            return analysis, result.subspace.sigmas

        _, plain = posterior_sigmas()
        analysis, inflated = posterior_sigmas(inflation_factor=1.3)
        assert analysis.inflation.factor(None, None, None, None) == 1.3
        assert np.all(inflated > plain * 1.01)

        analysis, adaptive = posterior_sigmas(
            inflation="adaptive", inflation_factor=1.1, adaptive_inflation_max=1.7
        )
        assert isinstance(analysis.inflation, AdaptiveInflation)
        assert (analysis.inflation.min_factor, analysis.inflation.max_factor) == (1.1, 1.7)
        assert np.all(adaptive > plain * 1.01)

    def test_tiled_backend_builds_tiled_analysis(self):
        from repro.core.assimilation import TiledESSEAnalysis
        from repro.core.localization import CutoffTaper

        cfg = ExperimentConfig.from_dict(
            {
                "domain": {"nx": 12, "ny": 10, "nz": 2},
                "assimilation": {
                    "backend": "tiled",
                    "tile_ny": 5,
                    "tile_nx": 6,
                    "taper": "cutoff",
                    "radius": 4.0,
                    "halo": 3.0,
                    "n_workers": 2,
                },
            }
        )
        model = cfg.build_model()
        driver = cfg.build_driver(model)
        analysis = driver.analysis
        assert isinstance(analysis, TiledESSEAnalysis)
        assert analysis.decomposition.grid_shape == (10, 12)
        assert analysis.decomposition.tile_shape == (5, 6)
        assert isinstance(analysis.taper, CutoffTaper)
        assert analysis.halo == 3.0

    def test_tiled_driver_assimilates(self):
        """End to end: the tiled backend runs one configured cycle."""
        from repro.core import synthetic_initial_subspace
        from repro.obs.operators import Observation, ObservationOperator

        cfg = ExperimentConfig.from_dict(
            {
                "domain": {"nx": 12, "ny": 10, "nz": 2},
                "esse": {"initial_ensemble_size": 4, "max_ensemble_size": 4,
                         "max_subspace_rank": 4, "root_seed": 3},
                "assimilation": {"backend": "tiled", "tile_ny": 5,
                                 "tile_nx": 6, "radius": 6.0},
            }
        )
        model = cfg.build_model()
        driver = cfg.build_driver(model)
        background = model.run(model.rest_state(), 2 * model.config.dt)
        subspace = synthetic_initial_subspace(
            model.layout, model.grid.shape2d, model.grid.nz, rank=4, seed=0
        )
        forecast = driver.forecast(
            background, subspace, duration=2 * model.config.dt
        )
        operator = ObservationOperator(
            model.layout,
            [
                Observation(field="temp", level=0, j=2, i=3, value=12.0,
                            noise_std=0.5),
                Observation(field="temp", level=1, j=7, i=9, value=11.0,
                            noise_std=0.5),
            ],
        )
        analysis = driver.assimilate(forecast, operator)
        assert analysis.mean.shape == (model.layout.size,)
        assert analysis.subspace.rank >= 1
