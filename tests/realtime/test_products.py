"""Tests for forecast scoring, selection and the bulletin product."""

import numpy as np
import pytest

from repro.core import ESSEConfig, ESSEDriver, synthetic_initial_subspace
from repro.obs.network import aosn2_network
from repro.realtime.products import (
    CandidateScore,
    ForecastProduct,
    generate_product,
    score_candidates,
)


@pytest.fixture(scope="module")
def product_setup(small_model, spun_up_state):
    model = small_model
    layout = model.layout
    subspace = synthetic_initial_subspace(
        layout, model.grid.shape2d, model.grid.nz, rank=8, seed=2
    )
    driver = ESSEDriver(
        model,
        ESSEConfig(
            initial_ensemble_size=6,
            max_ensemble_size=12,
            convergence_tolerance=0.9,
            max_subspace_rank=8,
        ),
        root_seed=11,
    )
    duration = 6 * model.config.dt
    forecast = driver.forecast(spun_up_state, subspace, duration=duration)
    # verification batch sampled from the (clean) evolved background itself
    verification = model.run(spun_up_state, duration)
    network = aosn2_network(model.grid, layout, rng=np.random.default_rng(3))
    batch = network.observe(verification)
    return model, forecast, batch


class TestScoring:
    def test_perfect_candidate_wins(self, product_setup):
        model, forecast, batch = product_setup
        truth_vec = None
        # reconstruct the verification state vector via a fresh clean run
        central = model.to_vector(forecast.central)
        candidates = {
            "central": central,
            "corrupted": central + 5.0,
        }
        scores = score_candidates(candidates, batch.operator)
        assert scores[0].label == "central"
        assert scores[0].weighted_rmse < scores[1].weighted_rmse

    def test_requires_candidates(self, product_setup):
        _, _, batch = product_setup
        with pytest.raises(ValueError, match="at least one"):
            score_candidates({}, batch.operator)

    def test_score_validation(self):
        with pytest.raises(ValueError):
            CandidateScore(label="x", weighted_rmse=-1.0)


class _StubOperator:
    """A tiny (H, R, y) stand-in observing the state vector directly."""

    def __init__(self, values, noise_var):
        self.values = np.asarray(values, dtype=float)
        self.noise_var = np.asarray(noise_var, dtype=float)

    def innovation(self, state_vector):
        return self.values - np.asarray(state_vector, dtype=float)


class TestScoringEdgeCases:
    def test_single_candidate(self):
        operator = _StubOperator([1.0, 2.0], [0.25, 0.25])
        scores = score_candidates({"only": np.array([1.0, 2.0])}, operator)
        assert [s.label for s in scores] == ["only"]
        assert scores[0].weighted_rmse == 0.0

    def test_exact_ties_order_by_label(self):
        operator = _StubOperator([0.0, 0.0], [1.0, 1.0])
        tied = np.array([1.0, 1.0])
        forward = score_candidates({"zeta": tied, "alpha": tied.copy()}, operator)
        reverse = score_candidates({"alpha": tied.copy(), "zeta": tied}, operator)
        assert [s.label for s in forward] == ["alpha", "zeta"]
        assert [s.label for s in forward] == [s.label for s in reverse]
        assert forward[0].weighted_rmse == forward[1].weighted_rmse

    def test_near_zero_noise_var_stays_finite(self):
        operator = _StubOperator([1.0], [1e-12])
        scores = score_candidates(
            {"exact": np.array([1.0]), "off": np.array([2.0])}, operator
        )
        assert scores[0].label == "exact"
        assert scores[0].weighted_rmse == 0.0
        assert scores[1].weighted_rmse == pytest.approx(1e6)
        assert np.isfinite(scores[1].weighted_rmse)

    def test_near_zero_noise_dominates_mixed_batch(self):
        # matching the tiny-noise instrument wins even while badly missing
        # the noisy one -- the weighting is what selection is about
        operator = _StubOperator([0.0, 0.0], [1e-10, 100.0])
        close_on_precise = np.array([1e-4, 5.0])
        close_on_noisy = np.array([1.0, 0.0])
        scores = score_candidates(
            {"precise": close_on_precise, "noisy": close_on_noisy}, operator
        )
        assert scores[0].label == "precise"


class TestSerialization:
    def test_candidate_score_round_trip(self):
        score = CandidateScore(label="central", weighted_rmse=0.123456789)
        assert CandidateScore.from_dict(score.to_dict()) == score

    def test_product_round_trip_through_json(self, product_setup):
        import json

        model, forecast, batch = product_setup
        product = generate_product(model, forecast, batch.operator, cycle_index=3)
        wire = json.loads(json.dumps(product.to_dict()))
        assert ForecastProduct.from_dict(wire) == product

    def test_round_trip_preserves_ranking_and_render(self, product_setup):
        model, forecast, batch = product_setup
        product = generate_product(model, forecast, batch.operator)
        back = ForecastProduct.from_dict(product.to_dict())
        assert [s.label for s in back.scores] == [s.label for s in product.scores]
        assert back.render() == product.render()


class TestProduct:
    def test_standard_candidates_present(self, product_setup):
        model, forecast, batch = product_setup
        product = generate_product(model, forecast, batch.operator, cycle_index=2)
        labels = {s.label for s in product.scores}
        assert {"central", "ensemble-mean"} <= labels
        assert product.selected in labels
        assert product.cycle_index == 2

    def test_field_summary_sane(self, product_setup):
        model, forecast, batch = product_setup
        product = generate_product(model, forecast, batch.operator)
        assert product.sst_min <= product.sst_mean <= product.sst_max
        assert 0.0 < product.sst_sigma_median < 5.0
        assert product.ensemble_size == forecast.ensemble_size

    def test_render_bulletin(self, product_setup):
        model, forecast, batch = product_setup
        text = generate_product(model, forecast, batch.operator).render()
        assert "ESSE forecast bulletin" in text
        assert "candidate ranking" in text
        assert "SST" in text
