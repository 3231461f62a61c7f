"""Unit tests for perturbation generation and the synthetic subspace."""

import numpy as np
import pytest

from repro.core import perturbation
from repro.core.perturbation import (
    PerturbationGenerator,
    synthetic_initial_subspace,
)
from repro.core.state import FieldLayout, FieldSpec
from repro.core.subspace import ErrorSubspace
from repro.util.linalg import orthonormal_columns


@pytest.fixture()
def layout():
    return FieldLayout(
        [
            FieldSpec("eta", (8, 10), scale=2.0),
            FieldSpec("temp", (3, 8, 10), scale=0.5),
        ]
    )


@pytest.fixture()
def subspace(layout):
    return synthetic_initial_subspace(
        layout, shape2d=(8, 10), nz=3, rank=6, seed=0
    )


class TestSyntheticSubspace:
    def test_rank_and_orthonormality(self, subspace):
        assert subspace.rank == 6
        assert orthonormal_columns(subspace.modes)

    def test_sigmas_descending_positive(self, subspace):
        assert np.all(subspace.sigmas > 0)
        assert np.all(np.diff(subspace.sigmas) <= 1e-12)

    def test_deterministic_given_seed(self, layout):
        a = synthetic_initial_subspace(layout, (8, 10), 3, rank=4, seed=3)
        b = synthetic_initial_subspace(layout, (8, 10), 3, rank=4, seed=3)
        assert np.array_equal(a.modes, b.modes)

    def test_different_seed_differs(self, layout):
        a = synthetic_initial_subspace(layout, (8, 10), 3, rank=4, seed=3)
        b = synthetic_initial_subspace(layout, (8, 10), 3, rank=4, seed=4)
        assert not np.allclose(a.modes, b.modes)

    def test_validation(self, layout):
        with pytest.raises(ValueError, match="rank"):
            synthetic_initial_subspace(layout, (8, 10), 3, rank=0)


class TestPerturbationGenerator:
    def test_reproducible_per_index(self, layout, subspace):
        gen = PerturbationGenerator(layout, subspace, root_seed=7)
        assert np.array_equal(gen.perturbation(3), gen.perturbation(3))

    def test_members_distinct(self, layout, subspace):
        gen = PerturbationGenerator(layout, subspace, root_seed=7)
        assert not np.allclose(gen.perturbation(0), gen.perturbation(1))

    def test_independent_of_generation_order(self, layout, subspace):
        gen1 = PerturbationGenerator(layout, subspace, root_seed=7)
        a_then_b = (gen1.perturbation(700), gen1.perturbation(900))
        gen2 = PerturbationGenerator(layout, subspace, root_seed=7)
        b_then_a = (gen2.perturbation(900), gen2.perturbation(700))
        # "perturbation 900 may very well finish before number 700" (paper)
        assert np.array_equal(a_then_b[0], b_then_a[1])
        assert np.array_equal(a_then_b[1], b_then_a[0])

    def test_member_state_adds_to_mean(self, layout, subspace):
        gen = PerturbationGenerator(layout, subspace, root_seed=7)
        mean = np.arange(layout.size, dtype=float)
        state = gen.member_state(mean, 2)
        assert np.allclose(state - mean, gen.perturbation(2))

    def test_zero_residual_stays_in_subspace(self, layout, subspace, monkeypatch):
        monkeypatch.setattr(perturbation, "RESIDUAL_FRACTION", 0.0)
        gen = PerturbationGenerator(layout, subspace, root_seed=7)
        p = layout.normalize(gen.perturbation(1))
        residual = p - subspace.modes @ (subspace.modes.T @ p)
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(p)

    def test_residual_adds_outside_subspace(self, layout, subspace):
        gen = PerturbationGenerator(layout, subspace, root_seed=7)
        p = layout.normalize(gen.perturbation(1))
        residual = p - subspace.modes @ (subspace.modes.T @ p)
        assert np.linalg.norm(residual) > 0.01 * np.linalg.norm(p)

    def test_ensemble_statistics_match_subspace(self, layout, subspace, monkeypatch):
        """The sample covariance of many perturbations ~ E S^2 E^T."""
        monkeypatch.setattr(perturbation, "RESIDUAL_FRACTION", 0.0)
        gen = PerturbationGenerator(layout, subspace, root_seed=11)
        n = 600
        perts = np.stack(
            [layout.normalize(gen.perturbation(j)) for j in range(n)]
        )
        # project onto the subspace: coefficient variances should match
        coeffs = perts @ subspace.modes
        assert np.allclose(coeffs.std(axis=0), subspace.sigmas, rtol=0.2)

    def test_validation(self, layout, subspace):
        small = ErrorSubspace(modes=np.zeros((4, 1)), sigmas=np.ones(1))
        with pytest.raises(ValueError, match="dimension"):
            PerturbationGenerator(layout, small, 0)
        gen = PerturbationGenerator(layout, subspace, 0)
        with pytest.raises(ValueError, match="mean shape"):
            gen.member_state(np.zeros(3), 0)
