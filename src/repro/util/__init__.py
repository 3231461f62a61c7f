"""Shared utilities: thin SVDs, RNG streams, random fields."""

from repro.util.linalg import (
    thin_svd,
    truncated_svd,
    orthonormal_columns,
)
from repro.util.rng import SeedSequenceStream, member_rng
from repro.util.randomfields import GaussianRandomField2D

__all__ = [
    "thin_svd",
    "truncated_svd",
    "orthonormal_columns",
    "SeedSequenceStream",
    "member_rng",
    "GaussianRandomField2D",
]
