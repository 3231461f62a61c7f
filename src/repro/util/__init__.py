"""Shared utilities: truncated SVDs, RNG streams, random fields."""

from repro.util.linalg import (
    truncated_svd,
    orthonormal_columns,
)
from repro.util.rng import SeedSequenceStream, member_rng
from repro.util.randomfields import GaussianRandomField2D

__all__ = [
    "truncated_svd",
    "orthonormal_columns",
    "SeedSequenceStream",
    "member_rng",
    "GaussianRandomField2D",
]
