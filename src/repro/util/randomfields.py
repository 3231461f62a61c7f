"""Spatially correlated Gaussian random fields.

ESSE perturbs initial conditions with *smooth* random fields (dominant error
modes plus correlated residuals) and forces the stochastic ocean model with
noise that is white in time but correlated in space (Sec 3.1: state
augmentation turns time/space-correlated model error into intermediary
Wiener processes).  Such a field is white noise passed through a Gaussian
spectral filter ``exp(-(k L)^2 / 2)`` on the periodic grid and scaled to
unit pointwise variance.

The filter is separable, ``g(ky) g(kx)``, so the field's covariance is the
Kronecker product of two 1-D circulant factors and the field itself is
``Y^T Z X``: ``Z`` a small block of white coefficients, ``Y (dy x ny)`` and
``X (dx x nx)`` the real cos / sin eigenvectors of the factors scaled by
``g``.  Each basis keeps the leading wavenumbers that carry
``AXIS_VARIANCE`` of its axis' variance (so the product keeps at least
``1 - 1e-9``) and is rescaled to unit pointwise variance.  A draw therefore
costs ``dy dx`` deviates and two small matrix products per field -- 121
deviates instead of 896 on the 28 x 32 grid at ``L = 4`` -- and white noise
(``L = 0``) is the same formula with full orthonormal bases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.util.rng import SeedSequenceStream

# Share of an axis' variance its retained wavenumbers must carry.
AXIS_VARIANCE = 1.0 - 5e-10


@lru_cache(maxsize=64)
def _axis_basis(n: int, length_scale: float) -> np.ndarray:
    """Scaled real eigenvectors ``(d, n)`` of one axis' circulant factor.

    Rows are ``1, cos(k j), sin(k j), ..., (-1)^j`` for ``k = 2 pi m / n``
    in order of rising ``m``, each scaled so that ``B^T B`` is the factor's
    covariance with unit diagonal.  Wavenumbers are kept whole
    (cos with sin), which is what makes the diagonal uniform.  Cached and
    read-only: a forcing object is built per run, the basis per grid.
    """
    m = np.arange(n // 2 + 1)
    k = 2.0 * np.pi * m / n
    j = np.arange(n)
    # variance per wavenumber: both signs of k except at 0 and Nyquist
    paired = (m > 0) & (2 * m < n)
    variance = np.exp(-((k * length_scale) ** 2)) * np.where(paired, 2.0, 1.0)
    share = np.cumsum(variance) / variance.sum()
    keep = int(np.searchsorted(share, AXIS_VARIANCE)) + 1
    amplitude = np.sqrt(variance[:keep] / variance[:keep].sum())
    rows = []
    for mi in range(keep):
        rows.append(amplitude[mi] * np.cos(k[mi] * j))
        if paired[mi]:
            rows.append(amplitude[mi] * np.sin(k[mi] * j))
    basis = np.array(rows)
    basis.flags.writeable = False
    return basis


class GaussianRandomField2D:
    """Homogeneous Gaussian random fields on a periodic 2-D grid.

    Parameters
    ----------
    shape:
        Grid shape ``(ny, nx)``.
    length_scale:
        Correlation length in *grid cells*; the spectral filter is
        ``exp(-(k * L)^2 / 2)``.  ``0`` yields white noise.
    rng:
        The generator every draw uses.  Without one, the field uses a
        deterministic :class:`~repro.util.rng.SeedSequenceStream` stream so
        repeat runs draw identical fields.

    Notes
    -----
    Fields are normalized so that each point has (ensemble) variance 1;
    callers scale by physical standard deviations.  The periodic wrap is
    acceptable because the ocean domain is masked by land well inside the
    array bounds.  ``bases`` is the pair ``(Y, X)`` and ``coefficient_shape``
    the shape ``(dy, dx)`` of the white block one field is made from.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        length_scale: float,
        rng: np.random.Generator | None = None,
    ):
        ny, nx = shape
        if ny < 1 or nx < 1:
            raise ValueError(f"shape must be positive, got {shape}")
        if length_scale < 0:
            raise ValueError(f"length_scale must be >= 0, got {length_scale}")
        self.shape = (int(ny), int(nx))
        self.length_scale = float(length_scale)
        if rng is None:
            rng = SeedSequenceStream(0).rng("util", "randomfields")
        self._rng = rng
        self.bases = tuple(_axis_basis(n, self.length_scale) for n in self.shape)
        self.coefficient_shape = tuple(len(basis) for basis in self.bases)

    def synthesize(self, coefficients: np.ndarray) -> np.ndarray:
        """Map white coefficient blocks ``(..., dy, dx)`` to fields ``(..., ny, nx)``.

        ``Y^T Z X`` per block.  ``np.matmul`` runs one product of the same
        shape per block whatever the leading axes are, so a block alone
        gives bit for bit its slice of a batch (a single flat product over
        the batch does not, on OpenBLAS).
        """
        y, x = self.bases
        if coefficients.shape[-2:] != self.coefficient_shape:
            raise ValueError(
                f"coefficient block {coefficients.shape} incompatible with "
                f"{self.coefficient_shape}"
            )
        return np.matmul(y.T, np.matmul(coefficients, x))

    def sample(self) -> np.ndarray:
        """Draw one field of shape ``(ny, nx)`` with unit variance."""
        return self.synthesize(self._rng.standard_normal(self.coefficient_shape))

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` independent fields, shape ``(count, ny, nx)``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self.synthesize(self._rng.standard_normal((count, *self.coefficient_shape)))
