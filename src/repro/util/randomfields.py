"""Spatially correlated Gaussian random fields.

ESSE perturbs initial conditions with *smooth* random fields (dominant error
modes plus correlated "white-noise" residuals) and forces the stochastic
ocean model with noise that is white in time but correlated in space
(Sec 3.1: state augmentation turns time/space-correlated model error into
intermediary Wiener processes).  We synthesize such fields spectrally: draw
white noise on the grid, filter it with a Gaussian kernel in Fourier space,
and normalize to unit pointwise variance.

The FFT route costs O(nx ny log(nx ny)) per draw and vectorizes over the
grid, which keeps per-member perturbation cost negligible next to the model
integration (the same balance the paper reports between ``pert`` seconds and
``pemodel`` half-hours).
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import SeedSequenceStream


class GaussianRandomField2D:
    """Homogeneous Gaussian random fields on a periodic 2-D grid.

    Parameters
    ----------
    shape:
        Grid shape ``(ny, nx)``.
    length_scale:
        Correlation length in *grid cells*; the spectral filter is
        ``exp(-(k * L)^2 / 2)``.  ``0`` yields white noise.
    seed / rng:
        Either a seed for an internal generator or an external generator
        (pass at most one).  With neither, the field uses a deterministic
        :class:`~repro.util.rng.SeedSequenceStream` stream so repeat runs
        draw identical fields.

    Notes
    -----
    Fields are normalized so that each point has (ensemble) variance 1;
    callers scale by physical standard deviations.  The periodic wrap is
    acceptable because the ocean domain is masked by land well inside the
    array bounds.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        length_scale: float,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ):
        ny, nx = shape
        if ny < 1 or nx < 1:
            raise ValueError(f"shape must be positive, got {shape}")
        if length_scale < 0:
            raise ValueError(f"length_scale must be >= 0, got {length_scale}")
        if rng is not None and seed is not None:
            raise ValueError("pass at most one of rng= and seed=")
        self.shape = (int(ny), int(nx))
        self.length_scale = float(length_scale)
        if rng is not None:
            self._rng = rng
        elif seed is not None:
            self._rng = np.random.default_rng(seed)
        else:
            self._rng = SeedSequenceStream(0).rng("util", "randomfields")
        self._filter = self._build_filter()

    def _build_filter(self) -> np.ndarray:
        """Normalized filter on the half spectrum ``rfft2`` returns."""
        ny, nx = self.shape
        ky = np.fft.fftfreq(ny)[:, None] * 2.0 * np.pi
        kx = np.fft.fftfreq(nx)[None, :] * 2.0 * np.pi
        k2 = ky**2 + kx**2
        filt = np.exp(-0.5 * k2 * self.length_scale**2)
        # Normalize so the synthesized field has unit pointwise variance:
        # var = mean(|filter|^2) over all wavenumbers.
        norm = np.sqrt(np.mean(filt**2))
        if norm == 0.0:
            raise RuntimeError("degenerate spectral filter")
        return filt[:, : nx // 2 + 1] / norm

    def filter_white(self, white: np.ndarray) -> np.ndarray:
        """Spectrally filter externally drawn white noise into smooth fields.

        ``white`` is standard-normal noise whose trailing two axes match
        the grid; any leading batch axes are filtered independently by one
        batched ``rfft2`` / ``irfft2`` pair (real noise, symmetric filter:
        half the spectrum is all there is; ``s=`` keeps odd widths exact).
        This is the shared kernel behind :meth:`sample` and
        :meth:`sample_many`, split out so callers that must control the
        *draw order* of the white noise (e.g. the batched ensemble forcing,
        which draws per-member then filters per-batch) produce bit-identical
        fields to the single-draw path: ``numpy``'s pocketfft transforms
        over ``axes=(-2, -1)`` are bit-identical whether or not leading
        batch axes are present.
        """
        white = np.asarray(white)
        if white.shape[-2:] != self.shape:
            raise ValueError(
                f"white noise shape {white.shape} incompatible with grid "
                f"{self.shape}"
            )
        spectrum = np.fft.rfft2(white, axes=(-2, -1))
        spectrum *= self._filter
        return np.fft.irfft2(spectrum, s=self.shape, axes=(-2, -1))

    def sample(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw one field of shape ``(ny, nx)`` with ~unit variance."""
        gen = rng if rng is not None else self._rng
        return self.filter_white(gen.standard_normal(self.shape))

    def sample_many(self, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``count`` independent fields, shape ``(count, ny, nx)``."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        gen = rng if rng is not None else self._rng
        return self.filter_white(gen.standard_normal((count, *self.shape)))
