"""Distance-based covariance localization and inflation for the ESSE analysis.

A global Kalman update lets every observation touch every state entry,
which both costs O(n p^2) per analysis and lets sampling noise in the
far-field covariances produce spurious increments.  The LETKF line of
work (Ott et al.; see PAPERS.md) fixes both with *domain localization*:
each region assimilates only nearby observations, with the observation
error variance divided by a distance taper so remote data are smoothly
down-weighted ("R-localization").  This module supplies the pieces the
tiled analysis (:class:`repro.core.assimilation.TiledESSEAnalysis`)
composes:

- taper functions (:class:`GaspariCohnTaper`, :class:`CutoffTaper`) with
  distances measured in grid cells,
- per-region observation selection (:func:`select_observations`),
- covariance inflation models (:class:`MultiplicativeInflation`,
  :class:`AdaptiveInflation`) that compensate the sampling error of a
  finite ensemble.

Everything here is pure numpy on small arrays; nothing draws random
numbers or reads clocks.
"""

from __future__ import annotations

import numpy as np

#: Localization weights at or below this are zero: a Gaspari-Cohn weight of
#: 1e-12 would otherwise inflate the local R by 1e12.
MIN_WEIGHT = 1e-10


class GaspariCohnTaper:
    """The Gaspari & Cohn (1999) fifth-order piecewise-rational taper.

    The standard compactly supported correlation function used for
    covariance localization: it is 1 at zero distance, decays like a
    Gaussian of comparable width, and is *exactly* zero beyond the
    support radius -- which is what makes observation selection a hard
    cut rather than a heuristic.

    Parameters
    ----------
    radius:
        Support radius in grid cells: ``weight(d) == 0`` for
        ``d >= radius``.  The polynomial's half-width parameter is
        ``c = radius / 2``.
    """

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError(f"taper radius must be positive, got {radius}")
        self.radius = float(radius)

    def __call__(self, distances: np.ndarray) -> np.ndarray:
        """Taper weights in [0, 1] for distances in grid cells."""
        d = np.asarray(distances, dtype=np.float64)
        c = self.radius / 2.0
        r = d / c
        out = np.zeros_like(r)
        near = r <= 1.0
        far = (r > 1.0) & (r < 2.0)
        rn = r[near]
        out[near] = (
            -0.25 * rn**5 + 0.5 * rn**4 + 0.625 * rn**3 - (5.0 / 3.0) * rn**2 + 1.0
        )
        rf = r[far]
        out[far] = (
            (1.0 / 12.0) * rf**5
            - 0.5 * rf**4
            + 0.625 * rf**3
            + (5.0 / 3.0) * rf**2
            - 5.0 * rf
            + 4.0
            - (2.0 / 3.0) / rf
        )
        return np.clip(out, 0.0, 1.0)


class CutoffTaper:
    """Hard 0/1 localization: weight 1 inside ``radius``, 0 at and beyond.

    The cheapest taper; equivalent to plain observation selection with no
    distance weighting.  Useful as a baseline and for tests where the
    smooth taper would obscure seam behaviour.
    """

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError(f"taper radius must be positive, got {radius}")
        self.radius = float(radius)

    def __call__(self, distances: np.ndarray) -> np.ndarray:
        """Taper weights: 1 where ``d < radius``, else 0."""
        d = np.asarray(distances, dtype=np.float64)
        return np.where(d < self.radius, 1.0, 0.0)


def make_taper(name: str, radius: float):
    """Build a taper by config name: ``gaspari_cohn``, ``cutoff`` or ``none``.

    Returns None for ``"none"`` (no localization: every observation
    reaches every tile with unit weight).
    """
    if name == "none":
        return None
    if name == "gaspari_cohn":
        return GaspariCohnTaper(radius)
    if name == "cutoff":
        return CutoffTaper(radius)
    raise ValueError(
        f"unknown taper {name!r} (have: gaspari_cohn, cutoff, none)"
    )


def observation_coords(operator) -> np.ndarray:
    """Horizontal grid coordinates ``(m, 2)`` of an operator's observations.

    Column 0 is the ``j`` (row) index, column 1 the ``i`` (column) index.
    Depth levels are ignored: localization here is horizontal only, the
    standard LETKF simplification for strongly stratified flows.  The
    array is the operator's own, built once with it, and read-only.
    """
    return operator.coords


def select_observations(
    distances: np.ndarray,
    taper=None,
    cutoff: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Select the observations a region assimilates, with their weights.

    Parameters
    ----------
    distances:
        Distance from each observation to the region, in grid cells.
    taper:
        Optional taper callable; observations keep their taper weight and
        those at (numerically) zero weight are dropped.
    cutoff:
        Optional hard maximum distance applied on top of (or instead of)
        the taper; with neither taper nor cutoff every observation is
        selected at weight 1.  Weights at or below ``MIN_WEIGHT`` are
        treated as zero.

    Returns
    -------
    ``(indices, weights)``: selected observation indices (ascending) and
    their R-localization weights in (0, 1].  The local observation error
    variance is ``noise_var[indices] / weights``.
    """
    d = np.asarray(distances, dtype=np.float64)
    if taper is None:
        weights = np.ones_like(d)
        keep = weights > MIN_WEIGHT
    else:
        radius = getattr(taper, "radius", None)
        if radius is not None:
            # Compactly supported taper: evaluate the polynomial only
            # inside the support instead of over the whole batch (the
            # dense-observation hot path; the suite's ``analysis_dense``).
            inside = d < radius
            weights = np.zeros_like(d)
            weights[inside] = taper(d[inside])
        else:
            weights = taper(d)
        keep = weights > MIN_WEIGHT
    if cutoff is not None:
        keep &= d <= cutoff
    indices = np.flatnonzero(keep)
    return indices, weights[indices]


class MultiplicativeInflation:
    """Fixed multiplicative inflation of the prior mode amplitudes.

    The classic compensation for ensemble sampling error: prior sigmas
    are scaled by a constant ``factor >= 1`` before the update.
    ``factor == 1`` disables inflation.
    """

    def __init__(self, factor: float = 1.0):
        if factor < 1.0:
            raise ValueError(f"inflation factor must be >= 1, got {factor}")
        self._factor = float(factor)

    def factor(
        self,
        innovation: np.ndarray,
        hde: np.ndarray,
        variances: np.ndarray,
        noise_var: np.ndarray,
    ) -> float:
        """The (constant) sigma scale factor for one region's update."""
        return self._factor


class AdaptiveInflation:
    """Innovation-consistency inflation (Anderson/Desroziers style).

    For a statistically consistent filter the innovation magnitude
    satisfies ``E[d^T d] = tr(H P H^T) + tr(R)``.  When the ensemble is
    overconfident the left side exceeds the right; the variance scale

        lambda^2 = (d^T d - tr(R)) / tr(H P H^T)

    restores consistency.  The returned *sigma* factor is ``lambda``
    clipped to ``[min_factor, max_factor]`` -- clipping keeps one noisy
    observation batch from blowing up (or, with ``min_factor >= 1``,
    deflating) the subspace.

    Parameters
    ----------
    min_factor:
        Lower clip for the sigma factor (default 1: never deflate).
    max_factor:
        Upper clip for the sigma factor.
    """

    def __init__(self, min_factor: float = 1.0, max_factor: float = 2.0):
        if min_factor <= 0:
            raise ValueError(f"min_factor must be positive, got {min_factor}")
        if max_factor < min_factor:
            raise ValueError("max_factor must be >= min_factor")
        self.min_factor = float(min_factor)
        self.max_factor = float(max_factor)

    def factor(
        self,
        innovation: np.ndarray,
        hde: np.ndarray,
        variances: np.ndarray,
        noise_var: np.ndarray,
    ) -> float:
        """Sigma scale factor from one region's innovation statistics."""
        innovation = np.asarray(innovation, dtype=np.float64)
        expected_signal = float(np.sum(hde**2 * variances[None, :]))
        if expected_signal <= 0.0 or innovation.size == 0:
            return self.min_factor
        excess = float(innovation @ innovation) - float(np.sum(noise_var))
        lam2 = excess / expected_signal
        lam = np.sqrt(max(lam2, 0.0))
        return float(np.clip(lam, self.min_factor, self.max_factor))


def make_inflation(
    name: str,
    factor: float = 1.0,
    min_factor: float = 1.0,
    max_factor: float = 2.0,
):
    """Build an inflation model by config name.

    ``"multiplicative"`` uses the constant ``factor``;
    ``"adaptive"`` estimates the factor per region from the innovation,
    clipped to ``[min_factor, max_factor]``.
    """
    if name == "multiplicative":
        return MultiplicativeInflation(factor)
    if name == "adaptive":
        return AdaptiveInflation(min_factor=min_factor, max_factor=max_factor)
    raise ValueError(
        f"unknown inflation {name!r} (have: multiplicative, adaptive)"
    )
