"""The subspace SVD, in ensemble space.

ESSE factors tall-skinny difference matrices: state dimension ``n`` is
O(1e4-1e7), ensemble size ``N`` is O(1e2-1e3), and only the ``k <= N``
dominant modes are kept.  The paper names this SVD as the step that
"require[s] a lot of memory and time, especially for large N" (Sec 4.1).
:func:`truncated_svd` has two routes to the same factorization
``a = u @ diag(s) @ vt`` and picks one from the input alone:

**Gram route** (:func:`gram_svd`; input with at least
:data:`TALL_ASPECT` rows per column).  All the linear algebra happens in
the ``N``-dimensional ensemble space: the ``N x N`` Gram matrix ``a^T a``
(one symmetric rank-k update, ``n N^2`` flops), its eigendecomposition
(``~9 N^3``), the rank / energy / rtol cut taken on that spectrum *before*
any mode exists, and then only the kept modes ``a V_k / s_k``
(``2 n N k``).  Nothing of size ``n x N`` is allocated.

**LAPACK route** (``gesdd``; everything else).  ``~6 n N^2`` flops -- a
QR of ``a``, the SVD of its triangle, the product of the two left factors
-- and a full ``n x N`` left factor of which ``k`` columns are kept.

Squaring ``a`` squares its condition number, so the Gram route cannot
serve every call.  The eigensolver returns eigenvalues ``lambda_i =
s_i^2`` with absolute error ``N eps lambda_0``; relative to ``lambda_i``
that is ``N eps kappa_i^2`` with ``kappa_i = s_0 / s_i``, and the same
quantity bounds how far mode ``i`` is rotated and how far the raw modes
``a V_k / s_k`` are from orthonormal.  The bound is read off the spectrum
the eigensolve just returned, at the deepest kept mode:

- above :data:`GRAM_TRUST` the Gram route declines and the call takes the
  LAPACK route (a kept set reaching below the *trust floor*
  ``s_keep / s_0 = sqrt(N eps / GRAM_TRUST)``, about 2e-4 at N = 256;
  eigenvalues under ``N eps lambda_0`` are noise, not modes);
- above :data:`GRAM_POLISH` the kept modes get one re-orthonormalization
  pass -- Cholesky QR of the raw modes, then the ``k x k`` SVD of the
  triangle times ``diag(s)`` (``3 n k^2`` flops) -- after which modes and
  singular values are as good as LAPACK's *within* the kept subspace
  (measured: sigmas to 1e-14 relative, ``u^T u - I`` to 4e-15, at
  ``kappa`` = 1e4), and the subspace itself is off by ``~0.3 eps
  kappa^2``;
- below it the raw modes are returned: they are orthonormal, and their
  singular values right, to the bound itself (<= 1e-10).

The cost that grows with ``n`` is the tall products: the kept modes here,
the analysis's posterior modes, the carried Gram matrix's new columns.
:func:`oriented_product` (which also orients) and :func:`gram_columns`
form them in row blocks fixed by the shape, on every usable CPU.

Both routes orient every mode so that its largest-magnitude entry is
positive (and flip the matching row of ``vt``).  A singular vector's sign
is the solver's whim and flips with the last bit of the input, while
:class:`~repro.core.perturbation.PerturbationGenerator` multiplies fixed
coefficients into the modes; with the convention a subspace is a function
of the covariance and not of the route that factored it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.util.rng import SeedSequenceStream
from repro.util.threads import _map_on_usable_cpus

#: Rows per column from which input counts as tall and takes the Gram
#: route.  Every factorization the program issues has 100 or more; the
#: constant only keeps small near-square matrices on the exact driver.
#: Measured (EXPERIMENTS.md, SVD-path census, last table): from 64 columns
#: on the Gram route is ahead at any aspect when a quarter of the modes is
#: kept or the spectrum is shallow, and catches up between 4 and 32 rows
#: per column when every mode is kept and polished.
TALL_ASPECT = 4.0

#: Largest ``N eps kappa^2`` (``kappa = s_0 / s_keep``) the Gram route
#: serves; a deeper kept set takes the LAPACK route.
GRAM_TRUST = 1e-6

#: Largest ``N eps kappa^2`` at which the raw modes ``a V_k / s_k`` are
#: returned without the re-orthonormalization pass.
GRAM_POLISH = 1e-10

#: Rows per block of :func:`oriented_product`'s and :func:`gram_columns`'s
#: output; the last block also takes the remainder.  Fixed by the shape
#: alone, so no bit of a result depends on how many CPUs run the blocks.
PRODUCT_BLOCK_ROWS = 2048
GRAM_BLOCK_ROWS = 128

#: Fewest multiply-adds per block for a product to be split; below it the
#: product is one block on the calling thread.  A smaller block is not
#: worth a thread, and BLAS may sum it in another order than the whole
#: product (OpenBLAS's small-matrix kernel, up to 1e6).
PRODUCT_BLOCK_FLOOR = 2**23

#: Rows :func:`_column_extremes` reduces side by side (max and min are exact,
#: so any grouping gives the same bits).
EXTREMES_FOLD = 16

_EPS = float(np.finfo(np.float64).eps)


def _as_matrix(a: np.ndarray, who: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{who} expects a 2-D array, got shape {a.shape}")
    return a


def _kept(
    s: np.ndarray, rank: int | None, energy: float | None, rtol: float
) -> int:
    """How many leading modes of the descending spectrum ``s`` to keep.

    The criteria compose: the tightest of the ``rtol`` floor, the
    ``energy`` cut and the ``rank`` cap, and never fewer than one.
    """
    if energy is not None and not 0.0 < energy <= 1.0:
        raise ValueError(f"energy must be in (0, 1], got {energy}")
    if rank is not None and rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    keep = s.size
    if rtol > 0.0:
        keep = max(int(np.count_nonzero(s > rtol * s[0])), 1)
    if energy is not None:
        power = np.cumsum(s**2)
        total = power[-1]
        if total == 0.0:
            keep = 1
        else:
            keep = min(keep, int(np.searchsorted(power, energy * total) + 1))
    if rank is not None:
        keep = min(keep, rank)
    return keep


def _column_extremes(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u.max(axis=0), u.min(axis=0)``, with the same bits and fewer passes.

    A reduction down a C-ordered column pays per row, so :data:`EXTREMES_FOLD`
    rows are reduced side by side as one wide row first, then folded;
    the rows past the last whole fold join at the end.
    """
    n, k = u.shape
    whole = n - n % EXTREMES_FOLD
    if whole == 0 or not u.flags.c_contiguous:
        return u.max(axis=0), u.min(axis=0)
    wide = u[:whole].reshape(-1, EXTREMES_FOLD * k)
    top = wide.max(axis=0).reshape(EXTREMES_FOLD, k).max(axis=0)
    bottom = wide.min(axis=0).reshape(EXTREMES_FOLD, k).min(axis=0)
    if whole < n:
        top = np.maximum(top, u[whole:].max(axis=0))
        bottom = np.minimum(bottom, u[whole:].min(axis=0))
    return top, bottom


def _orient(u: np.ndarray, vt: np.ndarray) -> None:
    """Make each mode's largest-magnitude entry positive, in place."""
    top, bottom = _column_extremes(u)
    sign = np.where(top >= -bottom, 1.0, -1.0)
    u *= sign
    vt *= sign[:, None]


def _row_blocks(n: int, rows: int, work_per_row: int) -> list[slice]:
    """Blocks of ``rows`` rows covering ``n``, or one when a block is under the floor."""
    if n < 2 * rows or rows * work_per_row < PRODUCT_BLOCK_FLOOR:
        return [slice(0, n)]
    bounds = [k * rows for k in range(n // rows)] + [n]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def oriented_product(a: np.ndarray, w: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """``u = a @ w``, with ``u`` and ``vt`` oriented exactly as :func:`_orient` does.

    Row blocks of ``u`` run on every usable CPU, each noting its columns'
    extremes while in cache; one more blocked pass applies any flip.
    """
    u = np.empty((a.shape[0], w.shape[1]))
    blocks = _row_blocks(a.shape[0], PRODUCT_BLOCK_ROWS, w.size)

    def product(rows):
        return _column_extremes(np.matmul(a[rows], w, out=u[rows]))

    def flip(rows):
        u[rows] *= sign

    top, bottom = zip(*_map_on_usable_cpus(product, blocks))
    sign = np.where(np.max(top, axis=0) >= -np.min(bottom, axis=0), 1.0, -1.0)
    if np.any(sign < 0.0):
        list(_map_on_usable_cpus(flip, blocks))
    vt *= sign[:, None]
    return u


def gram_columns(a: np.ndarray, start: int) -> np.ndarray:
    """``a.T @ a[:, start:]`` in fixed blocks of output rows, on every usable CPU."""
    new = a[:, start:]
    gram = np.empty((a.shape[1], new.shape[1]))

    def product(rows):
        np.matmul(a[:, rows].T, new, out=gram[rows])

    list(_map_on_usable_cpus(product, _row_blocks(a.shape[1], GRAM_BLOCK_ROWS, new.size)))
    return gram


def gram_svd(
    a: np.ndarray,
    rank: int | None = None,
    energy: float | None = None,
    rtol: float = 0.0,
    gram: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Truncated SVD of a tall matrix through its Gram matrix, or None.

    Parameters
    ----------
    a:
        Matrix ``(n, m)``, any memory layout (read-only maps included).
    rank, energy, rtol:
        The cut, as in :func:`truncated_svd`.
    gram:
        ``a^T a`` when the caller already holds it (lower triangle read);
        :class:`~repro.core.subspace.IncrementalSubspaceEstimator`
        carries it between checkpoints.

    Returns
    -------
    ``(u, s, vt)`` with ``k`` kept triplets, or None when this route
    declines: ``a`` has fewer than :data:`TALL_ASPECT` rows per column, or
    the kept set reaches below the trust floor (module docstring).
    """
    a = _as_matrix(a, "gram_svd")
    n, m = a.shape
    if m == 0 or n < TALL_ASPECT * m:
        return None
    if gram is None:
        gram = a.T @ a  # numpy issues a symmetric rank-k update for a^T a
    eigvals, eigvecs = scipy.linalg.eigh(gram)
    s = np.sqrt(np.clip(eigvals[::-1], 0.0, None))
    keep = _kept(s, rank, energy, rtol)
    deepest = s[keep - 1]
    bound = m * _EPS * (s[0] / deepest) ** 2 if deepest > 0.0 else np.inf
    if bound > GRAM_TRUST:
        return None
    s = s[:keep]
    v = eigvecs[:, ::-1][:, :keep]
    vt = v.T.copy()
    if bound <= GRAM_POLISH:
        return oriented_product(a, v / s, vt), s, vt
    u = a @ (v / s)
    r = scipy.linalg.cholesky(u.T @ u)  # u = q r
    p, s, qt = scipy.linalg.svd(r * s)  # a v = q (r diag(s))
    vt = qt @ vt
    return oriented_product(u, scipy.linalg.solve_triangular(r, p), vt), s, vt


def lapack_svd(
    a: np.ndarray,
    rank: int | None = None,
    energy: float | None = None,
    rtol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD through the dense LAPACK driver: any shape, any depth.

    Arguments and result as in :func:`truncated_svd`.
    """
    a = _as_matrix(a, "lapack_svd")
    # gesdd is the faster driver; fall back to the slower but more robust
    # gesvd on non-convergence.
    try:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesdd")
    except np.linalg.LinAlgError:
        u, s, vt = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
    if s.size == 0:
        return u, s, vt
    keep = _kept(s, rank, energy, rtol)
    u, s, vt = u[:, :keep], s[:keep], vt[:keep]
    _orient(u, vt)
    return u, s, vt


def truncated_svd(
    a: np.ndarray,
    rank: int | None = None,
    energy: float | None = None,
    rtol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD truncated to a dominant subspace, ``a ~ u @ diag(s) @ vt``.

    The criteria compose: the retained rank is the tightest of the
    ``energy`` cut, the ``rank`` cap and the ``rtol`` floor.  Tall input
    whose kept set the Gram route resolves is factored in ensemble space,
    everything else by LAPACK (module docstring); modes are
    sign-oriented either way.

    Parameters
    ----------
    a:
        Matrix ``(n, m)``.
    rank:
        Keep at most this many modes.
    energy:
        Keep the smallest leading set of modes whose cumulative squared
        singular values reach this fraction of the total (0 < energy <= 1).
    rtol:
        Relative singular-value floor; modes with ``s_i <= rtol * s_0`` are
        always discarded.
    """
    a = _as_matrix(a, "truncated_svd")
    factors = gram_svd(a, rank, energy, rtol)
    if factors is None:
        factors = lapack_svd(a, rank, energy, rtol)
    return factors


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy-size SVD ``a = u @ diag(s) @ vt``: :func:`truncated_svd`, uncut.

    Parameters
    ----------
    a:
        Matrix of shape ``(n, m)``; typically ``n >> m`` (state-by-ensemble).

    Returns
    -------
    u, s, vt:
        ``u`` is ``(n, k)``, ``s`` is ``(k,)`` descending, ``vt`` is
        ``(k, m)`` with ``k = min(n, m)``.
    """
    return truncated_svd(a)


def randomized_svd(
    a: np.ndarray,
    rank: int,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized range-finder SVD (Halko-Martinsson-Tropp).

    The paper worries that the dense LAPACK SVD "require[s] a lot of
    memory and time, especially for large N" and anticipates needing
    ScaLAPACK (Sec 4.1).  Sketching is one answer: project onto a random
    ``rank + 10``-dimensional range, QR it, and SVD the small projected
    matrix -- O(n N k) instead of O(n N min(n, N)), with two power
    iterations sharpening the spectrum.  It is kept for the Sec 4.1
    ablation; at the sizes this repository runs, the exact Gram route of
    :func:`truncated_svd` is faster (EXPERIMENTS.md, SVD-path census).

    Parameters
    ----------
    a:
        Matrix ``(n, m)``.
    rank:
        Number of singular triplets wanted (>= 1).
    rng:
        Generator for the sketch; thread one from your experiment's root
        seed for stream independence.  The default is a deterministic
        keyed stream, so repeated sketches of the same matrix agree
        bit-for-bit.

    Returns
    -------
    (u, s, vt) with ``u`` of shape ``(n, rank)``, sign-oriented like the
    exact routes.
    """
    a = _as_matrix(a, "randomized_svd")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rng is None:
        rng = SeedSequenceStream(0).rng("linalg", "randomized-svd")
    n, m = a.shape
    sketch = min(rank + 10, m)
    omega = rng.standard_normal((m, sketch))
    y = a @ omega
    for _ in range(2):
        y, _ = np.linalg.qr(y)
        y = a @ (a.T @ y)
    q, _ = np.linalg.qr(y)
    b = q.T @ a  # (sketch, m)
    ub, s, vt = scipy.linalg.svd(b, full_matrices=False)
    keep = min(rank, s.size)
    u, vt = q @ ub[:, :keep], vt[:keep]
    _orient(u, vt)
    return u, s[:keep], vt


def orthonormal_columns(a: np.ndarray, atol: float = 1e-8) -> bool:
    """Return True when the columns of ``a`` are orthonormal within ``atol``."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {a.shape}")
    gram = a.T @ a
    return bool(np.allclose(gram, np.eye(a.shape[1]), atol=atol))
