"""Fitting kernel hyperparameters to sample covariances.

The Frobenius mismatch ||K(nu, ell) - Qhat||_F^2 between a grid kernel and
a low-rank sample covariance is minimized over (nu, ell).  A grid kernel
takes one value per pixel offset, so :func:`frobenius_mismatch` reduces
the sample covariance once to one number per offset and then scores each
candidate exactly in O(n), with no n x n array and no kernel operator:
one :func:`~mixkry.operators.kernel_table`, which evaluates kappa once per
distinct offset distance, and O(n) arithmetic.
:func:`hutchinson_objective` estimates the same mismatch stochastically
from +-1 probes; ``mixkry fit`` reports that estimate at the fitted point,
with one kernel operator for all of its estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateDataError, FitError
from .operators import (
    KernelSpec,
    SampleFactor,
    build_kernel_operator,
    kernel_table,
    sample_covariance,
)

__all__ = [
    "FitResult",
    "fit_bounds",
    "rademacher_probes",
    "hutchinson_objective",
    "frobenius_mismatch",
    "learn_matern",
    "rblw_gamma",
]

# zoom levels after the (nu, ell) grid, each a 3 x 3 stencil in log space
_ZOOMS = 8


@dataclass
class FitResult:
    nu: float
    ell: float
    objective: float


def rademacher_probes(n, count, seed):
    """n x count matrix of +-1 entries from a seeded generator."""
    if n < 1 or count < 1:
        raise ArgumentError("probe matrix needs positive dimensions")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n, count)).astype(float) * 2.0 - 1.0


def hutchinson_objective(spec, grid, sample, probes, *, kernel=None):
    """Mean squared probe norm of (K(spec) - Qhat), an unbiased Frobenius
    estimate of the kernel/sample mismatch.

    ``kernel`` is K(spec) on ``grid`` when the caller has built it already,
    as ``mixkry fit`` does once for all the estimates of its ladder; by
    default it is built here.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[0] != grid.n:
        raise ArgumentError("probes must be n x M")
    if not np.all(np.abs(probes) == 1.0):
        raise ArgumentError("probes must be +-1 entries")
    if kernel is None:
        kernel = build_kernel_operator(spec, grid)
    diff = kernel.matvec(probes) - sample.matvec(probes)
    return float(np.mean(np.sum(diff * diff, axis=0)))


def frobenius_mismatch(grid, samples):
    """``spec -> ||K(spec) - Qhat||_F^2`` for kernels on ``grid`` against
    the sample covariance Qhat of ``samples`` (snapshots or their
    :class:`SampleFactor`), exactly.

    K takes the value kappa(i, j) of :func:`kernel_table` on every pixel
    pair i rows and j columns apart, a class of w(i, j) ordered pairs.  With
    a(i, j) the sum of Qhat over the class,

        ||K - Qhat||_F^2 = sum w (kappa - a / w)^2 + ||Qhat - Pi Qhat||_F^2,

    where Pi Qhat averages Qhat over each class.  The first sum has no
    cancellation, and the second does not depend on the kernel: it is
    computed once, as ||Qhat||_F^2 - sum a^2 / w floored at 0, with an
    absolute rounding of order eps ||Qhat||_F^2.  a is the autocorrelation
    of the sample images summed over samples and folded over the four signs
    of each offset; it comes from one zero-padded ``rfft2`` per sample,
    accumulated so that no temporary exceeds O(n).  A score then costs one
    kernel table, kappa at each distinct offset distance, and O(n)
    arithmetic.
    """
    sample = (samples if isinstance(samples, SampleFactor)
              else sample_covariance(samples))
    if sample.rows != grid.n:
        raise ArgumentError("sample dimension does not match the grid")
    ny, nx = grid.ny, grid.nx
    pad = (2 * ny, 2 * nx)
    power = np.zeros((2 * ny, nx + 1))
    for col in sample.factor.T:
        f = np.fft.rfft2(col.reshape(ny, nx), s=pad)
        power += f.real * f.real + f.imag * f.imag
    corr = np.fft.irfft2(power, s=pad)
    # fold offsets -i and -j (rows 2 ny - i, columns 2 nx - j) onto i and j
    rows = corr[:ny]
    rows[1:] += corr[:ny:-1]
    a = rows[:, :nx]
    a[:, 1:] += rows[:, :nx:-1]
    # ordered pixel pairs per class: ny - i row placements, doubled for the
    # two signs of a nonzero offset, times the same for columns
    wy, wx = 2.0 * (ny - np.arange(ny)), 2.0 * (nx - np.arange(nx))
    wy[0], wx[0] = ny, nx
    w = np.outer(wy, wx)
    mean = a / w
    gram = sample.factor.T @ sample.factor
    spread = max(float(np.sum(gram * gram)) - float(np.sum(a * mean)), 0.0)

    def mismatch(spec):
        d = kernel_table(spec, grid) - mean
        return float(np.sum(w * (d * d))) + spread

    return mismatch


def fit_bounds(grid):
    """``((nu_lo, nu_hi), (ell_lo, ell_hi))``, the box :func:`learn_matern`
    searches; ell is in the grid's kernel length units."""
    return (0.1, 10.0), (1e-3, grid.diameter())


def learn_matern(samples, grid, family="matern"):
    """Learn (nu, ell) for a kernel family against sample snapshots.

    Deterministic.  A 7 x 9 log grid over nu in [0.1, 10] and ell in
    [1e-3, grid diameter] is scanned.  Then ``_ZOOMS`` levels each score a
    3 x 3 stencil in (log nu, log ell) centred on the best point so far,
    clipped to the box and deduplicated, with both steps starting at half a
    grid step and halving at each level; the centre, already scored, is
    skipped.  Every candidate is scored by the exact mismatch of
    :func:`frobenius_mismatch`, and the returned ``objective`` is the one
    scored at the returned (nu, ell).  Ties keep the point scored first.
    """
    mismatch = frobenius_mismatch(grid, samples)

    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)
    lo, hi = np.array([nu_lo, ell_lo]), np.array([nu_hi, ell_hi])
    log_lo, log_hi = np.log(lo), np.log(hi)
    best = None  # (value, nu, ell, [log nu, log ell])

    def score(nu, ell, x):
        nonlocal best
        val = mismatch(KernelSpec(family=family, nu=nu, ell=ell))
        if not np.isfinite(val):
            val = np.inf
        if best is None or val < best[0]:
            best = (val, nu, ell, x)

    nus = np.clip(np.logspace(np.log10(nu_lo), np.log10(nu_hi), 7),
                  nu_lo, nu_hi)
    ells = np.clip(np.logspace(np.log10(ell_lo), np.log10(ell_hi), 9),
                   ell_lo, ell_hi)
    for nu in nus:
        for ell in ells:
            score(float(nu), float(ell),
                  np.clip(np.log([nu, ell]), log_lo, log_hi))
    if not np.isfinite(best[0]):
        raise FitError("no finite mismatch on the (nu, ell) grid")

    # half a grid step in each log coordinate, halved per level
    h = (log_hi - log_lo) / (2.0 * np.array([nus.size - 1, ells.size - 1]))
    stencil = np.array([(a, b) for a in (-1.0, 0.0, 1.0)
                        for b in (-1.0, 0.0, 1.0)])
    for _ in range(_ZOOMS):
        centre = best[3]
        for x in np.unique(np.clip(centre + h * stencil, log_lo, log_hi),
                           axis=0):
            if np.array_equal(x, centre):
                continue
            nu, ell = np.clip(np.exp(x), lo, hi)
            score(float(nu), float(ell), x)
        h = h / 2.0
    return FitResult(nu=best[1], ell=best[2], objective=best[0])


def rblw_gamma(sample):
    """Rao-Blackwellized Ledoit-Wolf shrinkage weight for gamma I + (1-gamma) Qhat.

    Computed from the small Gram matrix of the sample factor; never forms
    the n x n covariance.  Degenerate inputs (one snapshot, zero variance)
    fall back to full shrinkage toward the identity.
    """
    if not isinstance(sample, SampleFactor):
        sample = sample_covariance(sample)
    S = sample.factor
    N = S.shape[1]
    n = S.shape[0]
    if N < 1:
        raise DegenerateDataError("shrinkage needs at least one snapshot")
    T = S.T @ S
    tr_q = float(np.trace(T))
    tr_q2 = float(np.sum(T * T))
    if tr_q == 0.0:
        return 1.0
    den = (N + 2.0) * (tr_q2 - tr_q * tr_q / n)
    if den <= 0.0:
        return 1.0
    num = ((N - 2.0) / N) * tr_q2 + tr_q * tr_q
    rho = num / den
    return float(min(1.0, max(np.finfo(float).tiny, rho)))
