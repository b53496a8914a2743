"""Fitting kernel hyperparameters to sample covariances.

A stochastic Frobenius mismatch between a candidate kernel matrix and a
low-rank sample covariance is minimized over (nu, ell).  Both covariances
are operators, and the whole probe block goes through one ``matvec`` of
each: the sample covariance is applied through its factor and the kernel
by FFT, so the cost per probe is two factor products plus one
O(n log n) kernel product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateDataError, FitError
from .operators import (
    KernelSpec,
    SampleFactor,
    build_kernel_operator,
    sample_covariance,
)

__all__ = [
    "FitResult",
    "fit_bounds",
    "rademacher_probes",
    "hutchinson_objective",
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
    probes: int


def rademacher_probes(n, count, seed):
    """n x count matrix of +-1 entries from a seeded generator."""
    if n < 1 or count < 1:
        raise ArgumentError("probe matrix needs positive dimensions")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n, count)).astype(float) * 2.0 - 1.0


def hutchinson_objective(spec, grid, sample, probes):
    """Mean squared probe norm of (K(spec) - Qhat), an unbiased Frobenius
    estimate of the kernel/sample mismatch."""
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[0] != grid.n:
        raise ArgumentError("probes must be n x M")
    if not np.all(np.abs(probes) == 1.0):
        raise ArgumentError("probes must be +-1 entries")
    kernel = build_kernel_operator(spec, grid)
    diff = kernel.matvec(probes) - sample.matvec(probes)
    return float(np.mean(np.sum(diff * diff, axis=0)))


def fit_bounds(grid):
    """``((nu_lo, nu_hi), (ell_lo, ell_hi))``, the box :func:`learn_matern`
    searches; ell is in the grid's kernel length units."""
    return (0.1, 10.0), (1e-3, grid.diameter())


def learn_matern(samples, grid, probes=20, seed=0, family="matern"):
    """Learn (nu, ell) for a kernel family against sample snapshots.

    Deterministic.  A 7 x 9 log grid over nu in [0.1, 10] and ell in
    [1e-3, grid diameter] is scanned.  Then ``_ZOOMS`` levels each score a
    3 x 3 stencil in (log nu, log ell) centred on the best point so far,
    clipped to the box and deduplicated, with both steps starting at half a
    grid step and halving at each level; the centre, already scored, is
    skipped.  The same probe matrix is reused for every candidate, so
    objective values are directly comparable across the search, and the
    returned ``objective`` is the one scored at the returned (nu, ell).
    Ties keep the point scored first.
    """
    sample = samples if isinstance(samples, SampleFactor) else sample_covariance(samples)
    if sample.rows != grid.n:
        raise ArgumentError("sample dimension does not match the grid")
    if probes < 1:
        raise ArgumentError("need at least one probe")
    xi = rademacher_probes(grid.n, probes, seed)

    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)
    lo, hi = np.array([nu_lo, ell_lo]), np.array([nu_hi, ell_hi])
    log_lo, log_hi = np.log(lo), np.log(hi)
    best = None  # (value, nu, ell, [log nu, log ell])

    def score(nu, ell, x):
        nonlocal best
        spec = KernelSpec(family=family, nu=nu, ell=ell)
        val = hutchinson_objective(spec, grid, sample, xi)
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
    return FitResult(nu=best[1], ell=best[2], objective=best[0],
                     probes=probes)


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
