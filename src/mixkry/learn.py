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
import scipy.optimize

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


def _fit_grid(objective, nus, ells):
    best = None
    for nu in nus:
        for ell in ells:
            val = objective(nu, ell)
            if best is None or val < best[0]:
                best = (val, nu, ell)
    return best


def fit_bounds(grid):
    """``((nu_lo, nu_hi), (ell_lo, ell_hi))``, the box :func:`learn_matern`
    searches; ell is in the grid's kernel length units."""
    return (0.1, 10.0), (1e-3, grid.diameter())


def learn_matern(samples, grid, probes=20, seed=0, family="matern"):
    """Learn (nu, ell) for a kernel family against sample snapshots.

    Coarse log-grid scan followed by Nelder-Mead in (log nu, log ell),
    clamped to nu in [0.1, 10] and ell in [1e-3, grid diameter].  The same
    probe matrix is reused for every candidate, so objective values are
    directly comparable across the search.
    """
    sample = samples if isinstance(samples, SampleFactor) else sample_covariance(samples)
    if sample.rows != grid.n:
        raise ArgumentError("sample dimension does not match the grid")
    if probes < 1:
        raise ArgumentError("need at least one probe")
    xi = rademacher_probes(grid.n, probes, seed)

    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)

    def objective(nu, ell):
        spec = KernelSpec(family=family, nu=nu, ell=ell)
        return hutchinson_objective(spec, grid, sample, xi)

    nus = np.logspace(np.log10(nu_lo), np.log10(nu_hi), 7)
    ells = np.logspace(np.log10(ell_lo), np.log10(ell_hi), 9)
    best = _fit_grid(objective, nus, ells)
    if best is None or not np.isfinite(best[0]):
        raise FitError("no finite mismatch on the (nu, ell) grid")

    lb = np.log([nu_lo, ell_lo])
    ub = np.log([nu_hi, ell_hi])

    def fun(x):
        z = np.clip(x, lb, ub)
        return objective(float(np.exp(z[0])), float(np.exp(z[1])))

    x0 = np.log([best[1], best[2]])
    res = scipy.optimize.minimize(
        fun, x0, method="Nelder-Mead",
        bounds=list(zip(lb, ub)),
        options={"maxfev": 200, "xatol": 1e-6, "fatol": 1e-12, "disp": False},
    )
    if np.isfinite(res.fun) and res.fun < best[0]:
        z = np.clip(res.x, lb, ub)
        best = (float(res.fun), float(np.exp(z[0])), float(np.exp(z[1])))
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
