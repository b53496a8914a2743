"""Fitting kernel hyperparameters to sample covariances.

The Frobenius mismatch ||K(nu, ell) - Qhat||_F^2 between a grid kernel and
a low-rank sample covariance is minimized over (nu, ell).  A grid kernel
takes one value per pixel offset, so :func:`frobenius_mismatch` reduces
the sample covariance once to one number per offset and then scores each
candidate exactly in O(n), with no n x n array and no kernel operator:
one kernel table, which evaluates kappa once per distinct offset distance,
and O(n) arithmetic.  :func:`learn_matern` asks
:func:`~mixkry.operators.kernel_tables` for the tables of each nu at once,
so the kernel profile is evaluated once per nu.
:func:`hutchinson_objective` estimates the same mismatch stochastically
from +-1 probes against a kernel operator; ``mixkry fit`` reports that
estimate at the fitted point, with one kernel operator for all of its
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateDataError, FitError
from .operators import FAMILY_PARAMS, KernelSpec, kernel_tables

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


def hutchinson_objective(kernel, sample, probes):
    """Mean squared probe norm of (K - Qhat), an unbiased Frobenius estimate
    of the mismatch between the kernel operator ``kernel`` and the sample
    covariance ``sample``; ``probes`` is ``kernel.cols`` x M."""
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2 or probes.shape[0] != kernel.cols:
        raise ArgumentError("probes must be n x M")
    if not np.all(np.abs(probes) == 1.0):
        raise ArgumentError("probes must be +-1 entries")
    # square the fresh difference in place, never kernel.matvec's result:
    # an operator may hand back its own input
    diff = kernel.matvec(probes) - sample.matvec(probes)
    diff *= diff
    return float(np.mean(np.sum(diff, axis=0)))


def frobenius_mismatch(grid, sample):
    """``table -> ||K - Qhat||_F^2`` for the grid kernel K whose
    :func:`~mixkry.operators.kernel_table` on ``grid`` is ``table``,
    against the sample covariance ``sample`` (a
    :class:`~mixkry.operators.SampleFactor`), exactly.

    K takes the value kappa(i, j) of the table on every pixel pair i rows
    and j columns apart, a class of w(i, j) ordered pairs.  With a(i, j) the
    sum of Qhat over the class,

        ||K - Qhat||_F^2 = sum w (kappa - a / w)^2 + ||Qhat - Pi Qhat||_F^2,

    where Pi Qhat averages Qhat over each class.  The first sum has no
    cancellation, and the second does not depend on the kernel: it is
    computed once, as ||Qhat||_F^2 - sum a^2 / w floored at 0, with an
    absolute rounding of order eps ||Qhat||_F^2.  a is the autocorrelation
    of the sample images summed over samples and folded over the four signs
    of each offset; it comes from one zero-padded ``rfft2`` per sample,
    accumulated so that no temporary exceeds O(n).  A score then costs
    O(n) arithmetic on top of its kernel table.
    """
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

    def mismatch(table):
        if np.shape(table) != (ny, nx):
            raise ArgumentError("kernel table must be ny x nx")
        d = table - mean
        return float(np.sum(w * (d * d))) + spread

    return mismatch


def fit_bounds(grid):
    """``((nu_lo, nu_hi), (ell_lo, ell_hi))``, the box :func:`learn_matern`
    searches; ell is in the grid's kernel length units."""
    return (0.1, 10.0), (1e-3, grid.diameter())


def learn_matern(sample, grid, family="matern", gamma_exp=1.0):
    """Learn (nu, ell) for a kernel family against the sample covariance
    ``sample`` (a :class:`~mixkry.operators.SampleFactor`), at the fixed
    exponent ``gamma_exp`` of the gamma-exponential family.

    Deterministic.  Only the parameters the family reads
    (:data:`~mixkry.operators.FAMILY_PARAMS`) are searched; one it does
    not read stays at its box's lower end.  A log grid of 7 nu in [0.1, 10]
    by 9 ell in [1e-3, grid diameter] is scanned (7 x 1 or 1 x 9 for a
    family that reads one of them).  Then ``_ZOOMS`` levels each score a
    3 x 3 stencil in (log nu, log ell) (3 x 1 or 1 x 3) centred on the
    best point so far, clipped to the box and deduplicated, with each step
    starting at half a grid step and halving at each level; the centre,
    already scored, is skipped.  So a two-parameter family scores at most
    63 + 8 ``_ZOOMS`` kernels and a one-parameter family at most 9 + 2
    ``_ZOOMS``.  Every candidate is scored by the exact mismatch of
    :func:`frobenius_mismatch`, and the returned ``objective`` is the one
    scored at the returned (nu, ell).  Ties keep the point scored first.
    The kernel tables of a grid row, and of each nu of a stencil, come from
    one :func:`~mixkry.operators.kernel_tables` call, which evaluates the
    kernel profile once for them: at most 7 + 3 ``_ZOOMS`` evaluations.
    """
    mismatch = frobenius_mismatch(grid, sample)

    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)
    lo, hi = np.array([nu_lo, ell_lo]), np.array([nu_hi, ell_hi])
    log_lo, log_hi = np.log(lo), np.log(hi)
    best = None  # (value, nu, ell, [log nu, log ell])

    def score(points):
        """Score (nu, ell, [log nu, log ell]) points in order."""
        nonlocal best
        specs = [KernelSpec(family=family, nu=nu, ell=ell,
                            gamma_exp=gamma_exp) for nu, ell, _ in points]
        for (nu, ell, x), table in zip(points, kernel_tables(specs, grid)):
            val = mismatch(table)
            if not np.isfinite(val):
                val = np.inf
            if best is None or val < best[0]:
                best = (val, nu, ell, x)

    # grid points per parameter: one, at the box's lower end, for a
    # parameter the family does not read
    free = np.array([name in FAMILY_PARAMS[family] for name in ("nu", "ell")])
    counts = np.where(free, (7, 9), 1)
    nus = np.clip(np.logspace(np.log10(nu_lo), np.log10(nu_hi), counts[0]),
                  nu_lo, nu_hi)
    ells = np.clip(np.logspace(np.log10(ell_lo), np.log10(ell_hi), counts[1]),
                   ell_lo, ell_hi)
    for nu in nus:
        score([(float(nu), float(ell),
                np.clip(np.log([nu, ell]), log_lo, log_hi)) for ell in ells])
    if not np.isfinite(best[0]):
        raise FitError("no finite mismatch on the (nu, ell) grid")

    # half a grid step in each searched log coordinate, halved per level;
    # none in the other, so the stencil stays on its lower end
    h = np.where(free, (log_hi - log_lo) / (2.0 * np.maximum(counts - 1, 1)),
                 0.0)
    stencil = np.array([(a, b) for a in (-1.0, 0.0, 1.0)
                        for b in (-1.0, 0.0, 1.0)])
    for _ in range(_ZOOMS):
        centre = best[3]
        points = []
        # distinct stencil points in lexicographic order, as np.unique(...,
        # axis=0) gives them (which imports numpy.ma), so each nu's points
        # are consecutive
        for x in sorted(set(map(tuple, np.clip(centre + h * stencil, log_lo,
                                               log_hi)))):
            x = np.array(x)
            if np.array_equal(x, centre):
                continue
            nu, ell = np.clip(np.exp(x), lo, hi)
            points.append((float(nu), float(ell), x))
        score(points)
        h = h / 2.0
    return FitResult(nu=best[1], ell=best[2], objective=best[0])


def rblw_gamma(sample):
    """Rao-Blackwellized Ledoit-Wolf shrinkage weight for gamma I + (1-gamma) Qhat.

    Computed from the small Gram matrix of the sample factor; never forms
    the n x n covariance.  Degenerate inputs (one snapshot, zero variance)
    fall back to full shrinkage toward the identity.
    """
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
