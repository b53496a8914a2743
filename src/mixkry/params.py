"""Regularization and mixing parameter selection, plus stopping rules.

All selection methods act on the projected system and score one gamma
column at a time through :func:`solve_column`: a column costs one ``potrf``
of the penalty and one ``syevd``, shared by all its lambda values.  The
joint (gamma, lambda) search scans a log-spaced grid of such columns, then
zooms in on the best cell with small stencils of three gamma columns.  It
is fully deterministic, and every point it reports was scored by that one
column evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ConfigError,
    DegenerateTraceError,
    ParameterDomainError,
    SearchError,
)
from .projected import build_projected, solve_column

__all__ = [
    "SearchConfig",
    "SelectionResult",
    "StoppingPolicy",
    "StopDecision",
    "RunRecord",
    "upre_objective",
    "gcv_objective",
    "wgcv_objective",
    "select_params",
    "stopping_check",
    "METHODS",
]

METHODS = ("optimal", "upre", "gcv", "wgcv")

# zoom levels after the grid scan; the stencil steps halve at each level
_ZOOMS = 8
# objective values this close, relative to the lower one, count as tied
_TIE_RTOL = 1e-12


@dataclass
class SearchConfig:
    """Knobs of the deterministic (gamma, lambda) search.

    ``log10_lambda`` bounds the whole lambda search, grid and zoom alike.
    """

    gamma_min: float = 0.01
    gamma_fixed: float = None
    grid_gamma: int = 15
    grid_lambda: int = 15
    log10_lambda: tuple = (-6.0, 2.0)
    sigma2: float = None
    omega: float = None
    s_true: np.ndarray = None

    def __post_init__(self):
        if not 0 < self.gamma_min <= 1:
            raise ParameterDomainError("gamma_min must lie in (0, 1]")
        if self.gamma_fixed is not None and not 0 < self.gamma_fixed <= 1:
            raise ParameterDomainError("fixed gamma must lie in (0, 1]")
        if self.grid_gamma < 1 or self.grid_lambda < 2:
            raise ArgumentError("grid must have at least 1 x 2 cells")
        lo, hi = self.log10_lambda
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ParameterDomainError(
                f"log10_lambda range ({lo}, {hi}) must be finite with lo < hi")


@dataclass
class SelectionResult:
    gamma: float
    lam: float
    objective: float
    method: str
    evaluations: int
    converged: bool


@dataclass
class StoppingPolicy:
    max_iter: int = 100
    flat_tol: float = 1e-4
    residual_tol: float = 1e-6
    window: int = 3

    def __post_init__(self):
        if self.max_iter < 1 or self.window < 2:
            raise ArgumentError("max_iter >= 1 and window >= 2 required")
        if self.flat_tol <= 0 or self.residual_tol < 0:
            raise ArgumentError("tolerances must be positive")


@dataclass
class StopDecision:
    stop: bool
    reason: str = None


@dataclass
class RunRecord:
    """One completed outer iteration, as serialized to run.csv."""

    k: int
    lam: float
    gamma: float
    objective: float
    rel_residual: float
    rel_error: float = None
    ms: float = 0.0


# ---------------------------------------------------------------------------
# objectives


def upre_objective(sys, lam, sigma2):
    """Projected unbiased predictive risk at (sys.gamma, lam).

    The projected residual carries whitened units (noise variance one per
    component); the risk is stated in original data units, so the residual
    term is rescaled by sigma2.  The denominator is the nominal projected
    row count 2k+1 whatever the assembled row count turns out to be.
    Scored through :func:`solve_column`, so the value is the search's own.
    """
    if sigma2 is None or sigma2 <= 0:
        raise ConfigError("UPRE requires a positive noise variance sigma2")
    _, r2, tr = solve_column(sys, [lam])
    return float(_upre(r2, tr, 2 * sys.k + 1, sigma2)[0])


def _upre(r2, tr, rows, sigma2):
    return sigma2 * (r2 + 2.0 * tr) / rows - sigma2


def gcv_objective(sys, lam):
    """Projected generalized cross validation at (sys.gamma, lam).

    Works in whitened residual units; rescaling b only multiplies the
    value, never moves the minimizer.
    """
    return wgcv_objective(sys, lam, 1.0)


def wgcv_objective(sys, lam, omega):
    """Weighted GCV with trace weight omega; omega = 1 is plain GCV.

    The default weight (2k+1)/m can exceed one on overdetermined projected
    problems, so only positivity is required.  Scored through
    :func:`solve_column`, so the value is the search's own.
    """
    if omega <= 0:
        raise ParameterDomainError("omega must be positive")
    rows = 2 * sys.k + 1
    _, r2, tr = solve_column(sys, [lam])
    if rows - omega * tr[0] == 0.0:
        raise DegenerateTraceError("weighted GCV denominator vanished")
    return float(_wgcv(r2, tr, rows, omega)[0])


def _wgcv(r2, tr, rows, omega):
    """r2 / (rows - omega tr)^2; a vanished denominator gives inf or nan,
    which the search maps to inf."""
    denom = rows - omega * tr
    with np.errstate(divide="ignore", invalid="ignore"):
        return r2 / (denom * denom)


class _OptimalCache:
    """Per-iteration Gram blocks so optimal evaluations cost O(k^2).

    ||mu + gamma Q1V y + (1-gamma) W y - s_true||^2 expanded in the cached
    bases; equals the squared error of the recovered iterate up to
    roundoff.
    """

    def __init__(self, state, prior, s_true):
        e0 = prior.mean - np.asarray(s_true, dtype=float)
        Q1V = state.Q1Vk
        W = state.W
        self.c0 = float(e0 @ e0)
        self.b1 = Q1V.T @ e0
        self.b2 = W.T @ e0
        self.P11 = Q1V.T @ Q1V
        P12 = Q1V.T @ W
        self.P12 = P12 + P12.T
        self.P22 = W.T @ W

    def value(self, gamma, Y):
        """The squared error at each row y of the weight block Y (M x k),
        row by row like :func:`solve_column`."""
        g = gamma
        h = 1.0 - gamma
        b = g * self.b1 + h * self.b2
        P = g * g * self.P11 + g * h * self.P12 + h * h * self.P22
        PY = np.matmul(P, Y[:, :, None])[:, :, 0]
        return self.c0 + ((2.0 * b + PY) * Y).sum(axis=1)


# ---------------------------------------------------------------------------
# joint search


def _objective_factory(method, state, prior, config):
    """Return ``column(gamma, lams) -> array``, the requested method scored
    at every lam of one gamma through :func:`solve_column`.  Projected
    systems are cached per gamma."""
    if method not in METHODS:
        raise ConfigError(f"unknown selection method {method!r}")
    if method == "upre" and (config.sigma2 is None or config.sigma2 <= 0):
        raise ConfigError("select.method=upre requires select.sigma2")
    if method == "optimal" and config.s_true is None:
        raise ConfigError("select.method=optimal requires s_true")

    sys_cache = {}

    def get_sys(gamma):
        sys = sys_cache.get(gamma)
        if sys is None:
            sys = build_projected(state, gamma)
            sys_cache[gamma] = sys
        return sys

    if method == "optimal":
        cache = _OptimalCache(state, prior, config.s_true)

        def column(gamma, lams):
            return cache.value(gamma, solve_column(get_sys(gamma), lams)[0])

        return column

    rows = 2 * state.k + 1
    if method == "upre":
        def score(r2, tr):
            return _upre(r2, tr, rows, config.sigma2)
    else:
        omega = 1.0
        if method == "wgcv":
            omega = config.omega
            if omega is None:
                omega = (2.0 * state.k + 1.0) / state.m
            if omega <= 0:
                raise ParameterDomainError("omega must be positive")

        def score(r2, tr):
            return _wgcv(r2, tr, rows, omega)

    def column(gamma, lams):
        _, r2, tr = solve_column(get_sys(gamma), lams)
        return score(r2, tr)

    return column


def _pick(vals):
    """Index of the first value tied with the minimum of a column whose
    lambdas ascend: ties go to the smallest lambda."""
    low = vals.min()
    return int(np.argmax(vals <= low + _TIE_RTOL * abs(low)))


def _better(cand, best):
    """Ordering on (value, lam, gamma): smaller value, ties to small lam
    then small gamma.  Values within ``_TIE_RTOL`` of the lower one tie."""
    if best is None:
        return True
    a, b = cand[0], best[0]
    if abs(a - b) > _TIE_RTOL * abs(min(a, b)):
        return a < b
    return cand[1:3] < best[1:3]


def select_params(method, state, prior, config=None):
    """Pick (gamma, lambda) for the current subspace: grid, then zoom.

    Deterministic.  A log-spaced grid is scanned one gamma column at a
    time.  Then ``_ZOOMS`` levels each scan a stencil centred on the best
    cell so far: gamma + h_gamma {-1, 0, 1} by log10 lambda + h_lambda
    {-2, ..., 2}, clipped to the search box, with both steps starting at
    half a grid step and halving at each level.  A pinned gamma zooms
    lambda only.  Ties go to the smallest lambda, then the smallest gamma.

    ``objective`` is the selected cell's value as scanned, ``evaluations``
    counts every scored cell, and ``converged`` is False for a flat grid
    (no zoom runs) or a selected point on an edge of the box other than
    gamma = 1.
    """
    if config is None:
        config = SearchConfig()
    if state.k < 1:
        raise ArgumentError("selection needs at least one completed step")
    gamma_fixed = config.gamma_fixed
    column = _objective_factory(method, state, prior, config)
    lo, hi = config.log10_lambda

    best = None  # (value, lam, gamma, log10 lam)
    evals = 0

    def scan(gammas, log10_lams):
        """Score every cell, keep the best; return the finite values."""
        nonlocal best, evals
        lams = 10.0 ** log10_lams
        finite = []
        for gamma in gammas:
            vals = column(gamma, lams)
            ok = np.isfinite(vals)
            vals = np.where(ok, vals, np.inf)
            finite.extend(vals[ok])
            evals += lams.size
            i = _pick(vals)
            cand = (float(vals[i]), float(lams[i]), float(gamma),
                    float(log10_lams[i]))
            if _better(cand, best):
                best = cand
        return finite

    if gamma_fixed is not None:
        gammas = np.array([gamma_fixed])
    else:
        gammas = np.linspace(config.gamma_min, 1.0, config.grid_gamma)
    finite = scan(gammas, np.linspace(lo, hi, config.grid_lambda))
    if not finite:
        raise SearchError(f"no finite {method} objective on the search grid")

    flat = max(finite) == min(finite)
    if not flat:
        h_gamma = (1.0 - config.gamma_min) / max(config.grid_gamma - 1, 1) / 2
        h_lam = (hi - lo) / (config.grid_lambda - 1) / 2
        # three gamma columns by five lambdas: a column costs one
        # decomposition, while extra lambdas in a column are nearly free
        for _ in range(_ZOOMS):
            _, _, g, l = best
            if gamma_fixed is None:
                gammas = np.unique(np.clip(g + h_gamma * np.arange(-1.0, 2.0),
                                           config.gamma_min, 1.0))
            scan(gammas, np.unique(np.clip(l + h_lam * np.arange(-2.0, 3.0),
                                           lo, hi)))
            h_gamma /= 2
            h_lam /= 2

    value, lam_star, gamma_star, l = best
    on_edge = l in (lo, hi) or (gamma_fixed is None
                                and gamma_star == config.gamma_min)
    return SelectionResult(
        gamma=gamma_star, lam=lam_star, objective=value, method=method,
        evaluations=evals, converged=not flat and not on_edge,
    )


# ---------------------------------------------------------------------------
# stopping


def stopping_check(history, policy):
    """Decide whether the outer iteration should stop.

    Stops at the iteration cap, when the relative residual undershoots its
    tolerance, or when the selection objective over the trailing window has
    flattened or has a net increase across the window.  Flatness compares
    consecutive changes against the first recorded objective (the natural
    scale of the sequence), so the test is invariant under rescaling the
    objective and still fires when values shrink with the subspace
    dimension.
    """
    if not history:
        raise ArgumentError("stopping check needs a nonempty history")
    last = history[-1]
    if last.k >= policy.max_iter:
        return StopDecision(True, "max_iter")
    if last.rel_residual <= policy.residual_tol:
        return StopDecision(True, "residual")
    w = policy.window
    if len(history) >= w:
        scale = max(abs(history[0].objective), np.finfo(float).tiny)
        objs = [rec.objective for rec in history[-w:]]
        if all(np.isfinite(o) for o in objs):
            rel = [(objs[i + 1] - objs[i]) / scale for i in range(w - 1)]
            if all(abs(x) < policy.flat_tol for x in rel):
                return StopDecision(True, "flat")
            if objs[-1] > objs[0]:
                return StopDecision(True, "increase")
    return StopDecision(False)
