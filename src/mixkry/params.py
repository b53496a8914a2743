"""Regularization and mixing parameter selection, plus stopping rules.

All selection methods act on the projected system.  The joint
(gamma, lambda) search is a coarse log-spaced grid followed by Nelder-Mead
refinement and is fully deterministic.  The grid is scanned one gamma
column at a time: a column costs one ``potrf`` of the penalty and one
``syevd``, shared by all its lambda values.  Each refinement point, and
the selected point, costs one ``potrf`` plus ``potrs`` of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import (
    ArgumentError,
    ConfigError,
    DegenerateTraceError,
    ParameterDomainError,
    SearchError,
)
from .projected import (build_projected, residual_and_trace, solve_column,
                        solve_projected)

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

# log10 lambda box for the Nelder-Mead refinement
_LOG10_LAMBDA_BOUNDS = (-8.0, 8.0)


@dataclass
class SearchConfig:
    """Knobs of the deterministic (gamma, lambda) search."""

    gamma_min: float = 0.01
    gamma_fixed: float = None
    grid_gamma: int = 15
    grid_lambda: int = 15
    log10_lambda: tuple = (-6.0, 2.0)
    refine_evals: int = 200
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
    """
    if sigma2 is None or sigma2 <= 0:
        raise ConfigError("UPRE requires a positive noise variance sigma2")
    return _upre(*residual_and_trace(sys, lam), 2 * sys.k + 1, sigma2)


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
    problems, so only positivity is required.
    """
    if omega <= 0:
        raise ParameterDomainError("omega must be positive")
    rows = 2 * sys.k + 1
    r2, tr = residual_and_trace(sys, lam)
    if rows - omega * tr == 0.0:
        raise DegenerateTraceError("weighted GCV denominator vanished")
    return _wgcv(r2, tr, rows, omega)


def _wgcv(r2, tr, rows, omega):
    """r2 / (rows - omega tr)^2; a vanished denominator gives inf or nan
    on arrays, which the grid scan maps to inf."""
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
        self.P12 = Q1V.T @ W
        self.P22 = W.T @ W

    def value(self, gamma, y):
        """The squared error at weights y, or per column of a k x M block."""
        g = gamma
        h = 1.0 - gamma
        val = self.c0 + 2.0 * g * (self.b1 @ y) + 2.0 * h * (self.b2 @ y)
        val += g * g * _quad(y, self.P11)
        val += 2.0 * g * h * _quad(y, self.P12)
        val += h * h * _quad(y, self.P22)
        return val


def _quad(y, P):
    """y^T P y, per column when y is a block."""
    Py = P @ y
    return y @ Py if y.ndim == 1 else np.einsum("ij,ij->j", y, Py)


# ---------------------------------------------------------------------------
# joint search


def _objective_factory(method, state, prior, config):
    """Return ``(f, column)`` for the requested method.

    ``f(gamma, lam) -> float`` scores one point from its own Cholesky
    factor of the projected normal equations; ``column(gamma, lams) ->
    array`` scores a grid column through :func:`solve_column`.  Projected
    systems are cached per gamma, so both share assembly.
    """
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

        def f(gamma, lam):
            y = solve_projected(get_sys(gamma), lam)
            return float(cache.value(gamma, y))

        def column(gamma, lams):
            return cache.value(gamma, solve_column(get_sys(gamma), lams)[0])

        return f, column

    rows = 2 * state.k + 1
    if method == "upre":
        def f(gamma, lam):
            return upre_objective(get_sys(gamma), lam, config.sigma2)

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

        def f(gamma, lam):
            return wgcv_objective(get_sys(gamma), lam, omega)

        def score(r2, tr):
            return _wgcv(r2, tr, rows, omega)

    def column(gamma, lams):
        _, r2, tr = solve_column(get_sys(gamma), lams)
        return score(r2, tr)

    return f, column


def _better(cand, best):
    """Ordering on (value, lam, gamma): smaller value, ties to small lam
    then small gamma."""
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] < best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] < best[2]


def select_params(method, state, prior, config=None):
    """Pick (gamma, lambda) for the current subspace by grid + refinement.

    Deterministic: a log-spaced coarse grid is scanned (ties broken toward
    the smallest lambda, then the smallest gamma), then Nelder-Mead refines
    from the best cell under a hard evaluation cap.  A completely flat grid
    skips refinement and reports ``converged=False``.
    """
    if config is None:
        config = SearchConfig()
    if state.k < 1:
        raise ArgumentError("selection needs at least one completed step")
    gamma_fixed = config.gamma_fixed
    f_raw, column_raw = _objective_factory(method, state, prior, config)

    evals = 0

    def f(gamma, lam):
        nonlocal evals
        evals += 1
        try:
            val = f_raw(gamma, lam)
        except (DegenerateTraceError, ArithmeticError):
            return np.inf
        return val if np.isfinite(val) else np.inf

    if gamma_fixed is not None:
        gammas = np.array([gamma_fixed])
    else:
        gammas = np.linspace(config.gamma_min, 1.0, config.grid_gamma)
    lo, hi = config.log10_lambda
    lambdas = np.logspace(lo, hi, config.grid_lambda)

    # each column's best cell by (value, lam); _better orders the columns
    best = None
    finite_vals = []
    for gamma in gammas:
        evals += lambdas.size
        vals = column_raw(gamma, lambdas)
        finite = np.isfinite(vals)
        vals = np.where(finite, vals, np.inf)
        finite_vals.extend(vals[finite])
        i = np.lexsort((lambdas, vals))[0]
        if _better((vals[i], lambdas[i], gamma), best):
            best = (float(vals[i]), float(lambdas[i]), float(gamma))
    if not finite_vals:
        raise SearchError(f"no finite {method} objective on the search grid")

    flat = max(finite_vals) == min(finite_vals)
    converged = False
    if not flat:
        # Nelder-Mead runs on x = (log10 lam,) with gamma pinned, else on
        # (gamma, log10 lam); point(x) clamps it into the search box
        blo, bhi = _LOG10_LAMBDA_BOUNDS
        x0 = [np.log10(best[1])]
        bounds = [(blo, bhi)]
        if gamma_fixed is None:
            x0.insert(0, best[2])
            bounds.insert(0, (config.gamma_min, 1.0))

        def point(x):
            lam = float(10.0 ** min(max(x[-1], blo), bhi))
            if gamma_fixed is not None:
                return float(gamma_fixed), lam
            return float(min(max(x[0], config.gamma_min), 1.0)), lam

        res = scipy.optimize.minimize(
            lambda x: f(*point(x)), np.array(x0), method="Nelder-Mead",
            bounds=bounds,
            options={"maxfev": config.refine_evals, "xatol": 1e-6,
                     "fatol": 1e-14, "disp": False},
        )
        cand_gamma, cand_lam = point(res.x)
        cand = (float(res.fun), cand_lam, cand_gamma)
        if np.isfinite(cand[0]) and _better(cand, best):
            best = cand
        converged = bool(res.success)

    gamma_star, lam_star = best[2], best[1]
    objective = f(gamma_star, lam_star)
    if not np.isfinite(objective):
        raise SearchError("selected point has a non-finite objective")
    return SelectionResult(
        gamma=gamma_star, lam=lam_star, objective=float(objective),
        method=method, evaluations=evals, converged=converged,
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
