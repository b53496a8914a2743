"""Regularization and mixing parameter selection, plus stopping rules.

All selection methods act on the projected system.  A scan hands the
gammas it has not decomposed yet in this search to one :func:`trace_term`
call, a single stacked ``eigh`` in the step's penalty eigenbasis, and then
scores every (gamma, lambda) cell of the scan through :func:`solve_cells`,
one matrix-vector product per cell.  The joint search scans a log-spaced
grid, then zooms in on the best cell with small stencils of three gammas
by five lambdas; after the first ``_GAMMA_ZOOMS`` levels the stencils hold
gamma and refine lambda alone.  A search warm-started from the previous
step's pick scans only a window of five by five grid cells around it, and
falls back to the full grid when the window's best cell lies on its edge;
every ``_RESCAN``-th step scans the full grid regardless.  A new gamma
costs an ``eigh`` and a new lambda a matrix-vector product, so both cuts
save decompositions.  The search is fully deterministic, and every point
it reports was scored by its one cell evaluator, :func:`objective_cells`,
so a cell's value is the same bits whatever block scores it.  The selected
cell's weights are the iterate, so nothing is solved again after the
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ArgumentError, ConfigError, ParameterDomainError,
                     SearchError)
from .projected import penalty_basis, solve_cells, trace_term

__all__ = [
    "SearchConfig",
    "SelectionResult",
    "StoppingPolicy",
    "RunRecord",
    "objective_cells",
    "select_params",
    "stopping_check",
    "METHODS",
]

METHODS = ("optimal", "upre", "gcv", "wgcv")

# zoom levels after the grid scan; the stencil steps halve at each level
_ZOOMS = 8
# zoom levels that refine gamma; later ones hold it and refine lambda only.
# Their gamma steps would be at most 1/32 of a grid step and cost one
# decomposition per new gamma; holding gamma there moved no final rel_error
# of the acceptance configs by more than 2e-4 relative.
_GAMMA_ZOOMS = 4
# a warm-started search scans the full grid at every step count that is a
# multiple of this, so that a pick stuck in a local window is re-examined
_RESCAN = 5
# grid cells on each side of the centre of a warm-started search's window
_WINDOW = 2
# bounds of log10 lambda: lambda^2 stays a normal float, so no cell's
# denominator over- or underflows
_LOG10_LAMBDA_LIMIT = 150.0
# objective values this close, relative to the lower one, count as tied
_TIE_RTOL = 1e-12


@dataclass
class SearchConfig:
    """Knobs of the deterministic (gamma, lambda) search.

    ``log10_lambda`` bounds the whole lambda search, grid and zoom alike;
    both ends must lie in [-150, 150].
    """

    gamma_min: float = 0.01
    gamma_fixed: float = None
    grid_gamma: int = 15
    grid_lambda: int = 15
    log10_lambda: tuple = (-6.0, 2.0)
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
        bound = _LOG10_LAMBDA_LIMIT
        if not (-bound <= lo < hi <= bound):
            raise ParameterDomainError(
                f"log10_lambda range ({lo}, {hi}) must satisfy "
                f"{-bound:g} <= lo < hi <= {bound:g}")
        omega = self.omega
        if omega is not None and not (np.isfinite(omega) and omega > 0):
            raise ParameterDomainError(
                f"omega must be finite and positive, got {omega}")


@dataclass
class SelectionResult:
    """The selected cell.  ``weights`` is y(gamma, lam) there and ``r2`` its
    squared projected residual ||Dk y - rhs||^2, both as scanned."""

    gamma: float
    lam: float
    objective: float
    method: str
    evaluations: int
    converged: bool
    weights: np.ndarray = field(repr=False, compare=False)
    r2: float


@dataclass
class StoppingPolicy:
    max_iter: int = 100
    flat_tol: float = 1e-4
    residual_tol: float = 1e-6
    window: int = 3

    def __post_init__(self):
        if self.max_iter < 1 or self.window < 2:
            raise ArgumentError("max_iter >= 1 and window >= 2 required")
        if not (0 < self.flat_tol < np.inf and 0 <= self.residual_tol < np.inf):
            raise ArgumentError("tolerances must be finite, with flat_tol > 0 "
                                "and residual_tol >= 0")


@dataclass
class RunRecord:
    """One completed outer iteration, as serialized to run.csv."""

    k: int
    lam: float
    gamma: float
    objective: float
    rel_residual: float
    rel_error: float = None


# ---------------------------------------------------------------------------
# objectives


def _upre(r2, tr, rows):
    return (r2 + 2.0 * tr) / rows - 1.0


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

    def value(self, gammas, Y):
        """The squared error at each weight vector ``Y[i, j]`` of a block
        shaped (gammas, lams, k), cell by cell like :func:`solve_cells`."""
        g = np.asarray(gammas, dtype=float)[:, None]
        h = 1.0 - g
        b = g * self.b1 + h * self.b2
        g3, h3 = g[:, :, None], h[:, :, None]
        P = (g3 * g3) * self.P11 + (g3 * h3) * self.P12 + (h3 * h3) * self.P22
        PY = np.matmul(P[:, None], Y[..., None])[..., 0]
        return self.c0 + ((2.0 * b[:, None, :] + PY) * Y).sum(axis=-1)


# ---------------------------------------------------------------------------
# joint search


def objective_cells(method, state, prior=None, config=None):
    """Return ``cells(gammas, lams) -> (values, Y, r2)``: ``method`` scored
    at every (gamma, lam) cell, one row per gamma, with the weights and
    squared residuals :func:`solve_cells` gives there.  This is the one
    evaluator :func:`select_params` scores with, so a cell's value is the
    search's own bits.  The step's Gk is decomposed once here, and each
    gamma once over all calls: the gammas a call has not seen yet go to
    one :func:`trace_term` call together.  ``config=None`` means
    ``SearchConfig()``; ``prior`` and ``config.s_true`` serve optimal only.

    UPRE, GCV and WGCV score in whitened residual units (noise variance one
    per component): the noise scale enters only through the whitener.
    UPRE is (r2 + 2 tr) / (2k+1) - 1 over the nominal projected row count
    2k+1, whatever the assembled row count turns out to be.  WGCV is
    r2 / (2k+1 - omega tr)^2 with ``config.omega``, by default (2k+1)/m,
    which can exceed one on overdetermined projected problems; GCV is
    omega = 1, and rescaling b only multiplies its value.  A vanished WGCV
    denominator gives inf or nan, which the search scores as inf.
    """
    if config is None:
        config = SearchConfig()
    if state.k < 1:
        raise ArgumentError("selection needs at least one completed step")
    if method not in METHODS:
        raise ConfigError(f"unknown selection method {method!r}")
    if method == "optimal" and config.s_true is None:
        raise ConfigError("select.method=optimal requires s_true")
    if method == "optimal" and prior is None:
        raise ArgumentError("the optimal method needs the prior")

    basis = penalty_basis(state.bidiagonal(), state.C, state.Rup, state.G,
                          state.beta1)
    rhs = basis.rhs
    known = {}  # gamma -> its (mu, c, T, Dk), each a batch of one

    def solve(gammas, lams):
        new = [g for g in gammas if g not in known]
        if new:  # one traced factorization for all the new gammas
            blocks = (*trace_term(basis, new), basis.assemble(new))
            for i, gamma in enumerate(new):
                known[gamma] = [b[i:i + 1] for b in blocks]
        if len(new) < len(gammas):
            rows = [known[g] for g in gammas]
            blocks = (rows[0] if len(rows) == 1
                      else [np.concatenate(b) for b in zip(*rows)])
        mu, c, T, Dk = blocks
        return solve_cells((mu, c, T), Dk, rhs, lams)

    if method == "optimal":
        cache = _OptimalCache(state, prior, config.s_true)

        def cells(gammas, lams):
            Y, r2, _ = solve(gammas, lams)
            return cache.value(gammas, Y), Y, r2

        return cells

    rows = 2 * state.k + 1
    if method == "upre":
        def score(r2, tr):
            return _upre(r2, tr, rows)
    else:
        omega = 1.0
        if method == "wgcv":
            omega = config.omega
            if omega is None:
                omega = (2.0 * state.k + 1.0) / state.m

        def score(r2, tr):
            return _wgcv(r2, tr, rows, omega)

    def cells(gammas, lams):
        Y, r2, tr = solve(gammas, lams)
        return score(r2, tr), Y, r2

    return cells


def _pick(vals):
    """Per row of a block whose lambdas ascend along each row, the index of
    the first value tied with the row's minimum: ties go to the smallest
    lambda."""
    low = vals.min(axis=1, keepdims=True)
    return np.argmax(vals <= low + _TIE_RTOL * np.abs(low), axis=1)


def _better(cand, best):
    """Ordering on (value, lam, gamma): smaller value, ties to small lam
    then small gamma.  Values within ``_TIE_RTOL`` of the lower one tie."""
    if best is None:
        return True
    a, b = cand[0], best[0]
    if abs(a - b) > _TIE_RTOL * abs(min(a, b)):
        return a < b
    return cand[1:3] < best[1:3]


def _distinct(stencil):
    """A sorted stencil without its repeated values (those clipping made)."""
    keep = np.ones(stencil.size, dtype=bool)
    keep[1:] = stencil[1:] != stencil[:-1]
    return stencil[keep]


def _window(grid, x):
    """The slice of the ascending ``grid`` that reaches ``_WINDOW`` cells
    either side of the cell nearest x, clipped at the grid's ends."""
    centre = int(np.argmin(np.abs(grid - x)))
    return slice(max(centre - _WINDOW, 0), centre + _WINDOW + 1)


def select_params(method, state, prior, config=None, start=None):
    """Pick (gamma, lambda) for the current subspace: grid, then zoom.

    Deterministic.  A log-spaced grid is scored as one block of cells.
    Then ``_ZOOMS`` levels each scan a stencil centred on the best cell so
    far, also as one block: gamma + h_gamma {-1, 0, 1} by
    log10 lambda + h_lambda {-2, ..., 2}, clipped to the search box, with
    both steps starting at half a grid step and halving at each level.
    Levels after the first ``_GAMMA_ZOOMS``, and every level when gamma is
    pinned, hold gamma at the centre and zoom lambda only.  Ties go to the
    smallest lambda, then the smallest gamma.

    ``start``, the previous step's :class:`SelectionResult`, warm-starts
    the search unless ``state.k`` is a multiple of ``_RESCAN``: the grid
    scan then covers only the grid cells within ``_WINDOW`` cells of the
    one nearest ``start`` in each direction (5 x 5, clipped at the grid's
    ends; 5 lambdas when gamma is pinned), whose values are the full grid's
    bits.  When the window's best cell lies on a window edge other than
    gamma = 1, or the window holds no finite or only equal values, the full
    grid is scanned as without ``start``.  The window's cells are
    decomposed and scored once; a fallback scores them again.

    ``objective``, ``weights`` and ``r2`` are the selected cell's as
    scanned, ``evaluations`` counts every scored cell, and ``converged`` is
    False for a flat grid (no zoom runs) or a selected point on an edge of
    the box other than gamma = 1.
    """
    if config is None:
        config = SearchConfig()
    gamma_fixed = config.gamma_fixed
    cells = objective_cells(method, state, prior, config)
    lo, hi = config.log10_lambda

    best = None  # (value, lam, gamma, log10 lam, weights, r2)
    evals = 0

    def scan(gammas, log10_lams):
        """Score every cell, keep the best; return the finite values."""
        nonlocal best, evals
        lams = 10.0 ** log10_lams
        vals, Y, r2 = cells(gammas, lams)
        ok = np.isfinite(vals)
        vals = np.where(ok, vals, np.inf)
        evals += vals.size
        for i, j in enumerate(_pick(vals)):
            cand = (float(vals[i, j]), float(lams[j]), float(gammas[i]),
                    float(log10_lams[j]), Y[i, j], float(r2[i, j]))
            if _better(cand, best):
                best = cand
        return vals[ok]

    if gamma_fixed is not None:
        gammas = np.array([gamma_fixed])
    else:
        gammas = np.linspace(config.gamma_min, 1.0, config.grid_gamma)
    log10_lams = np.linspace(lo, hi, config.grid_lambda)
    full = start is None or not state.k % _RESCAN
    if not full:
        window_g = gammas[_window(gammas, start.gamma)]
        window_l = log10_lams[_window(log10_lams, np.log10(start.lam))]
        finite = scan(window_g, window_l)
        g, l = best[2:4]
        full = (not finite.size or finite.max() == finite.min()
                or l in (window_l[0], window_l[-1])
                or (gamma_fixed is None and g != 1.0
                    and g in (window_g[0], window_g[-1])))
        if full:
            best = None
    if full:
        finite = scan(gammas, log10_lams)
    if not finite.size:
        raise SearchError(f"no finite {method} objective on the search grid")

    flat = finite.max() == finite.min()
    if not flat:
        h_gamma = (1.0 - config.gamma_min) / max(config.grid_gamma - 1, 1) / 2
        h_lam = (hi - lo) / (config.grid_lambda - 1) / 2
        # three gamma columns by five lambdas: only the new gammas cost a
        # decomposition, while extra lambdas are nearly free
        for level in range(_ZOOMS):
            _, _, g, l = best[:4]
            if gamma_fixed is None and level < _GAMMA_ZOOMS:
                gammas = _distinct(np.clip(g + h_gamma * np.arange(-1.0, 2.0),
                                           config.gamma_min, 1.0))
            else:
                gammas = np.array([g])
            scan(gammas, _distinct(np.clip(l + h_lam * np.arange(-2.0, 3.0),
                                           lo, hi)))
            h_gamma /= 2
            h_lam /= 2

    value, lam_star, gamma_star, l, weights, r2 = best
    on_edge = l in (lo, hi) or (gamma_fixed is None
                                and gamma_star == config.gamma_min)
    return SelectionResult(
        gamma=gamma_star, lam=lam_star, objective=value, method=method,
        evaluations=evals, converged=not flat and not on_edge,
        weights=weights.copy(), r2=r2,
    )


# ---------------------------------------------------------------------------
# stopping


def stopping_check(history, policy):
    """The reason the outer iteration should stop, or None to go on.

    Stops at the iteration cap (``"max_iter"``), when the relative residual
    undershoots its tolerance (``"residual"``), or when the selection
    objective over the trailing window has flattened (``"flat"``) or has a
    net increase across the window (``"increase"``).  Flatness compares
    consecutive changes against the first recorded objective (the natural
    scale of the sequence), so the test is invariant under rescaling the
    objective and still fires when values shrink with the subspace
    dimension.
    """
    if not history:
        raise ArgumentError("stopping check needs a nonempty history")
    last = history[-1]
    if last.k >= policy.max_iter:
        return "max_iter"
    if last.rel_residual <= policy.residual_tol:
        return "residual"
    w = policy.window
    if len(history) >= w:
        scale = max(abs(history[0].objective), np.finfo(float).tiny)
        objs = [rec.objective for rec in history[-w:]]
        if all(np.isfinite(o) for o in objs):
            rel = [(objs[i + 1] - objs[i]) / scale for i in range(w - 1)]
            if all(abs(x) < policy.flat_tol for x in rel):
                return "flat"
            if objs[-1] > objs[0]:
                return "increase"
    return None
