"""Selection objectives, the joint search, and the stopping rule."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixkry.params as params_mod
from helpers import (one_cell, optimal_objective, random_problem, run_steps,
                     solve_row, state_basis, wrap_problem)
from mixkry.errors import (ArgumentError, ConditioningError, ConfigError,
                           ParameterDomainError, SearchError)
from mixkry.mixgk import mixgk_init, mixgk_step
from mixkry.operators import PriorSpec
from mixkry.params import (METHODS, RunRecord, SearchConfig, SelectionResult,
                           StoppingPolicy, objective_cells, select_params,
                           stopping_check)
from mixkry.projected import penalty_basis, trace_term


def advance(seed, steps, m=25, n=20, q2_rank=None, noise=0.05):
    A, Q1, Q2, b, sigma = random_problem(seed, m, n, q2_rank, noise)
    Aop, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aop, q1op, q2op, b / sigma)
    run_steps(state, steps, mixgk_step)
    prior = PriorSpec(mean=np.zeros(n), q1=q1op, q2=q2op)
    return state, prior, (A, Q1, Q2, b, sigma)


def full_space_curves(A, Q, sigma, b, lambdas):
    """Dense whitened residual and influence trace of the unprojected
    problem, per lambda.  Built from the eigendecomposition of the data
    covariance so small lambdas stay well conditioned."""
    K = (A @ Q @ A.T) / sigma**2
    theta, V = np.linalg.eigh(K)
    theta = np.maximum(theta, 0.0)
    c = V.T @ (b / sigma)
    out = []
    for lam in lambdas:
        h = theta / (theta + lam * lam)
        r2 = float(np.sum(((1.0 - h) * c) ** 2))
        out.append((r2, float(np.sum(h))))
    return out


# -- objective limits and identities -------------------------------------------


def test_gcv_large_lambda_limit():
    state, _, _ = advance(0, 6)
    rows = 2 * state.k + 1
    expect = state.beta1**2 / rows**2
    assert one_cell("gcv", state, 0.7, 1e10) == pytest.approx(expect,
                                                              rel=1e-6)


def test_upre_large_lambda_limit_in_data_units():
    """UPRE flattens to ||b||^2 / (sigma^2 (2k+1)) - 1 as lambda grows: the
    whitened data's squared norm per projected row, less the unit noise
    variance."""
    state, _, parts = advance(1, 6)
    b, sigma = parts[3], parts[4]
    rows = 2 * state.k + 1
    expect = float(b @ b) / (sigma**2 * rows) - 1.0
    got = one_cell("upre", state, 1.0, 1e10)
    assert got == pytest.approx(expect, rel=1e-6)


def test_wgcv_omega_one_is_gcv():
    state, _, _ = advance(2, 5)
    for lam in (0.01, 0.3, 2.0):
        assert one_cell("wgcv", state, 0.5, lam, omega=1.0) == pytest.approx(
            one_cell("gcv", state, 0.5, lam), rel=1e-14)


def test_wgcv_rejects_nonpositive_omega():
    """WGCV reads omega from its SearchConfig, which refuses omega <= 0."""
    state, _, _ = advance(3, 4)
    with pytest.raises(ParameterDomainError):
        one_cell("wgcv", state, 1.0, 0.5, omega=0.0)
    with pytest.raises(ParameterDomainError):
        one_cell("wgcv", state, 1.0, 0.5, omega=-1.0)


def test_wgcv_vanished_denominator_raises():
    """After one step (2k+1 = 3 rows) a tiny lam drives the influence trace
    to 1 in floating point, so omega = 3 makes the denominator exactly
    zero: the cell's value is not finite.  The search scores it inf, so a
    lambda range that starts there still selects a finite cell above it."""
    state, _, _ = advance(3, 1)
    assert state.k == 1
    assert not np.isfinite(one_cell("wgcv", state, 1.0, 1e-20, omega=3.0))
    assert np.isfinite(one_cell("wgcv", state, 1.0, 1e-20, omega=2.0))
    sel = select_params("wgcv", state, SearchConfig(
        omega=3.0, gamma_fixed=1.0, log10_lambda=(-20.0, 2.0)))
    assert np.isfinite(sel.objective) and sel.lam > 1e-20


def test_select_decomposes_each_gamma_once(monkeypatch):
    """One select_params decomposes each distinct gamma it scans once: the
    grid's gammas in one trace_term call, then the new gammas of each of
    the first ``_GAMMA_ZOOMS`` zoom levels (the centre gamma is kept) in at
    most one more.  Each search's eigendecompositions are those gammas plus
    one of Gk, and a one-cell evaluator decomposes Gk once and its gamma
    once."""
    state, _, _ = advance(6, 6)
    batches = []
    decompose = params_mod.trace_term

    def recording(basis, gammas):
        batches.append(list(gammas))
        return decompose(basis, gammas)

    monkeypatch.setattr(params_mod, "trace_term", recording)
    eigh_sizes = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        eigh_sizes.append(a.shape[0] if a.ndim == 3 else 1)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = SearchConfig()
    for method in ("wgcv", "upre"):
        batches.clear()
        eigh_sizes.clear()
        select_params(method, state, cfg)
        gammas = [g for batch in batches for g in batch]
        assert len(set(gammas)) == len(gammas)
        assert batches[0] == list(np.linspace(cfg.gamma_min, 1.0,
                                              cfg.grid_gamma))
        assert 1 <= len(batches) <= 1 + params_mod._GAMMA_ZOOMS
        assert all(len(batch) <= 2 for batch in batches[1:])
        assert eigh_sizes == [1] + [len(b) for b in batches]

    for method, lam, knobs in (("upre", 0.3, {}), ("gcv", 0.3, {}),
                               ("wgcv", 0.7, {"omega": 0.5})):
        batches.clear()
        eigh_sizes.clear()
        assert np.isfinite(one_cell(method, state, 0.4, lam, **knobs))
        assert batches == [[0.4]] and eigh_sizes == [1, 1]


def test_gcv_scale_invariant_minimizer():
    """Scaling b multiplies GCV pointwise by c^2, so the minimizer and the
    whole curve shape are unchanged."""
    A, Q1, Q2, b, sigma = random_problem(5, 25, 20)
    lambdas = np.logspace(-4, 1, 20)
    curves = []
    for c in (1.0, 0.1, 10.0):
        Aop, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
        state = mixgk_init(Aop, q1op, q2op, c * b / sigma)
        run_steps(state, 8, mixgk_step)
        curves.append(objective_cells("gcv", state)([0.6], lambdas)[0][0])
    base = curves[0]
    np.testing.assert_allclose(curves[1] / base, 0.01, rtol=1e-9)
    np.testing.assert_allclose(curves[2] / base, 100.0, rtol=1e-9)
    assert np.argmin(curves[1]) == np.argmin(base) == np.argmin(curves[2])


# -- full-dimension correspondence ---------------------------------------------


@pytest.mark.parametrize("gamma", [1.0, 0.6])
def test_full_dimension_upre_affine_relation(gamma):
    """At k = n the projected UPRE is an increasing affine image of the
    full-space UPRE, both in whitened units, so the two argmins
    coincide."""
    state, prior, parts = advance(6, 30, m=20, n=15, q2_rank=8)
    A, Q1, Q2, b, sigma = parts
    assert state.k == 15 or state.terminal
    k = state.k
    rows = 2 * k + 1
    m = 20
    Q = gamma * Q1 + (1 - gamma) * Q2
    lambdas = np.logspace(-3, 1, 25)
    full = full_space_curves(A, Q, sigma, b, lambdas)

    proj_vals = objective_cells("upre", state)([gamma], lambdas)[0][0]
    full_vals = []
    for up, (r2f, trf) in zip(proj_vals, full):
        uf = (r2f + 2.0 * trf) / m - 1.0
        full_vals.append(uf)
        lhs = (up + 1.0) * rows / m
        rhs = uf + 1.0
        assert lhs == pytest.approx(rhs, rel=1e-5)
    assert np.argmin(proj_vals) == np.argmin(full_vals)


@pytest.mark.parametrize("gamma", [1.0, 0.6])
def test_full_dimension_wgcv_matches_gcv_argmin(gamma):
    """At k = n, weighted GCV with omega = (2k+1)/m is a constant multiple
    of full-space GCV; the minimizers agree."""
    state, prior, parts = advance(6, 30, m=20, n=15, q2_rank=8)
    A, Q1, Q2, b, sigma = parts
    k = state.k
    rows = 2 * k + 1
    m = 20
    omega = rows / m
    Q = gamma * Q1 + (1 - gamma) * Q2
    lambdas = np.logspace(-3, 1, 25)
    full = full_space_curves(A, Q, sigma, b, lambdas)

    ratio = (m / rows) ** 2
    proj_vals = objective_cells("wgcv", state, config=SearchConfig(
        omega=omega))([gamma], lambdas)[0][0]
    full_vals = []
    for wp, (r2f, trf) in zip(proj_vals, full):
        gf = r2f / (m - trf) ** 2
        full_vals.append(gf)
        assert wp == pytest.approx(ratio * gf, rel=1e-5)
    assert np.argmin(proj_vals) == np.argmin(full_vals)


# -- joint search ---------------------------------------------------------------


def test_select_deterministic():
    state, _, _ = advance(7, 10)
    cfg = SearchConfig()
    r1 = select_params("wgcv", state, cfg)
    r2 = select_params("wgcv", state, cfg)
    assert (r1.lam, r1.gamma, r1.objective) == (r2.lam, r2.gamma, r2.objective)
    assert isinstance(r1, SelectionResult)
    assert r1.evaluations > 0


def test_select_fixed_gamma_only_searches_lambda():
    state, _, _ = advance(8, 8)
    cfg = SearchConfig(gamma_fixed=0.37)
    res = select_params("gcv", state, cfg)
    assert res.gamma == 0.37
    assert res.lam > 0


def test_select_optimal_beats_grid_probes():
    """The truth-aware search lands at least as low as any probe pair."""
    state, prior, parts = advance(10, 12)
    A, Q1, Q2, b, sigma = parts
    rng = np.random.default_rng(1)
    s_true = rng.standard_normal(prior.mean.size)
    res = select_params("optimal", state, mean_error=prior.mean - s_true)
    check = optimal_objective(state, prior, res.gamma, res.lam, s_true)
    assert res.objective == pytest.approx(check, rel=1e-9)
    for gamma in (0.2, 0.5, 1.0):
        for lam in np.logspace(-3, 1, 7):
            assert res.objective <= check_val(state, prior, gamma, lam,
                                              s_true) * (1 + 1e-9)


def check_val(state, prior, gamma, lam, s_true):
    return optimal_objective(state, prior, gamma, lam, s_true)


def test_select_missing_requirements():
    state, _, _ = advance(11, 5)
    with pytest.raises(ConfigError):
        select_params("optimal", state, SearchConfig())
    with pytest.raises(ConfigError):
        select_params("tikhonov", state, SearchConfig())
    with pytest.raises(ConfigError, match="s_true"):
        objective_cells("optimal", state)


def test_select_upre_needs_no_noise_variance():
    """UPRE scores in whitened units, so a default SearchConfig runs it."""
    state, _, _ = advance(11, 5)
    sel = select_params("upre", state, SearchConfig())
    assert np.isfinite(sel.objective)


def _fake_factory(values):
    """An ``objective_cells`` stand-in whose cells in the row of gamma
    score ``values(gamma, lams)``.  The weights of cell (gamma, lam) are
    (gamma, lam) and its squared residual is lam, so a selection shows
    which cell it took them from."""
    def cells(gammas, lams):
        vals = np.array([values(gamma, lams) for gamma in gammas])
        G, L = np.meshgrid(gammas, lams, indexing="ij")
        return vals, np.stack([G, L], axis=-1), L.copy()

    return lambda *args: cells


def test_select_flat_grid_reports_unconverged(monkeypatch):
    """A constant objective: scan keeps the first (smallest lambda, then
    smallest gamma) cell, skips the zoom, flags converged=False."""
    state, _, _ = advance(12, 5)
    monkeypatch.setattr(params_mod, "objective_cells", _fake_factory(
        lambda gamma, lams: np.full(lams.size, 7.0)))
    cfg = SearchConfig()
    res = select_params("gcv", state, cfg)
    assert not res.converged
    assert res.lam == pytest.approx(10.0 ** cfg.log10_lambda[0])
    assert res.gamma == pytest.approx(cfg.gamma_min)
    assert res.objective == 7.0
    assert tuple(res.weights) == (res.gamma, res.lam) and res.r2 == res.lam


def test_select_all_infinite_grid_raises(monkeypatch):
    state, _, _ = advance(13, 5)
    monkeypatch.setattr(params_mod, "objective_cells", _fake_factory(
        lambda gamma, lams: np.full(lams.size, np.nan)))
    with pytest.raises(SearchError):
        select_params("gcv", state, SearchConfig())


def test_select_ties_go_to_small_lambda_then_small_gamma(monkeypatch):
    """Values one or two ulps apart tie.  Within a column the smaller
    lambda wins over a value 1 ulp lower at a larger lambda, and across
    columns the smaller gamma wins over a value 2 ulps lower at the same
    lambda, so rounding does not decide the pick."""
    state, _, _ = advance(12, 5)
    cfg = SearchConfig()
    gammas = np.linspace(cfg.gamma_min, 1.0, cfg.grid_gamma)
    lams = np.logspace(*cfg.log10_lambda, cfg.grid_lambda)
    ulp = np.spacing(1.0) / 2  # spacing just below 1.0
    cells = {(gammas[3], lams[4]): 1.0,
             (gammas[3], lams[6]): 1.0 - ulp,
             (gammas[8], lams[4]): 1.0 - 2 * ulp}

    def values(gamma, column_lams):
        vals = np.full(column_lams.size, 2.0)
        for (g, lam), value in cells.items():
            if gamma == g:
                vals[column_lams == lam] = value
        return vals

    monkeypatch.setattr(params_mod, "objective_cells",
                        _fake_factory(values))
    res = select_params("gcv", state, cfg)
    assert (res.gamma, res.lam, res.objective) == (gammas[3], lams[4], 1.0)
    assert tuple(res.weights) == (res.gamma, res.lam) and res.r2 == res.lam


@pytest.mark.parametrize("log10_lam, gamma, converged", [
    (-1.3, 0.6, True), (5.0, 2.0, False), (-9.0, 0.6, False),
    (-1.3, -1.0, False)])
def test_select_converged_only_inside_the_box(monkeypatch, log10_lam, gamma,
                                              converged):
    """The zoom homes in on an interior minimum and reports converged.  A
    minimum beyond a lambda end or below gamma_min selects that edge and
    reports converged=False; beyond gamma = 1 it selects gamma = 1, an
    edge that counts as converged."""
    state, _, _ = advance(12, 5)
    monkeypatch.setattr(params_mod, "objective_cells", _fake_factory(
        lambda g, lams: (np.log10(lams) - log10_lam) ** 2 + (g - gamma) ** 2))
    cfg = SearchConfig()
    lo, hi = cfg.log10_lambda
    res = select_params("gcv", state, cfg)
    assert res.converged is converged
    assert np.log10(res.lam) == pytest.approx(np.clip(log10_lam, lo, hi),
                                              abs=3e-3)
    assert res.gamma == pytest.approx(np.clip(gamma, cfg.gamma_min, 1.0),
                                      abs=3e-3)
    if log10_lam > hi:
        assert res.lam == 10.0 ** hi
    if gamma > 1.0:
        assert res.gamma == 1.0
    assert tuple(res.weights) == (res.gamma, res.lam) and res.r2 == res.lam


def record_blocks(monkeypatch):
    """Patch the search's cell evaluator to record the (gammas, lambdas)
    shape of every block it scores; return the list it appends to."""
    factory = params_mod.objective_cells
    blocks = []

    def counting(*args):
        cells = factory(*args)

        def cells_counted(gammas, lams):
            blocks.append((len(gammas), lams.size))
            return cells(gammas, lams)

        return cells_counted

    monkeypatch.setattr(params_mod, "objective_cells", counting)
    return blocks


@pytest.mark.parametrize("method, gamma_fixed, expect", [
    ("wgcv", None, 295), ("gcv", None, 295), ("upre", None, 295),
    ("gcv", 0.4, 55)])
def test_select_counts_grid_and_stencil_cells(monkeypatch, method,
                                              gamma_fixed, expect):
    """Every scored cell counts as one evaluation although each scan is
    scored as one block: the grid, then at most three gammas by at most
    five lambdas per zoom level, and one gamma at the levels after
    ``_GAMMA_ZOOMS`` or when gamma is pinned."""
    state, _, _ = advance(7, 10)
    blocks = record_blocks(monkeypatch)
    cfg = SearchConfig(gamma_fixed=gamma_fixed)
    res = select_params(method, state, cfg)
    columns = 1 if gamma_fixed is not None else cfg.grid_gamma
    assert blocks[0] == (columns, cfg.grid_lambda)
    assert len(blocks) == 1 + params_mod._ZOOMS
    assert max(g for g, _ in blocks[1:]) <= (1 if gamma_fixed is not None
                                             else 3)
    assert all(g == 1 for g, _ in blocks[1 + params_mod._GAMMA_ZOOMS:])
    assert max(n for _, n in blocks[1:]) <= 5
    assert res.evaluations == sum(g * n for g, n in blocks) == expect


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 15),
       q2_rank=st.integers(0, 20),
       gamma_fixed=st.one_of(st.none(), st.floats(0.01, 1.0)))
def test_select_property(seed, steps, q2_rank, gamma_fixed):
    """For every method: the selection is never worse than the best grid
    cell, lies in the search box, reports the value of a one-cell
    ``objective_cells`` call at (gamma*, lambda*) bit for bit with the
    weights and squared residual of a one-gamma row of cells there, and
    returns a pinned gamma exactly."""
    state, prior, _ = advance(seed, steps, q2_rank=q2_rank)
    s_true = np.random.default_rng(seed).standard_normal(state.n)
    err = prior.mean - s_true
    cfg = SearchConfig(gamma_fixed=gamma_fixed)
    lo, hi = cfg.log10_lambda
    gammas = ([gamma_fixed] if gamma_fixed is not None
              else np.linspace(cfg.gamma_min, 1.0, cfg.grid_gamma))
    lams = np.logspace(lo, hi, cfg.grid_lambda)
    for method in METHODS:
        cells = objective_cells(method, state, cfg, err)
        grid = cells(np.asarray(gammas), lams)[0]
        grid_best = grid[np.isfinite(grid)].min()
        sel = select_params(method, state, cfg, mean_error=err)
        assert sel.objective <= grid_best + 1e-12 * abs(grid_best)
        assert cfg.gamma_min <= sel.gamma <= 1.0
        assert np.power(10.0, lo) <= sel.lam <= np.power(10.0, hi)
        if gamma_fixed is not None:
            assert sel.gamma == gamma_fixed
        point = objective_cells(method, state, cfg, err)([sel.gamma],
                                                         [sel.lam])[0]
        assert sel.objective == point[0, 0]
        Y, r2, _ = solve_row(state_basis(state), sel.gamma, [sel.lam])
        assert (sel.weights == Y[0]).all() and sel.r2 == r2[0]


def test_warm_window_matches_cold_search_property(monkeypatch):
    """A search warm-started from a cell of the grid scans the 5 x 5 window
    around it and falls back to the full grid exactly when the window's
    best cell lies on a window edge other than gamma = 1 or its finite
    values are all equal.  It returns the cold search's gamma, lambda,
    objective, weights and r2 bit for bit whenever its window holds the
    full grid's best cell or it falls back, and ``evaluations`` counts
    exactly the cells it scanned.  Each case starts once at the grid's
    best cell and once at a drawn offset from it; both the case where the
    window's own pick stands and the fallback occur.  At a step count that
    is a multiple of ``_RESCAN`` the warm search is the cold one."""
    factory = params_mod.objective_cells
    blocks = record_blocks(monkeypatch)
    seen = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 15),
           q2_rank=st.integers(0, 20), method=st.sampled_from(METHODS),
           gamma_fixed=st.one_of(st.none(), st.floats(0.01, 1.0)),
           shift=st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    def check(seed, steps, q2_rank, method, gamma_fixed, shift):
        state, prior, _ = advance(seed, steps, q2_rank=q2_rank)
        s_true = np.random.default_rng(seed).standard_normal(state.n)
        err = prior.mean - s_true
        cfg = SearchConfig(gamma_fixed=gamma_fixed)
        gammas = (np.array([gamma_fixed]) if gamma_fixed is not None
                  else np.linspace(cfg.gamma_min, 1.0, cfg.grid_gamma))
        log10_lams = np.linspace(*cfg.log10_lambda, cfg.grid_lambda)
        vals = factory(method, state, cfg, err)(gammas,
                                                10.0 ** log10_lams)[0]
        vals = np.where(np.isfinite(vals), vals, np.inf)

        def pick(rows, cols):
            """The grid index of the search's best cell in a block."""
            best = None
            for i, j in enumerate(params_mod._pick(vals[rows, cols])):
                i, j = i + rows.start, j + cols.start
                cand = (vals[i, j], log10_lams[j], gammas[i], i, j)
                if params_mod._better(cand, best):
                    best = cand
            return best[3:]

        bi, bj = pick(slice(0, None), slice(0, None))
        cold = select_params(method, state, cfg, mean_error=err)
        full = (gammas.size, log10_lams.size)
        for di, dj in ((0, 0), shift):
            i = int(np.clip(bi + di, 0, gammas.size - 1))
            j = int(np.clip(bj + dj, 0, log10_lams.size - 1))
            start = dataclasses.replace(cold, gamma=float(gammas[i]),
                                        lam=float(10.0 ** log10_lams[j]))
            blocks.clear()
            warm = select_params(method, state, cfg, start=start,
                                 mean_error=err)
            assert warm.evaluations == sum(g * n for g, n in blocks)
            if not state.k % params_mod._RESCAN:
                assert blocks[0] == full
                assert warm == cold
                continue
            rows = slice(max(i - 2, 0), min(i + 3, gammas.size))
            cols = slice(max(j - 2, 0), min(j + 3, log10_lams.size))
            assert blocks[0] == (rows.stop - rows.start,
                                 cols.stop - cols.start)
            wi, wj = pick(rows, cols)
            window = vals[rows, cols]
            finite = window[window < np.inf]
            fell_back = len(blocks) > 1 and blocks[1] == full
            assert fell_back == (
                not finite.size or finite.max() == finite.min()
                or wj in (cols.start, cols.stop - 1)
                or (gamma_fixed is None and gammas[wi] != 1.0
                    and wi in (rows.start, rows.stop - 1)))
            if not fell_back and (wi, wj) != (bi, bj):
                continue
            seen.add("fallback" if fell_back else "window")
            assert (warm.gamma, warm.lam, warm.objective, warm.r2) == (
                cold.gamma, cold.lam, cold.objective, cold.r2)
            assert (warm.weights == cold.weights).all()

    check()
    assert seen == {"fallback", "window"}


@pytest.mark.parametrize("lo, hi", [(3.0, -2.0), (2.0, 2.0), (np.nan, 2.0),
                                    (-6.0, np.inf), (-6.0, 150.5),
                                    (-150.5, 2.0)])
def test_search_config_rejects_bad_lambda_range(lo, hi):
    """A reversed, empty or non-finite lambda range, or one reaching beyond
    [-150, 150], fails at construction with the class the CLI maps to exit
    2."""
    with pytest.raises(ParameterDomainError, match="log10_lambda"):
        SearchConfig(log10_lambda=(lo, hi))
    assert SearchConfig(log10_lambda=(-150.0, 150.0)).log10_lambda == (
        -150.0, 150.0)


def test_search_config_validation():
    with pytest.raises(ParameterDomainError):
        SearchConfig(gamma_min=0.0)
    with pytest.raises(ParameterDomainError):
        SearchConfig(gamma_fixed=1.5)
    with pytest.raises(ArgumentError):
        SearchConfig(grid_lambda=1)


@pytest.mark.parametrize("name", ["omega"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_search_config_rejects_bad_omega_sigma2(name, value):
    """A given omega that is not finite and positive fails at
    construction with the class the CLI maps to exit 2, not later as a
    search with no finite objective or with meaningless scores."""
    with pytest.raises(ParameterDomainError, match=name):
        SearchConfig(**{name: value})
    assert getattr(SearchConfig(**{name: 0.5}), name) == 0.5


# -- batching --------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 15),
       q2_rank=st.integers(0, 20), gamma_mid=st.floats(0.01, 1.0))
def test_batched_cells_match_single_gamma_property(seed, steps, q2_rank,
                                                   gamma_mid):
    """For every method, scoring a set of gammas in one batch gives values,
    weights and squared residuals bit-identical to scoring each gamma alone,
    and those equal a one-cell ``objective_cells`` call and a one-gamma row
    at the same cell.  With the penalty made indefinite (Gk = -I, so
    P = (2 gamma - 1) I) the batch path raises ConditioningError as soon as
    one gamma <= 1/2 is in it."""
    state, prior, _ = advance(seed, steps, q2_rank=q2_rank)
    s_true = np.random.default_rng(seed).standard_normal(state.n)
    err = prior.mean - s_true
    cfg = SearchConfig()
    gammas = np.append(np.linspace(cfg.gamma_min, 1.0, 5), gamma_mid)
    lams = np.logspace(*cfg.log10_lambda, 7)
    basis = state_basis(state)
    for method in METHODS:
        batch = objective_cells(method, state, cfg, err)(gammas, lams)
        for i, gamma in enumerate(gammas):
            alone = objective_cells(method, state, cfg, err)([gamma], lams)
            for got, want in zip(batch, alone):
                assert (got[i] == want[0]).all()
            for j, lam in enumerate(lams):
                vals, Y, r2 = (part[i, j] for part in batch)
                point = objective_cells(method, state, cfg, err)(
                    [gamma], [lam])[0][0, 0]
                y, r2_point, _ = solve_row(basis, gamma, [lam])
                assert vals == point or (np.isnan(vals) and np.isnan(point))
                assert (Y == y[0]).all() and r2 == r2_point[0]

    bad = penalty_basis(basis.B, basis.C, basis.Rup, -np.eye(state.k),
                        basis.beta1)
    with pytest.raises(ConditioningError):
        trace_term(bad, [0.9, 0.5, 1.0])
    with pytest.raises(ConditioningError):
        trace_term(bad, gammas)
    mu, c, T = trace_term(bad, [0.75, 1.0])
    assert np.isfinite(mu).all() and np.isfinite(T).all()



# -- stopping -------------------------------------------------------------------


def rec(k, obj, res=0.5):
    sel = SelectionResult(gamma=1.0, lam=0.1, objective=obj, evaluations=1,
                          converged=True, weights=np.zeros(k), r2=0.0)
    return RunRecord(k=k, selection=sel, rel_residual=res)


def test_stop_flat_two_point_example():
    """Objectives 5 and 5(1 - 1e-9) with window 2 and tol 1e-6 are flat."""
    policy = StoppingPolicy(max_iter=100, flat_tol=1e-6, window=2)
    hist = [rec(1, 5.0), rec(2, 5.0 * (1 - 1e-9))]
    assert stopping_check(hist, policy) == "flat"


def test_stop_flat_uses_first_objective_scale():
    """The same absolute drift is flat against a large first objective and
    live against a small one."""
    policy = StoppingPolicy(flat_tol=1e-4, window=3)
    big = [rec(1, 1000.0), rec(2, 999.99), rec(3, 999.98)]
    small = [rec(1, 0.01), rec(2, 0.0), rec(3, -0.01)]
    assert stopping_check(big, policy) == "flat"
    assert stopping_check(small, policy) is None


def test_stop_residual():
    policy = StoppingPolicy(residual_tol=1e-6)
    hist = [rec(1, 3.0), rec(2, 2.0, res=1e-7)]
    assert stopping_check(hist, policy) == "residual"


def test_stop_increase_over_window():
    policy = StoppingPolicy(flat_tol=1e-8, window=3)
    hist = [rec(1, 1.0), rec(2, 1.5), rec(3, 2.0)]
    assert stopping_check(hist, policy) == "increase"


def test_stop_max_iter_wins():
    policy = StoppingPolicy(max_iter=3, residual_tol=1e-6)
    hist = [rec(1, 1.0), rec(2, 1.0), rec(3, 1.0, res=1e-9)]
    assert stopping_check(hist, policy) == "max_iter"


def test_stop_waits_for_window():
    policy = StoppingPolicy(window=3)
    hist = [rec(1, 5.0), rec(2, 5.0)]
    assert stopping_check(hist, policy) is None


def test_stop_decrease_continues():
    policy = StoppingPolicy(flat_tol=1e-4, window=3)
    hist = [rec(1, 10.0), rec(2, 8.0), rec(3, 6.0)]
    assert stopping_check(hist, policy) is None


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sign=st.sampled_from([-1.0, 1.0]), base=st.floats(2e-50, 5e49),
       factors=st.lists(st.one_of(st.floats(0.5, 2.0),
                                  st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
                        min_size=1, max_size=12),
       window=st.integers(2, 5), flat_tol=st.floats(1e-12, 0.1),
       j=st.integers(-100, 100))
def test_stop_is_scale_free_property(sign, base, factors, window, flat_tol,
                                     j):
    """Nonzero objectives of magnitude in [1e-50, 1e50], all multiplied by
    2^j (exactly, with no underflow or overflow), give the same reason."""
    policy = StoppingPolicy(flat_tol=flat_tol, window=window)
    objs = [sign * base * f for f in factors]
    hist = [rec(k, obj) for k, obj in enumerate(objs, start=1)]
    scaled = [rec(k, float(np.ldexp(obj, j)))
              for k, obj in enumerate(objs, start=1)]
    assert stopping_check(scaled, policy) == stopping_check(hist, policy)


def test_stop_validation():
    with pytest.raises(ArgumentError):
        stopping_check([], StoppingPolicy())
    with pytest.raises(ArgumentError):
        StoppingPolicy(window=1)
    with pytest.raises(ArgumentError):
        StoppingPolicy(flat_tol=0.0)
    # a NaN tolerance would switch its rule off (abs(x) < nan is false),
    # and an infinite one would make it fire at once
    for tols in ({"flat_tol": np.nan}, {"flat_tol": np.inf},
                 {"residual_tol": np.nan}, {"residual_tol": np.inf},
                 {"residual_tol": -1e-6}):
        with pytest.raises(ArgumentError, match="finite"):
            StoppingPolicy(**tols)
