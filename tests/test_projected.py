"""Projected subproblem: assembly, solves, recovery, and dense MAP oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (dense_map, optimal_objective, random_problem,
                     residual_and_trace_reference, run_steps, solve_map_dense,
                     solve_projected_reference, wrap_problem)
from mixkry.cli import run_hybrid
from mixkry.errors import (ArgumentError, ConditioningError, MixkryError,
                           ParameterDomainError)
from mixkry.mixgk import mixgk_init, mixgk_step
from mixkry.operators import (LinearOperator, PriorSpec, noise_whitener,
                              zero_operator)
from mixkry.params import (METHODS, SearchConfig, StoppingPolicy,
                           _objective_factory)
from mixkry.projected import (ProjectedSystem, build_projected,
                              penalty_basis, recover_iterate, solve_column)

# a log10 lambda range wider than any search box, for the solve checks
_WIDE_LOG10_LAMBDA = (-8.0, 8.0)


def advance(seed, steps, m=25, n=20, q2_rank=None, noise=0.05):
    A, Q1, Q2, b, sigma = random_problem(seed, m, n, q2_rank, noise)
    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b)
    run_steps(state, steps, mixgk_step)
    prior = PriorSpec(mean=np.zeros(n), q1=q1op, q2=q2op)
    return state, prior, (A, Q1, Q2, b, sigma)


def altered(state, gamma, G=None, zero_last_column=False):
    """The state's system at gamma, rebuilt from its blocks with G replaced
    or with the last column of Dk zeroed at every gamma."""
    basis = state.projection_grams()
    B, C, Rup = basis.B.copy(), basis.C.copy(), basis.Rup.copy()
    if zero_last_column:
        B[:, -1] = C[:, -1] = Rup[:, -1] = 0.0
    basis = penalty_basis(B, C, Rup, basis.G if G is None else G,
                          basis.beta1)
    return ProjectedSystem(basis, gamma)


# -- assembly -----------------------------------------------------------------


def test_gamma_one_collapses_to_bidiagonal():
    state, _, _ = advance(0, 5)
    sys = build_projected(state, 1.0)
    B = state.bidiagonal()
    r = state.Rup.shape[0]
    np.testing.assert_allclose(sys.Dk[: B.shape[0]], B, atol=1e-14)
    if r:
        np.testing.assert_allclose(sys.Dk[B.shape[0]:], 0.0, atol=0)
    assert sys.rhs[0] == pytest.approx(state.beta1)
    np.testing.assert_allclose(sys.rhs[1:], 0.0, atol=0)


def test_memoized_bidiagonal_tracks_every_step():
    """B is memoized with the Gram blocks per step; through a run that ends
    in a beta breakdown (B turns k x k) gamma = 1 assembles exactly the
    current bidiagonal, even when the previous step's memo is filled."""
    n = 8
    A = np.diag(np.repeat([1.0, 2.0, 3.0, 4.0], 2))
    Rinv, LR = noise_whitener(1.0, n)
    wrap = LinearOperator.from_matrix
    state = mixgk_init(wrap(A), Rinv, LR, wrap(np.eye(n)), zero_operator(n),
                       np.arange(1.0, n + 1))
    while not state.terminal:
        mixgk_step(state)
        build_projected(state, 0.5)
        B = state.bidiagonal()
        Dk = build_projected(state, 1.0).Dk
        assert Dk.shape == B.shape and (Dk == B).all()
    assert state.breakdown_reason == "beta"
    assert state.k == 4 and B.shape == (4, 4)


def test_q2_zero_gives_zero_gram():
    state, _, _ = advance(1, 5, q2_rank=0)
    sys = build_projected(state, 0.6)
    np.testing.assert_allclose(sys.Gk, 0.0, atol=0)
    assert sys.Dk.shape[0] == state.k + 1


def test_build_validates_inputs():
    state, _, _ = advance(2, 3)
    with pytest.raises(ParameterDomainError):
        build_projected(state, 0.0)
    with pytest.raises(ParameterDomainError):
        build_projected(state, 1.5)


def test_cached_normal_products_match_dense():
    """The memoized basis diagonalizes Gk, and its rotated blocks combine
    into U^T Dk^T Dk U and U^T Dk^T rhs at every gamma."""
    state, _, _ = advance(3, 7, q2_rank=4)
    basis = state.projection_grams()
    U = basis.U
    np.testing.assert_allclose(U.T @ U, np.eye(state.k), atol=1e-13)
    np.testing.assert_allclose(U @ np.diag(basis.g) @ U.T, state.G,
                               atol=1e-12 * np.abs(state.G).max())
    for gamma in (0.25, 0.7, 1.0):
        sys = build_projected(state, gamma)
        h = 1.0 - gamma
        Nt = (gamma * gamma * basis.grams[0] + gamma * h * basis.grams[1]
              + h * h * basis.grams[2])
        np.testing.assert_allclose(U @ Nt @ U.T, sys.Dk.T @ sys.Dk,
                                   atol=1e-10)
        ft = gamma * basis.rows[0] + h * basis.rows[1]
        np.testing.assert_allclose(U @ ft, sys.Dk.T @ sys.rhs, atol=1e-10)


# -- solves -------------------------------------------------------------------


def _solve(sys, lam):
    return solve_column(sys, [lam])[0][0]


def test_single_step_scalar_solve():
    """k=1, gamma=1: y = alpha1 beta1 / (alpha1^2 + beta2^2 + lam^2)."""
    state, _, _ = advance(4, 1)
    a1 = state.alphas[0]
    b2 = state.betas[0]
    lam = 0.37
    sys = build_projected(state, 1.0)
    y = _solve(sys, lam)
    expect = a1 * state.beta1 / (a1 * a1 + b2 * b2 + lam * lam)
    assert y.shape == (1,)
    assert y[0] == pytest.approx(expect, rel=1e-12)


def test_large_lambda_shrinks_weights():
    state, _, _ = advance(5, 6)
    sys = build_projected(state, 0.5)
    y = _solve(sys, 1e8)
    assert np.linalg.norm(y) <= 1e-12 * state.beta1


def test_solve_matches_stacked_least_squares():
    """The normal-equations solve agrees with an explicit stacked Tikhonov
    least-squares oracle built from a penalty square root."""
    state, _, _ = advance(6, 4)
    for gamma, lam in ((1.0, 0.5), (0.4, 0.9)):
        sys = build_projected(state, gamma)
        P = gamma * np.eye(sys.k) + (1 - gamma) * sys.Gk
        Lp = np.linalg.cholesky(P)
        stacked = np.vstack([sys.Dk, lam * Lp.T])
        rhs = np.concatenate([sys.rhs, np.zeros(sys.k)])
        y_ref = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        y = _solve(sys, lam)
        np.testing.assert_allclose(y, y_ref, atol=1e-10)


def test_solve_rejects_negative_lambda():
    state, _, _ = advance(7, 3)
    sys = build_projected(state, 1.0)
    with pytest.raises(ParameterDomainError):
        _solve(sys, -0.1)


# -- recovery and residual ----------------------------------------------------


def test_recover_zero_weights_returns_mean():
    state, prior, _ = advance(8, 4)
    mu = np.linspace(-1, 1, state.n)
    prior2 = PriorSpec(mean=mu, q1=prior.q1, q2=prior.q2)
    s = recover_iterate(state, prior2, 0.5, np.zeros(state.k))
    np.testing.assert_allclose(s, mu, atol=0)


def test_recover_matches_mixed_covariance_columns():
    state, prior, parts = advance(9, 5)
    A, Q1, Q2, b, sigma = parts
    y = np.arange(1.0, state.k + 1)
    for gamma in (1.0, 0.3):
        s = recover_iterate(state, prior, gamma, y)
        Q = gamma * Q1 + (1 - gamma) * Q2
        np.testing.assert_allclose(s, Q @ state.Vk @ y, atol=1e-10)


def test_recover_validates_shapes():
    state, prior, _ = advance(10, 3)
    with pytest.raises(ArgumentError):
        recover_iterate(state, prior, 1.0, np.zeros(state.k + 1))
    with pytest.raises(ParameterDomainError):
        recover_iterate(state, prior, 0.0, np.zeros(state.k))


def test_projected_residual_norm_equals_full_misfit():
    """|| Dk y - beta1 e1 ||^2 equals || L_R (A s - b) ||^2 for s recovered
    from y: for solve_column's weights and its r2, and for any y."""
    state, prior, parts = advance(12, 8)
    A, Q1, Q2, b, sigma = parts
    rng = np.random.default_rng(0)
    for gamma in (1.0, 0.55):
        sys = build_projected(state, gamma)
        Y, r2, _ = solve_column(sys, [1e-3, 0.4, 7.0])
        y_any = rng.standard_normal(state.k)
        r = sys.Dk @ y_any - sys.rhs
        for y, r2_y in [*zip(Y, r2), (y_any, r @ r)]:
            s = recover_iterate(state, prior, gamma, y)
            r_full = (A @ s - b) / sigma
            assert r2_y == pytest.approx(r_full @ r_full, rel=1e-9)


def test_projected_residual_at_zero_weights():
    """At a lam so large that the weights vanish the residual is rhs, of
    norm beta1."""
    state, _, _ = advance(13, 4)
    sys = build_projected(state, 0.8)
    Y, r2, _ = solve_column(sys, [1e12])
    assert np.linalg.norm(Y) <= 1e-20 * state.beta1
    assert np.sqrt(r2[0]) == pytest.approx(state.beta1, rel=1e-14)


# -- influence trace ----------------------------------------------------------


def _trace(sys, lam):
    return solve_column(sys, [lam])[2][0]


def test_trace_limits():
    state, _, _ = advance(14, 6)
    sys = build_projected(state, 0.6)
    assert _trace(sys, 1e9) <= 1e-10
    # full column rank data: trace tends to k as lam -> 0
    assert _trace(sys, 1e-8) == pytest.approx(state.k, abs=1e-6)
    with pytest.raises(ParameterDomainError):
        _trace(sys, 0.0)


def test_trace_single_step_scalar():
    state, _, _ = advance(15, 1)
    for gamma in (1.0, 0.5):
        sys = build_projected(state, gamma)
        d2 = float(sys.Dk[:, 0] @ sys.Dk[:, 0])
        g = float(sys.Gk[0, 0])
        lam = 0.8
        expect = d2 / (d2 + lam * lam * (gamma + (1 - gamma) * g))
        assert _trace(sys, lam) == pytest.approx(expect, rel=1e-12)


def test_trace_matches_dense_influence():
    state, _, _ = advance(16, 5)
    sys = build_projected(state, 0.4)
    lam = 0.6
    M = sys.Dk.T @ sys.Dk + lam * lam * (0.4 * np.eye(sys.k) + 0.6 * sys.Gk)
    influence = sys.Dk @ np.linalg.solve(M, sys.Dk.T)
    assert _trace(sys, lam) == pytest.approx(np.trace(influence), rel=1e-11)


def _outcome(fn, *args):
    """The value of fn(*args), or the class of the package error it raises."""
    try:
        return fn(*args)
    except MixkryError as exc:
        return type(exc)


# -- column evaluator ---------------------------------------------------------

# The eigendecompositions and the per-point Cholesky solve round differently,
# by up to the condition number (about 6e6 on these systems) times machine
# epsilon.  Over the draws below the worst relative gaps are 1.8e-11 in the
# weights (in norm), 6.8e-12 in r2, 1.4e-12 in the trace and 9.1e-12 in the
# method values; an error in the algebra shows as an O(1) gap.
_COLUMN_RTOL = 1e-10


def _column_lams():
    lo, hi = SearchConfig().log10_lambda
    blo, bhi = _WIDE_LOG10_LAMBDA
    grid = np.logspace(lo, hi, SearchConfig().grid_lambda)
    return np.concatenate([[10.0**blo], grid, [10.0**bhi]])


def _assert_column_matches_pointwise(sys, lams):
    Y, r2, tr = solve_column(sys, lams)
    for j, lam in enumerate(lams):
        y = solve_projected_reference(sys, lam)
        r2_j, tr_j = residual_and_trace_reference(sys, lam)
        assert (np.linalg.norm(Y[j] - y)
                <= _COLUMN_RTOL * np.linalg.norm(y))
        assert r2[j] == pytest.approx(r2_j, rel=_COLUMN_RTOL)
        assert tr[j] == pytest.approx(tr_j, rel=_COLUMN_RTOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 15),
       q2_rank=st.integers(0, 20), gamma_mid=st.floats(0.01, 1.0))
def test_column_evaluator_matches_pointwise_property(seed, steps, q2_rank,
                                                     gamma_mid):
    """One eigendecomposition per gamma in the step's penalty eigenbasis
    gives the pointwise weights, squared residuals, traces and method
    values of the scipy Cholesky oracle (optimal: of the full-space error)
    at every lam of a column that spans the search grid and both lam
    bounds, at gamma_min, a random gamma and 1.  Where the pointwise values single out one grid cell by
    more than 1e-9 relative, the column values pick the same cell.  A copy
    with Gk = -I fails with the class the pointwise path raises wherever
    that path fails, and agrees with it where the penalty is positive
    definite."""
    state, prior, parts = advance(seed, steps, q2_rank=q2_rank)
    s_true = np.random.default_rng(seed).standard_normal(state.n)
    cfg = SearchConfig(sigma2=parts[4] ** 2, s_true=s_true)
    gammas = (cfg.gamma_min, gamma_mid, 1.0)
    lams = _column_lams()
    for gamma in gammas:
        sys = build_projected(state, gamma)
        _assert_column_matches_pointwise(sys, lams)
        bad = altered(state, gamma, G=-np.eye(sys.k))
        # the penalty is (2 gamma - 1) I; the column evaluator needs it
        # positive definite, the pointwise path fails only where
        # lam^2 (2 gamma - 1) outweighs Dk^T Dk
        raised = {p for p in (_outcome(residual_and_trace_reference, bad, lam)
                              for lam in lams) if isinstance(p, type)}
        assert raised <= {ConditioningError}
        if gamma <= 0.5:
            assert _outcome(solve_column, bad, lams) is ConditioningError
        else:
            assert not raised
            _assert_column_matches_pointwise(bad, lams)

    for method in METHODS:
        cells = _objective_factory(method, state, prior, cfg)
        by_column = cells(np.array(gammas), lams)[0]
        by_point = np.array([[_pointwise(method, state, prior, cfg, gamma, lam)
                              for lam in lams] for gamma in gammas])
        # UPRE subtracts sigma2 from a term of that size
        atol = _COLUMN_RTOL * cfg.sigma2 if method == "upre" else 0.0
        np.testing.assert_allclose(by_column, by_point, rtol=_COLUMN_RTOL,
                                   atol=atol)
        first, second = np.sort(by_point, axis=None)[:2]
        if second - first > 1e-9 * abs(first):
            assert np.argmin(by_column) == np.argmin(by_point)


def _pointwise(method, state, prior, cfg, gamma, lam):
    """A method's value at one point from the scipy Cholesky oracle, with
    optimal assembled in full space."""
    if method == "optimal":
        return optimal_objective(state, prior, gamma, lam, cfg.s_true)
    r2, tr = residual_and_trace_reference(build_projected(state, gamma), lam)
    rows = 2 * state.k + 1
    if method == "upre":
        return cfg.sigma2 * (r2 + 2.0 * tr) / rows - cfg.sigma2
    omega = rows / state.m if method == "wgcv" else 1.0
    return r2 / (rows - omega * tr) ** 2


def test_column_evaluator_clamps_rounded_eigenvalues():
    """With a zero column in Dk the transformed matrix is singular, and its
    zero eigenvalue rounds to about +-1e-11 here.  Counted as zero when
    negative, it keeps every trace term mu / (mu + lam^2) in [0, 1], so the
    trace stays within [0, k] even at lam = 1e-8."""
    for seed in range(10):
        state, _, _ = advance(seed, 6)
        for gamma in (0.01, 0.5):
            singular = altered(state, gamma, zero_last_column=True)
            assert (singular.Dk[:, -1] == 0.0).all()
            Y, r2, tr = solve_column(singular, [1e-8, 1e-6])
            assert np.isfinite(Y).all() and np.isfinite(r2).all()
            assert np.all((tr >= 0.0) & (tr <= state.k))


def test_column_evaluator_rejects_nonpositive_lambda():
    sys = build_projected(advance(17, 3)[0], 0.5)
    for lams in ([0.1, 0.0], [-1.0], [[0.1]]):
        with pytest.raises(ParameterDomainError):
            solve_column(sys, lams)


# -- the iterate --------------------------------------------------------------


def test_run_hybrid_iterate_is_the_selected_cell():
    """run_hybrid recovers its solution from the selection's own weights and
    reports sqrt(r2) / beta1 as the relative residual, with no second solve.
    The weights match the scipy Cholesky oracle at (gamma*, lam*), and the
    residual matches the full-space misfit of the solution."""
    A, Q1, Q2, b, sigma = random_problem(30, 25, 20, q2_rank=6)
    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    prior = PriorSpec(mean=np.linspace(-0.5, 0.5, 20), q1=q1op, q2=q2op)
    result = run_hybrid(Aop, Rinv, LR, prior, b, method="wgcv",
                        policy=StoppingPolicy(max_iter=6, flat_tol=1e-12))
    state = result.state
    for rec, sel in zip(result.history, result.selections):
        assert (rec.lam, rec.gamma) == (sel.lam, sel.gamma)
        assert rec.rel_residual == np.sqrt(sel.r2) / state.beta1
    sel = result.selections[-1]
    assert sel.weights.shape == (state.k,)
    s = recover_iterate(state, prior, sel.gamma, sel.weights)
    assert (result.solution == s).all()
    y_ref = solve_projected_reference(build_projected(state, sel.gamma),
                                      sel.lam)
    assert (np.linalg.norm(sel.weights - y_ref)
            <= _COLUMN_RTOL * np.linalg.norm(y_ref))
    r = (A @ result.solution - b) / sigma
    assert result.final.rel_residual == pytest.approx(
        np.linalg.norm(r) / state.beta1, rel=1e-9)


# -- dense MAP oracle ---------------------------------------------------------


def test_dense_map_identity_problem():
    n = 4
    b = np.arange(1.0, n + 1)
    lam = 0.9
    s = solve_map_dense(np.eye(n), np.eye(n), np.eye(n), b, np.zeros(n), lam)
    np.testing.assert_allclose(s, b / (1 + lam * lam), atol=1e-14)


def test_dense_map_zero_lambda_square():
    rng = np.random.default_rng(3)
    n = 5
    A = rng.standard_normal((n, n)) + 3 * np.eye(n)
    Q = np.eye(n)
    b = rng.standard_normal(n)
    s = solve_map_dense(A, np.eye(n), Q, b, np.zeros(n), 0.0)
    np.testing.assert_allclose(s, np.linalg.solve(A, b), atol=1e-10)


def test_dense_map_agrees_with_dual_route():
    """Primal n-by-n solve vs the m-by-m dual formula."""
    rng = np.random.default_rng(7)
    m, n = 14, 9
    A = rng.standard_normal((m, n))
    B1 = rng.standard_normal((n, n))
    Q = B1 @ B1.T + 0.5 * np.eye(n)
    b = rng.standard_normal(m)
    mu = rng.standard_normal(n)
    sigma, lam = 0.4, 0.7
    s1 = solve_map_dense(A, np.eye(m) / sigma**2, Q, b, mu, lam)
    s2 = dense_map(A, sigma, Q, b, mu, lam)
    np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_dense_map_honors_prior_mean():
    rng = np.random.default_rng(8)
    m, n = 10, 6
    A = rng.standard_normal((m, n))
    Q = np.eye(n)
    mu = rng.standard_normal(n)
    # exact data from the mean: with b = A mu the estimate is mu itself
    s = solve_map_dense(A, np.eye(m), Q, A @ mu, mu, 0.5)
    np.testing.assert_allclose(s, mu, atol=1e-10)


# -- finite termination (projection exactness at k = n) ------------------------


@pytest.mark.parametrize("gamma,lam", [(1.0, 0.7), (0.5, 0.3), (0.2, 1.1)])
def test_full_run_reproduces_dense_map(gamma, lam):
    """Run to termination: the recovered iterate equals the dense MAP
    estimate for any fixed (gamma, lam)."""
    state, prior, parts = advance(20, 30, m=25, n=20, q2_rank=5)
    A, Q1, Q2, b, sigma = parts
    assert state.terminal or state.k == 20
    sys = build_projected(state, gamma)
    y = _solve(sys, lam)
    s = recover_iterate(state, prior, gamma, y)
    Q = gamma * Q1 + (1 - gamma) * Q2
    s_ref = solve_map_dense(A, np.eye(25) / sigma**2, Q, b, np.zeros(20), lam)
    err = np.linalg.norm(s - s_ref) / np.linalg.norm(s_ref)
    assert err <= 1e-8


def test_full_run_with_nonzero_mean():
    state, prior, parts = advance(21, 30, m=25, n=20, q2_rank=5)
    A, Q1, Q2, b, sigma = parts
    # recenter: feed b - A mu through a fresh process
    rng = np.random.default_rng(99)
    mu = rng.standard_normal(20)
    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b - A @ mu)
    run_steps(state, 30, mixgk_step)
    prior_mu = PriorSpec(mean=mu, q1=q1op, q2=q2op)
    gamma, lam = 0.6, 0.45
    sys = build_projected(state, gamma)
    y = _solve(sys, lam)
    s = recover_iterate(state, prior_mu, gamma, y)
    Q = gamma * Q1 + (1 - gamma) * Q2
    s_ref = solve_map_dense(A, np.eye(25) / sigma**2, Q, b, mu, lam)
    np.testing.assert_allclose(s, s_ref, atol=1e-8 * np.linalg.norm(s_ref))


def test_misfit_monotone_in_k():
    """At tiny lam the whitened misfit is nonincreasing as the space grows."""
    A, Q1, Q2, b, sigma = random_problem(22, 25, 20, 5)
    Aop, q1op, q2op, Rinv, LR = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aop, Rinv, LR, q1op, q2op, b)
    prev = np.inf
    for _ in range(12):
        if state.terminal:
            break
        mixgk_step(state)
        sys = build_projected(state, 0.5)
        r = np.sqrt(solve_column(sys, [1e-6])[1][0])
        assert r <= prev + 1e-10
        prev = r
