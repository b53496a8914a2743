"""Bidiagonalization process: recurrences, orthogonality, QR maintenance."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (OpCounter, max_principal_angle, psd_matrix,
                     qr_append_update_reference, random_problem,
                     recurrence_residual, reference_gengk, run_steps,
                     solve_map_dense, solve_row, spd_matrix, state_basis,
                     wrap_problem)
import mixkry.cli
from mixkry.cli import run_hybrid
from mixkry.errors import (ArgumentError, BreakdownError, DefinitenessError,
                           DegenerateDataError, RankError)
from mixkry.mixgk import (_givens, check_noise_pair, mixgk_init, mixgk_step,
                          qr_append_update, qr_recompute)
from mixkry.operators import (LinearOperator, PriorSpec, noise_whitener,
                              zero_operator)
from mixkry.params import StoppingPolicy
from mixkry.projected import recover_iterate

from_matrix = LinearOperator.from_matrix


def make_state(seed, m=25, n=20, q2_rank=None, noise=0.05):
    A, Q1, Q2, b, sigma = random_problem(seed, m, n, q2_rank, noise)
    Aw, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    return state, (A, Q1, Q2, b, sigma)


# -- initialization ----------------------------------------------------------


def test_init_identity_hand_case():
    """A=I2, Q1=I, b=(1,0): beta1=1, u1=(1,0), alpha1=1, v1=(1,0)."""
    A = from_matrix(np.eye(2))
    state = mixgk_init(A, from_matrix(np.eye(2)), zero_operator(2),
                       np.array([1.0, 0.0]))
    assert state.beta1 == pytest.approx(1.0)
    np.testing.assert_allclose(state.U[:, 0], [1.0, 0.0])
    assert state.alphas[0] == pytest.approx(1.0)
    np.testing.assert_allclose(state.V[:, 0], [1.0, 0.0])
    # the process carries no noise operator and no second left basis
    assert not {"Rinv", "LR", "RinvU", "Ut"} & set(vars(state))


def test_init_scaling_of_b():
    """Scaling b by c > 0 scales beta1 and leaves u1, v1 unchanged."""
    state1, parts = make_state(0)
    A, Q1, Q2, b, sigma = parts
    Aw, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
    state2 = mixgk_init(Aw, q1op, q2op, 3.5 * b / sigma)
    assert state2.beta1 == pytest.approx(3.5 * state1.beta1, rel=1e-14)
    np.testing.assert_allclose(state2.U[:, 0], state1.U[:, 0], rtol=1e-14)
    np.testing.assert_allclose(state2.V[:, 0], state1.V[:, 0], rtol=1e-14)


def test_init_weighted_norm():
    """R = 4I and b = (2,0) give beta1 = sqrt(b^T R^{-1} b) = 1: run_hybrid
    hands the process L_R b."""
    A = from_matrix(np.eye(2))
    Rinv, LR = noise_whitener(4.0, 2)
    prior = PriorSpec(mean=np.zeros(2), q1=from_matrix(np.eye(2)),
                      q2=zero_operator(2))
    result = run_hybrid(A, Rinv, LR, prior, np.array([2.0, 0.0]))
    assert result.state.beta1 == pytest.approx(1.0, rel=1e-14)


def test_init_zero_b_and_shape_mismatch():
    A = from_matrix(np.eye(3))
    with pytest.raises(DegenerateDataError):
        mixgk_init(A, from_matrix(np.eye(3)), zero_operator(3), np.zeros(3))
    with pytest.raises(ArgumentError, match="prior covariance shapes"):
        mixgk_init(A, from_matrix(np.eye(4)), zero_operator(4), np.ones(3))
    Rbad, Lbad = noise_whitener(1.0, 4)
    with pytest.raises(ArgumentError, match="noise operator shapes"):
        check_noise_pair(Rbad, Lbad, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_init_rejects_non_finite_input(bad):
    """NaN or Inf in b, in A^T u_1, in its Q1 image, in the Q2 image of a
    symmetry probe or in the L_R image of R^{-1}'s probe is bad input."""
    ident, zero = from_matrix(np.eye(3)), zero_operator(3)
    b = np.array([1.0, bad, 0.5])
    with pytest.raises(ArgumentError, match="right-hand side"):
        mixgk_init(ident, ident, zero, b)
    A_bad = np.eye(3)
    A_bad[0, 1] = bad
    with pytest.raises(ArgumentError, match=r"A\^T u_1"):
        mixgk_init(from_matrix(A_bad), ident, zero, np.ones(3))
    Q1_bad = np.eye(3)
    Q1_bad[2, 0] = bad
    with pytest.raises(ArgumentError, match="Q1 A"):
        mixgk_init(ident, from_matrix(Q1_bad), zero, np.ones(3))
    with pytest.raises(ArgumentError, match="Q2 image"):
        mixgk_init(ident, ident, from_matrix(Q1_bad), np.ones(3))
    with pytest.raises(ArgumentError, match="L_R image"):
        check_noise_pair(ident, from_matrix(Q1_bad), 3)


def test_indefinite_q1_raises_definiteness_error():
    """Q1 = -I gives alpha_1^2 = -|v|^2: not a breakdown but a bad Q1."""
    A = from_matrix(np.eye(3))
    with pytest.raises(DefinitenessError):
        mixgk_init(A, from_matrix(-np.eye(3)), zero_operator(3), np.ones(3))


def test_indefinite_q1_caught_while_stepping():
    """A Q1 positive on v_1 but negative on a later direction fails in step."""
    A = from_matrix(np.eye(2))
    state = mixgk_init(A, from_matrix(np.diag([1.0, -1.0])),
                       zero_operator(2), np.array([2.0, 1.0]))
    assert not state.terminal
    with pytest.raises(DefinitenessError):
        run_steps(state, 2, mixgk_step)


def _never_initialized(*args):
    raise AssertionError("the process started on a bad noise pair")


def test_indefinite_rinv_raises_definiteness_error(monkeypatch):
    """R^{-1} = -I beside L_R = I is not a noise pair: the pair check in
    run_hybrid rejects it before the process starts."""
    monkeypatch.setattr(mixkry.cli, "mixgk_init", _never_initialized)
    eye = from_matrix(np.eye(3))
    prior = PriorSpec(mean=np.zeros(3), q1=eye, q2=zero_operator(3))
    with pytest.raises(DefinitenessError,
                       match=r"R\^\{-1\} does not equal L_R\^T L_R"):
        run_hybrid(eye, from_matrix(-np.eye(3)), eye, prior, np.ones(3))


def test_indefinite_rinv_caught_while_stepping(monkeypatch):
    """An R^{-1} with one negative diagonal entry is positive on b; beside
    L_R = I the pair check rejects it before the first step, where it used
    to be found only on a later left direction."""
    A, Q1, Q2, b, sigma = random_problem(3, m=12, n=9)
    Rinv = from_matrix(np.diag(np.r_[np.ones(11), -1.0]))
    prior = PriorSpec(mean=np.zeros(9), q1=from_matrix(Q1),
                      q2=from_matrix(Q2))
    assert b @ Rinv.matvec(b) > 0
    monkeypatch.setattr(mixkry.cli, "mixgk_init", _never_initialized)
    with pytest.raises(DefinitenessError,
                       match=r"R\^\{-1\} does not equal L_R\^T L_R"):
        run_hybrid(from_matrix(A), Rinv, from_matrix(np.eye(12)), prior, b)


@pytest.mark.parametrize("which", ["R^{-1}", "Q1", "Q2"])
def test_non_symmetric_covariance_raises_definiteness_error(which):
    """Adding a skew part keeps x^T Q x positive but breaks symmetry; the
    two-vector probe rejects it for the inverse noise covariance (in
    run_hybrid's pair check) and for either prior covariance (at init)."""
    A, Q1, Q2, b, sigma = random_problem(8, m=12, n=9)
    B = np.random.default_rng(8).standard_normal((9, 9))
    skew = 0.5 * (B - B.T)
    if which == "Q1":
        Q1 = Q1 + skew
    elif which == "Q2":
        Q2 = Q2 + skew
    Rinv, LR = noise_whitener(sigma**2, 12)
    if which == "R^{-1}":
        # a skewed R^{-1} used to run 12 steps with no error, its U far
        # from R^{-1}-orthonormal
        B = np.random.default_rng(8).standard_normal((12, 12))
        Rinv = from_matrix((np.eye(12) + 0.15 * (B - B.T)) / sigma**2)
    prior = PriorSpec(mean=np.zeros(9), q1=from_matrix(Q1),
                      q2=from_matrix(Q2))
    with pytest.raises(DefinitenessError,
                       match=re.escape(f"{which} is not symmetric")):
        run_hybrid(from_matrix(A), Rinv, LR, prior, b)


def test_upper_triangular_q2_rejected_by_run_hybrid():
    """An upper-triangular Q2 used to run to a flat stop with no error."""
    A, Q1, Q2, b, sigma = random_problem(9, m=12, n=9)
    Rinv, LR = noise_whitener(sigma**2, 12)
    prior = PriorSpec(mean=np.zeros(9), q1=from_matrix(Q1),
                      q2=from_matrix(np.triu(Q2)))
    with pytest.raises(DefinitenessError, match="Q2 is not symmetric"):
        run_hybrid(from_matrix(A), Rinv, LR, prior, b)


def test_first_column_reproduces_b():
    """U beta1 e1 = b / sigma (the whitened b) by construction."""
    state, parts = make_state(1)
    b, sigma = parts[3], parts[4]
    np.testing.assert_allclose(state.beta1 * state.U[:, 0], b / sigma,
                               rtol=1e-14)


# -- recurrences and orthogonality (20 seeds, k <= 15) ------------------------


@pytest.mark.parametrize("seed", range(20))
def test_recurrence_suite(seed):
    """Bidiagonal relations, orthogonality, QR identity, and the stacked
    Gram identity all hold to 1e-9 at every k <= 15, for the whitened
    A / sigma (R = I)."""
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(18, 30))
    n = int(rng.integers(12, m - 2))
    state, parts = make_state(seed, m=m, n=n)
    A, Q1, Q2, b, sigma = parts
    Aw = A / sigma

    kmax = min(15, n)
    for _ in range(kmax):
        if state.terminal:
            break
        mixgk_step(state)
        k = state.k
        U, V, B = state.U, state.V[:, :k], state.bidiagonal()

        err = np.linalg.norm(Aw @ Q1 @ V - U @ B) / np.linalg.norm(B)
        assert err <= 1e-9

        # adjoint recurrence: A^T U_{k+1} = V B^T + alpha_{k+1} v e^T
        if not state.terminal and state.V.shape[1] == k + 1:
            lhs = Aw.T @ U
            rhs = V @ B.T
            rhs[:, -1] += state.alphas[k] * state.V[:, k]
            assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) <= 1e-9

        assert np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) <= 1e-10
        assert np.max(np.abs(V.T @ Q1 @ V - np.eye(k))) <= 1e-10

        # skinny QR of the Q2 branch: (I - U U^T) A Q2 V = Y Rup
        Z = Aw @ Q2 @ V
        proj = Z - U @ (U.T @ Z)
        assert np.linalg.norm(state.Y @ state.Rup - proj) <= 1e-9 * max(
            np.linalg.norm(Z), 1.0)
        r = state.Y.shape[1]
        if r > 0:
            assert np.max(np.abs(state.Y.T @ state.Y - np.eye(r))) <= 1e-10
            assert np.max(np.abs(state.Y.T @ U)) <= 1e-10
        np.testing.assert_allclose(state.C, U.T @ Z, atol=1e-9)


@pytest.mark.parametrize("gamma", [0.3, 0.8, 1.0])
def test_stacked_gram_identity(gamma):
    """D_k(g)^T D_k(g) equals (L_R A Q V_k)^T (L_R A Q V_k) entrywise."""
    state, parts = make_state(7, m=22, n=16)
    A, Q1, Q2, b, sigma = parts
    run_steps(state, 9, mixgk_step)
    Dk = state_basis(state).assemble([gamma])[0]
    Q = gamma * Q1 + (1 - gamma) * Q2
    M = (A @ Q @ state.V[:, :state.k]) / sigma
    np.testing.assert_allclose(Dk.T @ Dk, M.T @ M, atol=1e-9)


def test_orthogonality_long_run():
    """m=40, n=30: orthogonality holds to 1e-10 out to k=25."""
    state, _ = make_state(3, m=40, n=30)
    run_steps(state, 25, mixgk_step)
    assert state.k == 25
    gram_u = state.U.T @ state.U
    assert np.max(np.abs(gram_u - np.eye(state.num_left))) <= 1e-10


def test_matches_reference_gengk_when_q2_zero():
    """With Q2 = 0 the process on A / sigma and b / sigma has the B of the
    textbook bidiagonalization in the (R^{-1}, Q1) geometry."""
    rng = np.random.default_rng(12)
    m, n = 8, 6
    A = rng.standard_normal((m, n))
    B1 = rng.standard_normal((n, n))
    Q1 = B1 @ B1.T + 0.5 * np.eye(n)
    sigma = 0.3
    b = rng.standard_normal(m)

    Aw, q1op, q2op = wrap_problem(A, Q1, None, sigma)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    run_steps(state, 5, mixgk_step)

    B_ref, U_ref, V_ref = reference_gengk(A, sigma, Q1, b, 5)
    np.testing.assert_allclose(state.bidiagonal(), B_ref, atol=1e-12)
    assert state.Y.shape == (m, 0)
    assert state.Rup.shape[0] == 0
    np.testing.assert_allclose(state.C, 0.0, atol=0)


def test_identity_problem_beta_breakdown():
    """A=I2, Q1=I, Q2=0, b=e1: step 1 finds the solution subspace and the
    next residual vector vanishes (beta breakdown)."""
    A = from_matrix(np.eye(2))
    state = mixgk_init(A, from_matrix(np.eye(2)), zero_operator(2),
                       np.array([1.0, 0.0]))
    mixgk_step(state)
    assert state.terminal
    assert state.breakdown_reason == "beta"
    assert state.k == 1
    # truncated square bidiagonal block, relation still exact
    B = state.bidiagonal()
    assert B.shape == (1, 1)
    np.testing.assert_allclose(B, [[1.0]], atol=1e-14)


@pytest.mark.parametrize("ratio, reason", [(2e-12, "alpha"),
                                           (0.5e-12, "beta")])
def test_beta_breakdown_tolerance_is_1e_12(ratio, reason):
    """A = (1, ratio)^T, Q1 = I, b = e1: step 1 leaves a new left vector of
    size ratio against ||A Q1 v_1|| = 1.  At 2e-12 it is kept (beta_2 =
    2e-12, and the one-column A then ends on alpha); at 0.5e-12, below the
    1e-12 tolerance, it is a beta breakdown."""
    A = from_matrix(np.array([[1.0], [ratio]]))
    state = mixgk_init(A, from_matrix(np.eye(1)), zero_operator(1),
                       np.array([1.0, 0.0]))
    mixgk_step(state)
    assert state.terminal and state.breakdown_reason == reason
    assert state.betas == ([pytest.approx(ratio, rel=1e-12)]
                           if reason == "alpha" else [])


@pytest.mark.parametrize("ratio", [-2e-8, -0.5e-8])
def test_definiteness_tolerance_is_1e_8(ratio):
    """A = I, b = e1 and Q1 with first column (ratio, 1): the first form is
    x^T Q1 x = ratio ||x|| ||Q1 x||.  At -2e-8, beyond the 1e-8 roundoff
    allowance, Q1 is not positive definite; at -0.5e-8 the form is roundoff
    and reads as zero, an alpha breakdown."""
    A = from_matrix(np.eye(2))
    Q1 = from_matrix(np.array([[ratio, 1.0], [1.0, 1.0]]))
    if ratio < -1e-8:
        with pytest.raises(DefinitenessError, match="not positive definite"):
            mixgk_init(A, Q1, zero_operator(2), np.array([1.0, 0.0]))
    else:
        state = mixgk_init(A, Q1, zero_operator(2), np.array([1.0, 0.0]))
        assert state.terminal and state.breakdown_reason == "alpha"


def test_breakdown_keeps_state_consistent():
    """Rank-deficient A stops early; the truncated relation stays exact."""
    rng = np.random.default_rng(5)
    m, n, r = 15, 10, 4
    A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    B1 = rng.standard_normal((n, n))
    Q1 = B1 @ B1.T + 0.5 * np.eye(n)
    b = A @ rng.standard_normal(n)
    sigma = 1.0

    Aw, q1op, q2op = wrap_problem(A, Q1, None, sigma)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    run_steps(state, n, mixgk_step)
    assert state.terminal
    assert state.k <= r
    B = state.bidiagonal()
    U, V = state.U, state.V[:, :state.k]
    err = np.linalg.norm(A @ Q1 @ V - U @ B)
    assert err <= 1e-9 * np.linalg.norm(B)


def test_step_after_terminal_rejected():
    state, _ = make_state(2, m=10, n=6)
    run_steps(state, 6, mixgk_step)
    if not state.terminal:
        # n steps exhaust the space; the next residual must vanish
        mixgk_step(state)
    assert state.terminal
    with pytest.raises(ArgumentError):
        mixgk_step(state)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(4, 30),
       n=st.integers(3, 30), steps=st.integers(1, 15), data=st.data())
def test_recurrence_relations_property(seed, m, n, steps, data):
    """Criterion-2 relations at 1e-9 over random shapes, step counts and Q2
    ranks 0..n; with Q2 = 0 every column drops and Y stays empty."""
    q2_rank = data.draw(st.integers(0, n), label="q2_rank")
    A, Q1, Q2, b, sigma = random_problem(seed, m, n, q2_rank)
    Aw, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    prior = PriorSpec(mean=np.zeros(n), q1=q1op, q2=q2op)
    worst = 0.0
    for _ in range(steps):
        if state.terminal:
            break
        mixgk_step(state)
        worst = max(worst, recurrence_residual(state, prior, A, Q1, Q2, b,
                                               sigma))
        if q2_rank == 0:
            assert state.Y.shape == (m, 0)
            assert state.rank_drops == state.k
    assert worst <= 1e-9


def _map_error(state, prior, A, Rinv, Q1, Q2, b, gamma, lam):
    """Relative distance of the recovered iterate at (gamma, lam) from the
    dense MAP estimate."""
    y = solve_row(state_basis(state), gamma, [lam])[0][0]
    s = recover_iterate(state, prior, gamma, y)
    ref = solve_map_dense(A, Rinv, gamma * Q1 + (1 - gamma) * Q2, b,
                          prior.mean, lam)
    return np.linalg.norm(s - ref) / np.linalg.norm(ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), m=st.integers(2, 10),
       n=st.integers(2, 10), gamma=st.floats(0.05, 1.0),
       log10_lam=st.floats(-1.0, 0.5), data=st.data())
def test_map_agreement_at_termination_property(seed, m, n, gamma, log10_lam,
                                               data):
    """Criterion 1 over random small problems: once the process terminates
    (alpha breakdown at k = n, or beta breakdown at k = m when m < n), the
    recovered iterate is the MAP estimate of the mixed prior to 1e-8, for
    Q2 ranks 0..n."""
    q2_rank = data.draw(st.integers(0, n), label="q2_rank")
    A, Q1, Q2, b, sigma = random_problem(seed, m, n, q2_rank)
    Aw, q1op, q2op = wrap_problem(A, Q1, Q2, sigma)
    prior = PriorSpec(mean=np.zeros(n), q1=q1op, q2=q2op)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    run_steps(state, n + 1, mixgk_step)
    assert state.terminal and state.k == min(m, n)
    err = _map_error(state, prior, A, np.eye(m) / sigma**2, Q1, Q2, b, gamma,
                     10.0**log10_lam)
    assert err <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_run_hybrid_diagonal_noise_reaches_the_map(seed):
    """Criterion 1 through run_hybrid under a non-scalar R = diag(r), r in
    [0.5, 2], and a nonzero prior mean: run to k = n, the final iterate is
    the dense MAP estimate at the selected (gamma, lambda) to 1e-8.
    Whitening with R^{-1} in place of L_R, or not at all, moves it far
    from that estimate."""
    A, Q1, Q2, b, _ = random_problem(seed, m=14, n=9, q2_rank=4)
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 2.0, 14)
    mu = rng.standard_normal(9)
    Rinv, LR = noise_whitener(r)
    prior = PriorSpec(mean=mu, q1=from_matrix(Q1), q2=from_matrix(Q2))
    policy = StoppingPolicy(max_iter=9, residual_tol=0.0, window=10)
    result = run_hybrid(from_matrix(A), Rinv, LR, prior, b, policy=policy)
    assert result.final.k == 9
    sel = result.final.selection
    ref = solve_map_dense(A, np.diag(1.0 / r),
                          sel.gamma * Q1 + (1 - sel.gamma) * Q2, b, mu,
                          sel.lam)
    err = np.linalg.norm(result.solution - ref) / np.linalg.norm(ref)
    assert err <= 1e-8


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["alpha", "beta", "init"]),
       seed=st.integers(0, 2**31 - 1), m=st.integers(2, 8),
       n=st.integers(1, 8))
def test_first_step_breakdown_property(kind, seed, m, n):
    """A rank-one A = c w^T closes the subspace at once.

    - ``alpha``: generic b.  Step 1 finds a new left vector, but A^T
      R^{-1} u_2 is parallel to w, so alpha_2 vanishes; run_hybrid stops
      with ``breakdown:alpha`` after one iterate.
    - ``beta``: b in range(A).  A Q1 v_1 is parallel to u_1, so beta_2
      vanishes and B is 1 x 1; run_hybrid stops after one iterate, on the
      breakdown or on the residual of the exactly fitted data.
    - ``init``: b on a zero row of A, so A^T R^{-1} b = 0 exactly; the state
      is terminal at k = 0 and run_hybrid raises BreakdownError.

    At k = 1 the recovered iterate is the MAP estimate, as at any
    termination.
    """
    rng = np.random.default_rng(seed)
    c, w = rng.standard_normal(m), rng.standard_normal(n)
    r = rng.uniform(0.5, 2.0, m)
    if kind == "init":
        c[0] = 0.0
    A = np.outer(c, w)
    Q1 = spd_matrix(rng, n)
    Q2 = psd_matrix(rng, n, int(rng.integers(0, n + 1)))
    if kind == "alpha":
        b = rng.standard_normal(m)
    elif kind == "beta":
        b = A @ rng.standard_normal(n)
    else:
        b = np.zeros(m)
        b[0] = rng.uniform(0.5, 2.0)
    Rinv, LR = noise_whitener(r)
    Aop = from_matrix(A)
    prior = PriorSpec(mean=np.zeros(n), q1=from_matrix(Q1),
                      q2=from_matrix(Q2))
    white = np.sqrt(r)
    state = mixgk_init(from_matrix(A / white[:, None]), prior.q1, prior.q2,
                       b / white)
    if kind == "init":
        assert state.terminal and state.k == 0
        assert state.breakdown_reason == "alpha"
        with pytest.raises(BreakdownError):
            run_hybrid(Aop, Rinv, LR, prior, b)
        return
    assert not state.terminal
    mixgk_step(state)
    assert state.terminal and state.k == 1
    assert state.breakdown_reason == kind
    assert state.bidiagonal().shape == ((2, 1) if kind == "alpha" else (1, 1))
    err = _map_error(state, prior, A, np.diag(1.0 / r), Q1, Q2, b, 0.6, 0.5)
    assert err <= 1e-8
    result = run_hybrid(Aop, Rinv, LR, prior, b)
    assert len(result.history) == 1
    stops = {"alpha": ("breakdown:alpha",),
             "beta": ("breakdown:beta", "residual")}[kind]
    assert result.stop_reason in stops


@pytest.mark.parametrize("seed", range(5))
def test_init_breakdown_on_rounding_cancellation(seed):
    """A rank-one A = c w^T (m = 6, n = 5) and b orthogonal to R^{-1} c:
    A^T R^{-1} b cancels to rounding (about 1e-17), not to zero.  That is a
    breakdown at k = 0, judged against the size of the terms before the
    cancellation, so run_hybrid raises BreakdownError and does not iterate
    on a rounding direction."""
    rng = np.random.default_rng(seed)
    c, w = rng.standard_normal(6), rng.standard_normal(5)
    r = rng.uniform(0.5, 2.0, 6)
    b = rng.standard_normal(6)
    b -= (b @ (c / r)) / ((c / r) @ (c / r)) * (c / r)
    A = np.outer(c, w)
    assert 0 < np.linalg.norm(A.T @ (b / r)) < 1e-14
    Rinv, LR = noise_whitener(r)
    Aop = from_matrix(A)
    prior = PriorSpec(mean=np.zeros(5), q1=from_matrix(np.eye(5)),
                      q2=from_matrix(np.eye(5)))
    white = np.sqrt(r)
    state = mixgk_init(from_matrix(A / white[:, None]), prior.q1, prior.q2,
                       b / white)
    assert state.terminal and state.k == 0
    assert state.breakdown_reason == "alpha"
    with pytest.raises(BreakdownError):
        run_hybrid(Aop, Rinv, LR, prior, b)


# -- QR maintenance -----------------------------------------------------------


def test_givens_of_a_zero_pair_is_the_identity():
    """A zero pair needs no rotation: (c, s, h) = (1, 0, 0), not a 0/0."""
    assert _givens(0.0, 0.0) == (1.0, 0.0, 0.0)


def test_qr_update_orthogonal_u_is_plain_append():
    """u_new orthogonal to range(Y): deflation is a no-op and the new column
    is appended after Gram-Schmidt."""
    rng = np.random.default_rng(4)
    m = 12
    Y, _ = np.linalg.qr(rng.standard_normal((m, 3)))
    Rup = np.triu(rng.standard_normal((3, 3))) + 3 * np.eye(3)
    # build u orthogonal to range(Y)
    u = rng.standard_normal(m)
    u -= Y @ (Y.T @ u)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(m)
    v -= Y @ (Y.T @ v)
    v -= np.outer(u, u) @ v

    Y2, R2 = qr_append_update(Y.copy(), Rup.copy(), u, v.copy(),
                              input_norm=np.linalg.norm(v))
    np.testing.assert_allclose(Y2[:, :3], Y, atol=1e-12)
    np.testing.assert_allclose(R2[:3, :3], Rup, atol=1e-12)
    np.testing.assert_allclose(Y2[:, 3], v / np.linalg.norm(v), atol=1e-12)


def test_qr_update_hand_sized_vs_recompute():
    """k=2 case: the updated factors match a dense QR of the deflated data."""
    rng = np.random.default_rng(8)
    m = 9
    Z = rng.standard_normal((m, 2))
    Ut = np.zeros((m, 0))
    Y, Rup = qr_recompute(Ut, Z)
    np.testing.assert_allclose(Y @ Rup, Z, atol=1e-12)

    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    znew = rng.standard_normal(m)
    Ut2 = u[:, None]
    vhat = znew - u * (u @ znew)
    # deflate the old factors by u, then append vhat
    Y2, R2 = qr_append_update(Y, Rup, u, vhat, input_norm=np.linalg.norm(znew))
    Z2 = np.column_stack([Z, znew])
    Yref, Rref = qr_recompute(Ut2, Z2)
    np.testing.assert_allclose(Y2 @ R2, Yref @ Rref, atol=1e-10)
    assert max_principal_angle(Y2, Yref) <= 1e-10


def test_qr_update_fifty_sequential_steps():
    """Fifty random sequential updates track the dense recompute to 1e-8."""
    rng = np.random.default_rng(21)
    m = 400
    Ut = np.linalg.qr(rng.standard_normal((m, 1)))[0]
    Y = np.zeros((m, 0))
    Rup = np.zeros((0, 0))
    Z = np.zeros((m, 0))
    for _ in range(50):
        z = rng.standard_normal(m)
        Z = np.column_stack([Z, z])
        u_new = rng.standard_normal(m)
        u_new -= Ut @ (Ut.T @ u_new)
        u_new /= np.linalg.norm(u_new)
        Ut = np.column_stack([Ut, u_new])
        vhat = z - Ut @ (Ut.T @ z)
        Y, Rup = qr_append_update(Y, Rup, u_new, vhat,
                                  input_norm=np.linalg.norm(z))
        Yref, Rref = qr_recompute(Ut, Z)
        assert max_principal_angle(Y, Yref) <= 1e-8
        np.testing.assert_allclose(
            np.abs(np.diag(Rup)), np.abs(np.diag(Rref)), rtol=1e-8)
    assert Y.shape == (m, 50)


def test_qr_modes_agree_through_process():
    """The updated factors of a full run match a from-scratch recompute
    after every step while the joint basis fits (2k+1 left vectors need
    n+1 dimensions)."""
    state, _ = make_state(21, m=120, n=60)
    for _ in range(25):
        mixgk_step(state)
        Yref, Rref = qr_recompute(state.U, state.Z)
        assert max_principal_angle(state.Y, Yref) <= 1e-8
        np.testing.assert_allclose(
            np.abs(np.diag(state.Rup)), np.abs(np.diag(Rref)), rtol=1e-6)
    assert state.k == 25
    assert state.qr_fallbacks == 0


def test_q2_column_projected_twice_against_u():
    """Q2 = Q1 + 1e-10 E E^T puts A Q2 v_k within 1e-10 of span(U), so one
    projection against U cancels the column down to its rounding, which
    leaves components along U of about 1e-5 once the QR update normalizes
    it.  The second projection keeps Y orthogonal to U at rounding level."""
    A, Q1, _, b, sigma = random_problem(3, m=30, n=20)
    E = np.random.default_rng(3).standard_normal((20, 3))
    Aw, q1op, q2op = wrap_problem(A, Q1, Q1 + 1e-10 * (E @ E.T), sigma)
    state = mixgk_init(Aw, q1op, q2op, b / sigma)
    run_steps(state, 8, mixgk_step)
    assert state.Y.shape[1] > 0
    assert np.max(np.abs(state.U.T @ state.Y)) <= 1e-12


def _qr_call(update, Y, Rup, args, kwargs):
    """``update``'s (Y, Rup, flop tally), or the RankError it raises;
    asserts that it leaves its ``Y`` and ``Rup`` arguments unchanged."""
    before = Y.tobytes(), Rup.tobytes()
    counter = OpCounter()
    try:
        out = update(Y, Rup, *args, counter=counter, **kwargs)
    except RankError:
        out = None
    assert (Y.tobytes(), Rup.tobytes()) == before
    return out if out is None else (*out, counter.flops)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 40),
       steps=st.lists(st.sampled_from(
           ["deflate", "plain", "dependent", "in_range", "own_norm"]),
           min_size=1, max_size=12))
def test_qr_update_matches_two_array_reference(seed, m, steps):
    """From an empty start, random sequences of updates through the stacked
    deflation and through the two-array reference give the same (Y, Rup)
    bit for bit and the same flop tally, or both raise RankError; neither
    writes its arguments, and the returned Y is C-contiguous.  Steps deflate
    by a random unit vector, skip deflation (``u_new=None``), append a
    column inside range(Y), deflate by a vector inside range(Y) (RankError
    once Y is not empty), or give ``input_norm`` as the column's own norm
    rather than a larger raw-column norm."""
    rng = np.random.default_rng(seed)
    Y, Rup = np.zeros((m, 0)), np.zeros((0, 0))
    for kind in steps:
        u_new = rng.standard_normal(m)
        if kind == "in_range" and Y.shape[1]:
            u_new = Y @ rng.standard_normal(Y.shape[1])
        u_new /= np.linalg.norm(u_new)
        if kind in ("plain", "dependent"):
            u_new = None
        v_hat = rng.standard_normal(m)
        if kind == "dependent" and Y.shape[1]:
            v_hat = Y @ rng.standard_normal(Y.shape[1])
        kwargs = {"input_norm": (1.0 if kind == "own_norm" else 1.5)
                  * np.linalg.norm(v_hat)}
        got = _qr_call(qr_append_update, Y, Rup, (u_new, v_hat), kwargs)
        want = _qr_call(qr_append_update_reference, Y, Rup, (u_new, v_hat),
                        kwargs)
        if want is None:
            assert got is None
            continue
        assert got is not None
        for a, b in zip(got[:2], want[:2]):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert got[2] == want[2]
        assert got[0].flags.c_contiguous
        Y, Rup = got[:2]


def test_qr_update_operation_counts_scale_linearly():
    """Per-step flop tallies: O(mk) for the update vs O(mk^2) for recompute."""
    rng = np.random.default_rng(30)
    m, steps = 400, 60
    Ut = np.linalg.qr(rng.standard_normal((m, 1)))[0]
    Y = np.zeros((m, 0))
    Rup = np.zeros((0, 0))
    Z = np.zeros((m, 0))
    up_costs, re_costs = [], []
    for k in range(1, steps + 1):
        z = rng.standard_normal(m)
        Z = np.column_stack([Z, z])
        u_new = rng.standard_normal(m)
        u_new -= Ut @ (Ut.T @ u_new)
        u_new /= np.linalg.norm(u_new)
        Ut = np.column_stack([Ut, u_new])
        vhat = z - Ut @ (Ut.T @ z)

        c_up = OpCounter()
        Y, Rup = qr_append_update(Y, Rup, u_new, vhat,
                                  input_norm=np.linalg.norm(z), counter=c_up)
        c_re = OpCounter()
        qr_recompute(Ut, Z, counter=c_re)
        up_costs.append(c_up.flops)
        re_costs.append(c_re.flops)

    # growth from k=10 to k=60: linear ~6x for the update, quadratic ~36x
    up_ratio = up_costs[-1] / up_costs[9]
    re_ratio = re_costs[-1] / re_costs[9]
    assert up_ratio < 12
    assert re_ratio > 20
    assert re_costs[-1] > 5 * up_costs[-1]


def test_qr_rank_deficient_column_drops():
    """A dependent Q2-branch column leaves the basis size unchanged and is
    recorded, with Rup turning trapezoidal."""
    rng = np.random.default_rng(17)
    m, n = 20, 12
    A = rng.standard_normal((m, n))
    B1 = rng.standard_normal((n, n))
    Q1 = B1 @ B1.T + 0.5 * np.eye(n)
    Q2 = np.outer(np.ones(n), np.ones(n))  # rank one
    b = rng.standard_normal(m)
    Aw, q1op, q2op = wrap_problem(A, Q1, Q2, 1.0)
    state = mixgk_init(Aw, q1op, q2op, b)
    run_steps(state, 6, mixgk_step)
    assert state.Y.shape[1] <= 1
    assert state.rank_drops >= 5
    assert state.Rup.shape == (state.Y.shape[1], 6)
    # the trapezoidal factorization still reproduces the projected block
    Z = state.Z
    proj = Z - state.U @ (state.U.T @ Z)
    np.testing.assert_allclose(state.Y @ state.Rup, proj, atol=1e-9)
