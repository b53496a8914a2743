"""Metamorphic properties of the whole pipeline: transforms of a problem
that the mathematics says leave the run unchanged.

The whitened process sees the data only through inner products, and it
expands on b - A mu, so an orthogonal map of the data space and a shift of
the prior mean (with the data and the truth shifted to match) give the
same steps, the same picks and the same iterates up to rounding.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import random_problem
from mixkry import cli
from mixkry.operators import LinearOperator, PriorSpec, noise_whitener
from mixkry.params import StoppingPolicy

M, N, Q2_RANK = 30, 20, 5
RULES = ("wgcv", "gcv", "upre")
# measured drift is below 1e-13; an error in a transform shows as O(1)
_RTOL = 1e-10


def solve(A, b, sigma, Q1, Q2, mean, method, s_true=None):
    """``run_hybrid`` on dense arrays with R = sigma^2 I and 15 steps at
    most; returns the result and the iterate recovered at every step."""
    wrap = LinearOperator.from_matrix
    Rinv, LR = noise_whitener(sigma**2, A.shape[0])
    prior = PriorSpec(mean=mean, q1=wrap(Q1), q2=wrap(Q2))
    iterates = []
    recover = cli.recover_iterate

    def recording(*args):
        iterates.append(recover(*args))
        return iterates[-1]

    with mock.patch.object(cli, "recover_iterate", recording):
        result = cli.run_hybrid(wrap(A), Rinv, LR, prior, b, method=method,
                                policy=StoppingPolicy(max_iter=15),
                                s_true=s_true)
    return result, iterates


def steps(result):
    return [rec.k for rec in result.history], result.stop_reason


def random_orthogonal(rng, m, permute_only):
    """A Haar-random orthogonal m x m matrix with its rows permuted, or
    the row permutation alone."""
    P = np.eye(m)[rng.permutation(m)]
    if permute_only:
        return P
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return P @ (Q * np.sign(np.diag(R)))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), permute_only=st.booleans())
def test_orthogonal_data_transform_property(seed, permute_only):
    """A -> QA and b -> Qb for an orthogonal Q (R = sigma^2 I) keep every
    step count and stop reason of wgcv, gcv and upre, and move the
    solution by at most 1e-10 relative."""
    A, Q1, Q2, b, sigma = random_problem(seed, M, N, Q2_RANK)
    Q = random_orthogonal(np.random.default_rng(seed), M, permute_only)
    mean = np.zeros(N)
    for method in RULES:
        base, _ = solve(A, b, sigma, Q1, Q2, mean, method)
        turned, _ = solve(Q @ A, Q @ b, sigma, Q1, Q2, mean, method)
        assert steps(turned) == steps(base)
        drift = np.linalg.norm(turned.solution - base.solution)
        assert drift <= _RTOL * np.linalg.norm(base.solution)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_prior_mean_shift_property(seed):
    """s_true -> s_true + delta, mu -> mu + delta and b -> b + A delta keep
    every step count and stop reason of wgcv, gcv and upre, shift every
    iterate by delta, and keep every error norm ||s - s_true||, each to
    1e-10 relative.  ``rel_error`` itself is not invariant: its
    denominator ||s_true + delta|| moves."""
    A, Q1, Q2, b, sigma = random_problem(seed, M, N, Q2_RANK)
    rng = np.random.default_rng(seed)
    s_true = rng.standard_normal(N)
    mean = 0.1 * rng.standard_normal(N)
    delta = rng.standard_normal(N)
    for method in RULES:
        base, iterates = solve(A, b, sigma, Q1, Q2, mean, method, s_true)
        moved, shifted = solve(A, b + A @ delta, sigma, Q1, Q2, mean + delta,
                               method, s_true + delta)
        assert steps(moved) == steps(base)
        assert len(shifted) == len(iterates)
        for s, t in zip(iterates, shifted):
            assert (np.linalg.norm(t - (s + delta))
                    <= _RTOL * np.linalg.norm(s + delta))
            err = np.linalg.norm(s - s_true)
            assert abs(np.linalg.norm(t - (s_true + delta)) - err) <= (
                _RTOL * err)
