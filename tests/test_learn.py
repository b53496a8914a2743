"""Kernel-parameter fitting: probes, the mismatch and its estimator, and
shrinkage."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixkry.learn
import mixkry.operators
from helpers import dense_kernel
from mixkry.errors import ArgumentError, DegenerateDataError
from mixkry.learn import (fit_bounds, frobenius_mismatch,
                          hutchinson_objective, learn_matern,
                          rademacher_probes, rblw_gamma)
from mixkry.operators import (Grid, KernelSpec, SampleFactor,
                              build_kernel_operator, kernel_table,
                              sample_covariance)


def kernel_dense(family, nu, ell, grid):
    return dense_kernel(KernelSpec(family=family, nu=nu, ell=ell), grid)


# -- probes -------------------------------------------------------------------


def test_probes_are_signs():
    xi = rademacher_probes(10, 50, seed=3)
    assert xi.shape == (10, 50)
    assert np.all(np.abs(xi) == 1.0)
    assert xi.dtype == float
    # both signs present in a draw this large
    assert (xi == 1.0).any() and (xi == -1.0).any()


def test_probes_deterministic():
    a = rademacher_probes(6, 9, seed=11)
    b = rademacher_probes(6, 9, seed=11)
    c = rademacher_probes(6, 9, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_probes_validation():
    with pytest.raises(ArgumentError):
        rademacher_probes(0, 5, seed=0)
    with pytest.raises(ArgumentError):
        rademacher_probes(5, 0, seed=0)


# -- mismatch estimator ---------------------------------------------------------


def test_estimator_zero_when_sample_matches_kernel():
    """Qhat = K exactly (factor = Cholesky of K) kills the mismatch."""
    grid = Grid(2, 2)
    K = kernel_dense("matern", 1.5, 0.4, grid)
    S = np.linalg.cholesky(K)
    sample = SampleFactor(S, np.zeros(4))
    xi = rademacher_probes(4, 30, seed=0)
    kernel = build_kernel_operator(KernelSpec(family="matern", nu=1.5,
                                              ell=0.4), grid)
    assert hutchinson_objective(kernel, sample, xi) <= 1e-24


def test_estimator_exact_on_identity_difference():
    """K - Qhat = I: every probe contributes ||v||^2 = n, so the estimate
    equals the dense Frobenius value with no Monte-Carlo error at all."""
    grid = Grid(2, 1)
    # correlation length 1e-3 over a distance of 0.5 underflows all
    # off-diagonals
    spec = KernelSpec(family="matern", nu=0.5, ell=1e-3)
    sample = sample_covariance([np.ones(2), np.ones(2)])  # zero factor
    np.testing.assert_allclose(sample.factor, 0.0, atol=0)
    xi = rademacher_probes(2, 17, seed=5)
    val = hutchinson_objective(build_kernel_operator(spec, grid), sample, xi)
    assert val == 2.0


def test_estimator_validation():
    """Probes must be kernel.cols x M and hold only +-1."""
    grid = Grid(2, 2)
    kernel = build_kernel_operator(KernelSpec(family="matern", nu=0.5,
                                              ell=0.3), grid)
    sample = sample_covariance([np.zeros(4), np.ones(4)])
    with pytest.raises(ArgumentError):
        hutchinson_objective(kernel, sample, np.ones((3, 5)))
    with pytest.raises(ArgumentError):
        hutchinson_objective(kernel, sample, np.ones(4))
    with pytest.raises(ArgumentError):
        hutchinson_objective(kernel, sample, 0.5 * np.ones((4, 5)))


def test_estimator_converges_to_dense_frobenius():
    """Large probe count: within 5% of ||K - Qhat||_F^2 on an n=6 case."""
    rng = np.random.default_rng(2)
    grid = Grid(3, 2)
    spec = KernelSpec(family="matern", nu=1.5, ell=0.5)
    K = kernel_dense("matern", 1.5, 0.5, grid)
    samples = list(rng.standard_normal((40, 6)))
    sample = sample_covariance(samples)
    Qhat = sample.factor @ sample.factor.T
    exact = float(np.sum((K - Qhat) ** 2))
    xi = rademacher_probes(6, 2000, seed=7)
    est = hutchinson_objective(build_kernel_operator(spec, grid), sample, xi)
    assert est == pytest.approx(exact, rel=0.05)


def test_estimator_mean_within_three_standard_errors():
    """200 independent single-probe draws on a fixed n=8 instance: the mean
    sits within 3 standard errors of the dense Frobenius value."""
    rng = np.random.default_rng(4)
    grid = Grid(4, 2)
    spec = KernelSpec(family="matern", nu=2.5, ell=0.4)
    K = kernel_dense("matern", 2.5, 0.4, grid)
    samples = list(rng.standard_normal((30, 8)))
    sample = sample_covariance(samples)
    Qhat = sample.factor @ sample.factor.T
    exact = float(np.sum((K - Qhat) ** 2))

    kernel = build_kernel_operator(spec, grid)
    draws = np.array([
        hutchinson_objective(kernel, sample, rademacher_probes(8, 1, seed=s))
        for s in range(200)
    ])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) <= 3.0 * se


def test_estimator_spread_shrinks_with_more_probes():
    """More probes, smaller spread: on a fixed 4 x 3 instance the standard
    error of 6 seeded estimates at 4M probes is below the one at M."""
    rng = np.random.default_rng(3)
    grid = Grid(4, 3)
    sample = sample_covariance(list(rng.standard_normal((20, grid.n))))
    kernel = build_kernel_operator(KernelSpec("matern", nu=1.5, ell=0.4),
                                   grid)

    def standard_error(count):
        draws = [hutchinson_objective(kernel, sample,
                                      rademacher_probes(grid.n, count, seed))
                 for seed in range(6)]
        return np.std(draws, ddof=1) / np.sqrt(len(draws))

    assert standard_error(20) < standard_error(5)


def test_estimator_counts_factor_applications():
    """The estimator applies the sample factor once, to the whole probe
    block."""
    grid = Grid(3, 2)
    spec = KernelSpec(family="matern", nu=0.5, ell=0.3)
    sample = sample_covariance([np.arange(6.0), np.ones(6)])
    seen = []
    product = sample._matvec

    def counted(x):
        seen.append(x.shape)
        return product(x)

    sample._matvec = counted
    hutchinson_objective(build_kernel_operator(spec, grid), sample,
                         rademacher_probes(6, 25, seed=0))
    assert seen == [(6, 25)]


# -- exact mismatch ---------------------------------------------------------------


FAMILIES = ("squared-exponential", "matern", "gamma-exponential",
            "rational-quadratic", "sinc")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), family=st.sampled_from(FAMILIES),
       nx=st.integers(1, 7), ny=st.integers(1, 7),
       count=st.integers(2, 20), nu=st.floats(0.1, 10.0),
       ell=st.floats(1e-3, 2.0), gamma_exp=st.floats(0.1, 2.0))
def test_frobenius_mismatch_matches_dense(seed, family, nx, ny, count, nu, ell,
                                          gamma_exp):
    """The offset-table mismatch equals the dense ||K - Qhat||_F^2 to
    1e-12 relative, for every family and on rectangular grids."""
    rng = np.random.default_rng(seed)
    grid = Grid(nx, ny)
    sample = sample_covariance(list(rng.standard_normal((count, grid.n))))
    spec = KernelSpec(family=family, nu=nu, ell=ell, gamma_exp=gamma_exp)
    Qhat = sample.factor @ sample.factor.T
    exact = float(np.sum((dense_kernel(spec, grid) - Qhat) ** 2))
    assert frobenius_mismatch(grid, sample)(
        kernel_table(spec, grid)) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_frobenius_mismatch_vanishes_when_sample_is_the_kernel():
    """Qhat = K (factor = Cholesky of K): the mismatch is non-negative and
    at rounding level of ||K||_F^2."""
    grid = Grid(5, 4)
    spec = KernelSpec(family="matern", nu=1.5, ell=0.4)
    K = dense_kernel(spec, grid)
    sample = SampleFactor(np.linalg.cholesky(K), np.zeros(grid.n))
    val = frobenius_mismatch(grid, sample)(kernel_table(spec, grid))
    assert 0.0 <= val <= 1e-12 * float(np.sum(K * K))


# -- hyperparameter search -------------------------------------------------------


def test_learn_recovers_correlation_length():
    """Snapshots drawn from a known kernel: the fitted ell lands within 25%
    of the generating value."""
    rng = np.random.default_rng(9)
    grid = Grid(8, 8)
    n = grid.n
    K_true = kernel_dense("matern", 0.5, 0.2, grid)
    L = np.linalg.cholesky(K_true + 1e-12 * np.eye(n))
    X = (L @ rng.standard_normal((n, 500))).T
    res = learn_matern(sample_covariance(list(X)), grid)
    assert abs(res.ell - 0.2) / 0.2 <= 0.25
    assert 0.1 <= res.nu <= 10.0
    assert np.isfinite(res.objective)


def test_learn_zero_sample_hits_smallest_correlation_corner():
    """No variation in the data: the objective is the kernel mass alone,
    ||K||_F^2, which is smallest where the off-diagonal kernel vanishes.
    At ell = 1e-3 every nu underflows it to 0 on this two-point grid, and
    the tie keeps the first cell scored, the smallest (nu, ell) corner."""
    grid = Grid(2, 1)
    flat = [np.full(grid.n, 3.0)] * 4
    res = learn_matern(sample_covariance(flat), grid)
    assert res.ell == pytest.approx(1e-3)
    assert res.nu == pytest.approx(0.1)
    assert res.objective == grid.n


def test_learn_deterministic():
    rng = np.random.default_rng(14)
    grid = Grid(4, 4)
    X = list(rng.standard_normal((60, 16)))
    r1 = learn_matern(sample_covariance(X), grid)
    r2 = learn_matern(sample_covariance(X), grid)
    assert (r1.nu, r1.ell, r1.objective) == (r2.nu, r2.ell, r2.objective)


def test_learn_scores_kernel_tables_only(monkeypatch):
    """A fit builds no kernel operator: each candidate costs one kernel
    table, at most 63 grid cells plus 8 zoom levels of 8 points.  The
    tables come from kernel_tables, which evaluates the profile once per
    run of equal nu: at most 7 grid rows plus 3 nu per zoom level."""
    rng = np.random.default_rng(3)
    grid = Grid(6, 5)
    sample = sample_covariance(list(rng.standard_normal((12, grid.n))))
    builds, calls = [], []
    tables = mixkry.learn.kernel_tables

    def counted_tables(specs, g):
        calls.append(list(specs))
        return tables(specs, g)

    # the module does not import the operator builder at all
    assert not hasattr(mixkry.learn, "build_kernel_operator")
    monkeypatch.setattr(mixkry.operators, "build_kernel_operator",
                        lambda *args: builds.append(args))
    monkeypatch.setattr(mixkry.learn, "kernel_tables", counted_tables)
    learn_matern(sample, grid)
    assert builds == []
    assert 63 < sum(map(len, calls)) <= 127
    runs = sum(len(list(groupby(spec.nu for spec in specs)))
               for specs in calls)
    assert runs <= 7 + 3 * 8


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), nx=st.integers(2, 6),
       ny=st.integers(2, 6), count=st.integers(2, 30))
def test_learn_search_properties(seed, nx, ny, count):
    """On random snapshots the search returns a point inside its box that
    scores no worse than the best 7 x 9 grid cell, with the exact mismatch
    of that very point, deterministically; the zoom scores at most 8 new
    points per level and never re-scores a centre."""
    rng = np.random.default_rng(seed)
    grid = Grid(nx, ny)
    sample = sample_covariance(list(rng.standard_normal((count, grid.n))))
    mismatch = frobenius_mismatch(grid, sample)

    def objective(nu, ell):
        return mismatch(kernel_table(
            KernelSpec(family="matern", nu=nu, ell=ell), grid))

    scored = []
    tables = mixkry.learn.kernel_tables

    def recording(specs, g):
        scored.extend((spec.nu, spec.ell) for spec in specs)
        return tables(specs, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mixkry.learn, "kernel_tables", recording)
        res = learn_matern(sample, grid)

    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)
    assert nu_lo <= res.nu <= nu_hi and ell_lo <= res.ell <= ell_hi
    grid_best = min(objective(nu, ell)
                    for nu in np.logspace(np.log10(nu_lo), np.log10(nu_hi), 7)
                    for ell in np.logspace(np.log10(ell_lo), np.log10(ell_hi),
                                           9))
    assert res.objective <= grid_best
    assert res.objective == objective(res.nu, res.ell)
    assert 63 < len(scored) <= 63 + 8 * 8
    assert scored.count((res.nu, res.ell)) == 1
    again = learn_matern(sample, grid)
    assert (again.nu, again.ell, again.objective) == (res.nu, res.ell,
                                                      res.objective)


@pytest.mark.parametrize("family", ["squared-exponential",
                                    "gamma-exponential", "sinc"])
def test_learn_searches_only_the_parameters_the_family_reads(monkeypatch,
                                                              family):
    """A family that reads one of (nu, ell) has only that one searched: 9
    ell (or 7 nu) grid points and 2 per zoom level, at most 25 scores, with
    the other parameter held at its box's lower end throughout.  The fit
    scores no worse than the best point of its one-dimensional grid."""
    rng = np.random.default_rng(4)
    grid = Grid(6, 5)
    sample = sample_covariance(list(rng.standard_normal((12, grid.n))))
    scored = []
    tables = mixkry.learn.kernel_tables

    def recording(specs, g):
        scored.extend(specs)
        return tables(specs, g)

    monkeypatch.setattr(mixkry.learn, "kernel_tables", recording)
    res = learn_matern(sample, grid, family=family)
    (nu_lo, nu_hi), (ell_lo, ell_hi) = fit_bounds(grid)
    searched = "nu" if family == "sinc" else "ell"
    held, lo = ("ell", ell_lo) if searched == "nu" else ("nu", nu_lo)
    assert len(scored) <= 25
    assert all(getattr(spec, held) == pytest.approx(lo) for spec in scored)
    assert getattr(res, held) == pytest.approx(lo)
    mismatch = frobenius_mismatch(grid, sample)
    box = (nu_lo, nu_hi) if searched == "nu" else (ell_lo, ell_hi)
    points = np.logspace(*np.log10(box), 7 if searched == "nu" else 9)
    assert res.objective <= min(
        mismatch(kernel_table(KernelSpec(family=family,
                                         **{searched: float(x)}), grid))
        for x in points)


def test_learn_validation():
    """A sample of the wrong dimension, or a kernel table of the wrong
    shape, is refused."""
    grid = Grid(3, 2)
    wrong = sample_covariance([np.zeros(5), np.ones(5)])
    with pytest.raises(ArgumentError):
        learn_matern(wrong, grid)
    with pytest.raises(ArgumentError):
        frobenius_mismatch(grid, wrong)
    mismatch = frobenius_mismatch(
        grid, sample_covariance([np.zeros(6), np.ones(6)]))
    table = kernel_table(KernelSpec(family="matern", nu=0.7, ell=0.3), grid)
    assert np.isfinite(mismatch(table))
    with pytest.raises(ArgumentError):
        mismatch(table.T)


# -- shrinkage weight -------------------------------------------------------------


def test_rblw_identity_like_sample_fully_shrinks():
    """Qhat proportional to the identity: the formula degenerates and the
    weight pins at one."""
    sample = SampleFactor(0.7 * np.eye(5), np.zeros(5))
    assert rblw_gamma(sample) == 1.0


def test_rblw_single_snapshot_fully_shrinks():
    assert rblw_gamma(sample_covariance([np.arange(4.0)])) == 1.0


def test_rblw_structured_sample_shrinks_little():
    """Many snapshots of a strongly structured covariance: weight well
    below one (the data speaks for itself)."""
    rng = np.random.default_rng(20)
    n, N = 40, 400
    u = rng.standard_normal(n)
    X = [np.sqrt(8.0) * rng.standard_normal() * u +
         0.05 * rng.standard_normal(n) for _ in range(N)]
    g = rblw_gamma(sample_covariance(X))
    assert 0 < g < 0.2


def test_rblw_range_property():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(2, 30))
        n = int(rng.integers(2, 25))
        g = rblw_gamma(sample_covariance(list(rng.standard_normal((N, n)))))
        assert 0 < g <= 1.0


def test_rblw_empty_rejected():
    with pytest.raises(DegenerateDataError):
        rblw_gamma(SampleFactor(np.zeros((4, 0)), np.zeros(4)))
