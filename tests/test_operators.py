"""Operator layer: kernels, grids, sample factors, whitening, file I/O."""

import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import assume, given, settings, strategies as st

from helpers import (circulant_apply_reference, dense_kernel, grid_distances,
                     grid_points)
from mixkry.cli import _blend_with_identity
from mixkry.testproblems import crosswell_tomo, spherical_tomo
from mixkry.errors import (ArgumentError, DegenerateDataError,
                           ParameterDomainError)
from mixkry.operators import (_kve, _matern_bessel, CSRMatrix,
                              DiagonalOperator, FAMILY_PARAMS, Grid,
                              KernelSpec, MATERN_NU_MAX,
                              LinearOperator, build_kernel_operator,
                              identity_operator, kernel_eval, kernel_table,
                              kernel_tables,
                              load_matrix, load_samples, load_vector,
                              noise_whitener, PriorSpec, sample_covariance,
                              SampleFactor, save_matrix, save_vector,
                              zero_operator)


# -- kernel profiles ---------------------------------------------------------


def test_kernel_values_at_zero():
    """kappa(0) = 1 for every family (sinc by limit)."""
    specs = [
        KernelSpec("squared-exponential", ell=1.0),
        KernelSpec("matern", ell=1.0, nu=0.5),
        KernelSpec("matern", ell=0.3, nu=2.2),
        KernelSpec("gamma-exponential", ell=1.0, gamma_exp=1.5),
        KernelSpec("rational-quadratic", ell=0.1, nu=2.0),
        KernelSpec("sinc", nu=np.pi),
    ]
    for spec in specs:
        assert kernel_eval(spec, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_matern_half_closed_form():
    """nu = 1/2 is exp(-r/ell), checked against the Bessel evaluation too."""
    r = np.linspace(0.0, 3.0, 40)
    spec = KernelSpec("matern", ell=1.0, nu=0.5)
    vals = kernel_eval(spec, r)
    np.testing.assert_allclose(vals, np.exp(-r), rtol=1e-12)
    assert kernel_eval(spec, 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    # Bessel route at nu = 0.5 + tiny must agree with the closed form.
    near = KernelSpec("matern", ell=1.0, nu=0.5 + 1e-9)
    np.testing.assert_allclose(kernel_eval(near, r[1:]), np.exp(-r[1:]),
                               rtol=1e-6)


def test_matern_three_halves_and_five_halves():
    r = np.linspace(1e-3, 2.0, 25)
    for nu in (1.5, 2.5):
        ell = 0.7
        x = np.sqrt(2 * nu) * r / ell
        if nu == 1.5:
            expect = (1 + x) * np.exp(-x)
        else:
            expect = (1 + x + x**2 / 3) * np.exp(-x)
        got = kernel_eval(KernelSpec("matern", ell=ell, nu=nu), r)
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        # closed form and Bessel route agree off the half-integer shortcut
        bessel = kernel_eval(KernelSpec("matern", ell=ell, nu=nu + 1e-10), r)
        np.testing.assert_allclose(got, bessel, rtol=1e-6)


def test_matern_large_nu_approaches_squared_exponential():
    """Large nu tracks the squared-exponential at the O(1/nu) rate.

    The true distance on r <= 3 ell is ~1.8e-2 at nu = 12.5 and halves when
    nu doubles, to ~9.2e-3 at the largest order, 25.
    """
    ell = 0.5
    r = np.linspace(0.0, 3 * ell, 60)
    se = kernel_eval(KernelSpec("squared-exponential", ell=ell), r)
    d12 = np.max(np.abs(kernel_eval(KernelSpec("matern", ell=ell, nu=12.5), r) - se))
    d25 = np.max(np.abs(kernel_eval(KernelSpec("matern", ell=ell, nu=25.0), r) - se))
    assert d25 < 1e-2
    assert d25 < 0.55 * d12


def test_matern_extreme_orders_stay_finite():
    """No overflow up to the largest order, at tiny arguments too; values
    stay in (0, 1].  A larger order is rejected."""
    r = np.logspace(-9, 0.5, 120)
    for nu in (20.0, 24.9, MATERN_NU_MAX):
        vals = kernel_eval(KernelSpec("matern", ell=0.5, nu=nu), r)
        assert np.all(np.isfinite(vals))
        assert np.all((vals > 0) & (vals <= 1.0))
    with pytest.raises(ParameterDomainError, match="nu"):
        KernelSpec("matern", ell=0.5, nu=25.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nu=st.floats(0.1, 120.0),
       xs=st.lists(st.floats(-10.0, 5.0), min_size=1, max_size=40))
def test_kve_matches_scipy_property(nu, xs):
    """The numpy e^x K_nu(x) equals scipy.special.kve to 1e-12 relative
    wherever scipy's value is finite and normal, for nu in [0.1, 120] and x
    in [1e-10, 1e5] (drawn log-uniformly): across Temme's series, the
    trapezoid rule, the Hankel series and the upward recurrence."""
    x = 10.0 ** np.array(xs)
    want = scipy.special.kve(nu, x)
    with np.errstate(over="ignore"):
        got = _kve(nu, x)
    normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
    assert np.all(np.abs(got[normal] - want[normal])
                  <= 1e-12 * want[normal])


def _matern_scipy(nu, x):
    """The Matern profile at x > 0 as it was computed with scipy's kve and
    gammaln."""
    vals = np.exp(nu * np.log(x) + np.log(scipy.special.kve(nu, x))
                  - x - (nu - 1.0) * np.log(2.0) - scipy.special.gammaln(nu))
    return np.minimum(vals, 1.0)


@pytest.mark.parametrize("nu", [0.1, 0.77, 1.29, 3.3, 10.0, 25.0])
def test_matern_bessel_profile_matches_scipy(nu):
    """Above x = 1e-10 the profile equals the scipy one; below it the mpmath
    table is the reference (scipy's profile was cut to 1 there)."""
    r = np.geomspace(1e-12, 10.0, 2000)
    x = np.sqrt(2.0 * nu) * r / 0.3
    keep = x > 1e-10
    got = kernel_eval(KernelSpec("matern", ell=0.3, nu=nu), r[keep])
    np.testing.assert_allclose(got, _matern_scipy(nu, x[keep]), rtol=1e-12,
                               atol=0)


def test_matern_bessel_profile_matches_mpmath_table():
    """The Bessel profile is within 1e-12 relative of the 40-digit mpmath
    values in tests/matern_reference.csv (tools/matern_reference.py), over
    orders 1e-50 to 25 and x from 1e-100 to 1e3, wherever the true value
    exceeds 1e-300: below x = 1e-10 too, where a small order keeps the
    profile well below 1.  At x = 0 it is 1."""
    table = np.loadtxt(Path(__file__).with_name("matern_reference.csv"),
                       delimiter=",", skiprows=1)
    assert table.shape == (455, 3)
    for nu in np.unique(table[:, 0]):
        x, want = table[table[:, 0] == nu, 1:].T
        keep = want > 1e-300
        got = _matern_bessel(nu, x[keep])
        np.testing.assert_allclose(got, want[keep], rtol=1e-12, atol=0,
                                   err_msg=f"nu = {nu}")
        assert _matern_bessel(nu, np.zeros(1))[0] == 1.0


def test_rational_quadratic_formula():
    spec = KernelSpec("rational-quadratic", ell=0.1, nu=2.0)
    r = np.array([0.0, 0.05, 0.2])
    expect = (1 + r**2 / (2 * 2.0 * 0.1**2)) ** -2.0
    np.testing.assert_allclose(kernel_eval(spec, r), expect, rtol=1e-14)


def test_sinc_kernel_small_argument_limit():
    spec = KernelSpec("sinc", nu=np.pi)
    assert kernel_eval(spec, 1e-12) == pytest.approx(1.0, abs=1e-9)
    r = np.array([0.3, 1.0, 2.0])
    np.testing.assert_allclose(kernel_eval(spec, r),
                               np.sin(np.pi * r) / (np.pi * r), rtol=1e-12)


def test_gamma_exponential_formula():
    spec = KernelSpec("gamma-exponential", ell=0.4, gamma_exp=1.3)
    r = np.array([0.1, 0.5, 1.0])
    np.testing.assert_allclose(kernel_eval(spec, r),
                               np.exp(-((r / 0.4) ** 1.3)), rtol=1e-14)


def test_kernel_spec_validation():
    with pytest.raises(ParameterDomainError):
        KernelSpec("triangular")
    with pytest.raises(ParameterDomainError):
        KernelSpec("matern", ell=0.0, nu=1.0)
    with pytest.raises(ParameterDomainError):
        KernelSpec("matern", ell=1.0, nu=-2.0)
    with pytest.raises(ParameterDomainError):
        KernelSpec("gamma-exponential", ell=1.0, gamma_exp=2.5)
    with pytest.raises(ArgumentError):
        kernel_eval(KernelSpec("matern", ell=1.0, nu=0.5), -0.1)


@pytest.mark.parametrize("name", ["ell", "nu", "gamma_exp"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_kernel_spec_rejects_non_finite_parameters(name, value):
    """Every parameter must be finite, read by the family or not: an
    infinite nu would otherwise reach the Bessel profile's logarithms."""
    for family in FAMILY_PARAMS:
        with pytest.raises(ParameterDomainError, match=name):
            KernelSpec(family, **{name: value})


# -- grids and kernel operators ----------------------------------------------


def test_grid_unit_square_normalization():
    """Pixel centers live in (0,1)^2 with the longer side spanning [0,1]."""
    g = Grid(4, 4)
    pts = grid_points(g)
    assert g.n == 16
    assert pts.shape == (16, 2)
    assert pts.min() == pytest.approx(1 / 8)
    assert pts.max() == pytest.approx(7 / 8)
    # row-major: the fastest-varying coordinate is x
    np.testing.assert_allclose(pts[1] - pts[0], [0.25, 0.0])


def test_grid_rectangular_aspect():
    g = Grid(8, 2)
    pts = grid_points(g)
    # longer side normalized to unit length; shorter side keeps aspect
    assert pts[:, 0].max() == pytest.approx(1 - 1 / 16)
    assert pts[:, 1].max() == pytest.approx(3 / 16)
    assert g.diameter() == pytest.approx(np.hypot(1.0, 0.25))


def test_grid_validation():
    with pytest.raises(ArgumentError):
        Grid(0, 3)
    with pytest.raises(ArgumentError):
        Grid(2, 0)


# (family, nu, ell) strategies; the Matern cases reach its half-integer
# closed forms and the kve Bessel route, at high order with a long ell
# down to x = 1e-10
_TABLE_CASES = {
    "squared-exponential": ("squared-exponential", st.floats(0.1, 20.0),
                            st.floats(0.02, 2.0)),
    "gamma-exponential": ("gamma-exponential", st.floats(0.1, 20.0),
                          st.floats(0.02, 2.0)),
    "rational-quadratic": ("rational-quadratic", st.floats(0.1, 20.0),
                           st.floats(0.02, 2.0)),
    "sinc": ("sinc", st.floats(0.1, 40.0), st.floats(0.02, 2.0)),
    "matern-closed": ("matern", st.sampled_from([0.5, 1.5, 2.5]),
                      st.floats(0.02, 2.0)),
    "matern-bessel": ("matern", st.floats(0.1, 20.0), st.floats(0.02, 2.0)),
    "matern-high-order": ("matern", st.floats(20.0, 25.0),
                          st.floats(60.0, 400.0)),
}


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data(), nx=st.integers(1, 20), ny=st.integers(1, 20),
       gamma_exp=st.floats(0.1, 2.0))
def test_kernel_table_equals_kernel_over_every_offset(case, data, nx, ny,
                                                      gamma_exp):
    """Evaluating kappa once per distinct offset distance gives, bit for
    bit, kappa over the full ny x nx table of offset distances with entry
    (0, 0) set to 1: every family, rectangular grids and each Matern
    branch."""
    family, nus, ells = _TABLE_CASES[case]
    spec = KernelSpec(family, nu=data.draw(nus), ell=data.draw(ells),
                      gamma_exp=gamma_exp)
    g = Grid(nx, ny)
    s = g.scale
    want = kernel_eval(spec, np.hypot(np.arange(ny)[:, None] * s,
                                      np.arange(nx)[None, :] * s))
    want[0, 0] = 1.0
    assert np.array_equal(kernel_table(spec, g), want)


@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), nx=st.integers(1, 12), ny=st.integers(1, 12),
       count=st.integers(1, 9))
def test_kernel_tables_equal_one_table_each(case, data, nx, ny, count):
    """kernel_tables evaluates one profile for a run of specs that differ
    only in ell, and each of its tables equals that spec's own kernel_table
    bit for bit; a spec of another nu starts a new run."""
    family, nus, ells = _TABLE_CASES[case]
    nu = data.draw(nus)
    specs = [KernelSpec(family, nu=nu, ell=data.draw(ells))
             for _ in range(count)]
    specs.append(KernelSpec(family, nu=data.draw(nus), ell=specs[0].ell))
    g = Grid(nx, ny)
    tables = kernel_tables(specs, g)
    assert len(tables) == len(specs)
    for spec, table in zip(specs, tables):
        assert np.array_equal(table, kernel_table(spec, g))


def test_kernel_table_is_a_fresh_array():
    """kernel_table caches distances per grid but never hands out cached
    memory: each table is a new, writable array."""
    g = Grid(16, 16)
    spec = KernelSpec("matern", ell=0.3, nu=1.2)
    first = kernel_table(spec, g)
    first[:] = 0.0
    second = kernel_table(spec, g)
    assert second.flags.writeable and second[0, 0] == 1.0


def kernel_matrix(op):
    """The operator's matrix, read off by applying it to the identity."""
    return op.matvec(np.eye(op.rows))


def test_build_kernel_operator_single_point():
    spec = KernelSpec("matern", ell=1.0, nu=0.5)
    op = build_kernel_operator(spec, Grid(1, 1))
    np.testing.assert_allclose(kernel_matrix(op), [[1.0]])
    np.testing.assert_allclose(dense_kernel(spec, Grid(1, 1)), [[1.0]])


def test_build_kernel_operator_two_points():
    """Two points at distance 1 under matern(0.5, 1): [[1, 1/e], [1/e, 1]]."""
    g = Grid(2, 1)  # centers at 0.25 and 0.75 -> d = 0.5
    spec = KernelSpec("matern", ell=0.5, nu=0.5)
    e = np.exp(-1.0)
    for K in (kernel_matrix(build_kernel_operator(spec, g)),
              dense_kernel(spec, g)):
        np.testing.assert_allclose(K, [[1.0, e], [e, 1.0]], rtol=1e-14)


def test_kernel_operator_symmetric_unit_diagonal_psd():
    rng = np.random.default_rng(5)
    g = Grid(6, 5)
    for spec in (KernelSpec("matern", ell=0.3, nu=1.5),
                 KernelSpec("squared-exponential", ell=0.2),
                 KernelSpec("rational-quadratic", ell=0.1, nu=2.0),
                 KernelSpec("gamma-exponential", ell=0.3, gamma_exp=1.0)):
        K = kernel_matrix(build_kernel_operator(spec, g))
        np.testing.assert_allclose(K, K.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-15)
        np.testing.assert_allclose(K, dense_kernel(spec, g), atol=1e-15)
        x = rng.standard_normal(g.n)
        assert x @ K @ x >= -1e-10 * (x @ x)


def test_kernel_operator_matvec_matches_dense():
    g = Grid(5, 4)
    spec = KernelSpec("matern", ell=0.25, nu=0.5)
    op = build_kernel_operator(spec, g)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(g.n)
    np.testing.assert_allclose(op.matvec(x), dense_kernel(spec, g) @ x,
                               rtol=1e-14)


_FAMILIES = ("squared-exponential", "matern", "gamma-exponential",
             "rational-quadratic", "sinc")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12),
       family=st.sampled_from(_FAMILIES),
       ell=st.floats(0.02, 2.0), nu=st.floats(0.2, 4.0),
       gamma_exp=st.floats(0.2, 2.0), cols=st.integers(0, 4),
       seed=st.integers(0, 2**31 - 1))
def test_kernel_operator_fft_matches_dense_property(nx, ny, family, ell, nu,
                                                    gamma_exp, cols, seed):
    """The FFT product equals the dense oracle at 1e-12, relative to |K| |x|,
    for vectors (cols = 0) and n x cols blocks, on non-square grids and
    every kernel family."""
    g = Grid(nx, ny)
    # sinc reads only nu; scale it up so its oscillation shows on the grid
    spec = KernelSpec(family, ell=ell, nu=10.0 * nu if family == "sinc" else nu,
                      gamma_exp=gamma_exp)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((g.n, cols) if cols else g.n)
    K = dense_kernel(spec, g)
    y = build_kernel_operator(spec, g).matvec(x)
    assert y.shape == x.shape
    scale = np.linalg.norm(np.abs(K) @ np.abs(x))
    assert np.linalg.norm(y - K @ x) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ny=st.integers(1, 13), nx=st.integers(1, 13),
       family=st.sampled_from(_FAMILIES), ell=st.floats(0.02, 2.0),
       cols=st.integers(0, 9), seed=st.integers(0, 2**31 - 1))
def test_kernel_operator_matches_cropped_irfft2_bits_property(ny, nx, family,
                                                              ell, cols, seed):
    """The kernel product inverts only the rows its crop keeps, and gives
    the bits of the full ``irfft2`` cropped to the grid: on rectangular
    grids of odd and even sides, for a vector (cols = 0) and for blocks of
    1 to 9 columns."""
    assume(nx != ny)
    op = build_kernel_operator(KernelSpec(family, ell=ell), Grid(nx, ny))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((op.cols, cols) if cols else op.cols)
    assert np.array_equal(op.matvec(x),
                          circulant_apply_reference(ny, nx, op.spectrum, x))


def test_kernel_operator_beyond_old_dense_cap():
    """Grid(129, 128) has 16512 points, above the 16384 the dense builder
    allowed; its columns match kappa of the distances to their points."""
    g = Grid(129, 128)
    spec = KernelSpec("matern", ell=0.25, nu=0.5)
    op = build_kernel_operator(spec, g)
    assert op.shape == (16512, 16512)
    z = grid_points(g)
    for j in (0, 77, 8300, g.n - 1):
        e = np.zeros(g.n)
        e[j] = 1.0
        want = kernel_eval(spec, np.hypot(z[:, 0] - z[j, 0], z[:, 1] - z[j, 1]))
        want[j] = 1.0
        np.testing.assert_allclose(op.matvec(e), want, rtol=0, atol=1e-13)


def test_kernel_operator_memory_is_linear():
    """Building and applying a 128 x 128 grid kernel never allocates an
    n x n array: the peak stays below 16 MiB (one 16384^2 float array is
    2 GiB)."""
    g = Grid(128, 128)
    x = np.random.default_rng(1).standard_normal(g.n)
    tracemalloc.start()
    try:
        op = build_kernel_operator(KernelSpec("matern", ell=0.25, nu=1.5), g)
        y = op.matvec(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(y))
    assert peak < 16 * 2**20


def test_kernel_operator_is_freed_without_the_cyclic_gc():
    """A kernel operator holds no reference to itself, so dropping it
    frees it at once: with the cyclic GC off, its spectrum dies with it.
    (The operator has ``__slots__`` and no weakref slot, so the test
    watches the spectrum array.)"""
    op = build_kernel_operator(KernelSpec("matern", ell=0.25, nu=1.5),
                               Grid(8, 8))
    op.matvec(np.ones(64))
    spectrum = weakref.ref(op.spectrum)
    gc.disable()
    try:
        del op
        assert spectrum() is None
    finally:
        gc.enable()


def test_grid_distances_consistency():
    """The oracle's distances are symmetric with a zero diagonal and follow
    the grid offsets that the FFT build evaluates the kernel on."""
    g = Grid(4, 3)
    D = grid_distances(g)
    assert D.shape == (12, 12)
    np.testing.assert_allclose(D, D.T, atol=0)
    np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-12)
    iy, ix = np.divmod(np.arange(g.n), g.nx)
    offsets = np.hypot((iy[:, None] - iy[None, :]) * g.scale,
                       (ix[:, None] - ix[None, :]) * g.scale)
    np.testing.assert_allclose(D, offsets, rtol=1e-14, atol=1e-15)
    spec = KernelSpec("matern", ell=0.3, nu=1.5)
    np.testing.assert_allclose(kernel_matrix(build_kernel_operator(spec, g)),
                               dense_kernel(spec, g), atol=1e-15)


# -- sample covariance factors -----------------------------------------------


def test_sample_covariance_hand_case():
    """Two samples (1,0), (-1,0): mean 0, Qhat = [[1,0],[0,0]]."""
    sf = sample_covariance([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    np.testing.assert_allclose(sf.mean, [0.0, 0.0])
    Q = sf.factor @ sf.factor.T
    np.testing.assert_allclose(Q, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_sample_covariance_identical_samples():
    s = np.array([2.0, -1.0, 3.0])
    sf = sample_covariance([s, s, s])
    np.testing.assert_allclose(sf.mean, s)
    np.testing.assert_allclose(sf.factor, 0.0, atol=0)


def test_sample_covariance_matches_outer_product_sum():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((4, 5))
    sf = sample_covariance(list(X.T))
    mean = X.mean(axis=1)
    brute = sum(np.outer(c - mean, c - mean) for c in X.T) / 5
    np.testing.assert_allclose(sf.factor @ sf.factor.T, brute, atol=1e-12)


def test_sample_covariance_works_in_place():
    """The factor is the centred, scaled copy itself: the traced peak for
    49 samples of a 128 x 128 image stays below 1.5x the factor's bytes
    (a second n x N temporary would double it).  Its bits equal the
    out-of-place (X - mean) / sqrt(N), and the samples are left alone."""
    X = np.random.default_rng(5).standard_normal((49, 16384))
    before = X.copy()
    tracemalloc.start()
    try:
        sf = sample_covariance(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sf.factor.nbytes
    C = np.column_stack(list(X))
    want = (C - C.mean(axis=1)[:, None]) / np.sqrt(49)
    assert sf.factor.tobytes() == want.tobytes()
    assert np.array_equal(X, before)


def test_sample_covariance_empty():
    with pytest.raises(DegenerateDataError):
        sample_covariance([])
    with pytest.raises(ArgumentError):
        sample_covariance([np.zeros(3), np.zeros(4)])


def test_sample_factor_matvec_and_counting():
    """A sample factor is a symmetric operator whose matvec is S (S^T x),
    one factor application per call, for a vector and for a block."""
    rng = np.random.default_rng(3)
    S = rng.standard_normal((6, 4))
    sf = SampleFactor(S, np.zeros(6))
    assert isinstance(sf, LinearOperator)
    assert sf.shape == (6, 6) and sf.count == 4
    seen = []
    product = sf._matvec

    def counted(x):
        seen.append(x.shape)
        return product(x)

    sf._matvec = counted
    x = rng.standard_normal(6)
    np.testing.assert_array_equal(sf.matvec(x), S @ (S.T @ x))
    X = rng.standard_normal((6, 5))
    np.testing.assert_array_equal(sf.matvec(X), S @ (S.T @ X))
    assert seen == [(6,), (6, 5)]


def test_sample_factor_psd_probe():
    rng = np.random.default_rng(7)
    sf = SampleFactor(rng.standard_normal((8, 3)), np.zeros(8))
    for _ in range(20):
        x = rng.standard_normal(8)
        assert x @ sf.matvec(x) >= -1e-12 * (x @ x)


# -- prior mixing and whitening ------------------------------------------------


def test_prior_spec_rejects_non_finite_mean():
    ident = identity_operator(3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ArgumentError, match="prior mean"):
            PriorSpec(mean=np.array([0.0, bad, 1.0]), q1=ident, q2=ident)


def test_noise_whitener_scalar_and_diagonal():
    Rinv, LR = noise_whitener(4.0, 3)
    x = np.array([2.0, 0.0, -4.0])
    np.testing.assert_allclose(Rinv.matvec(x), x / 4.0)
    np.testing.assert_allclose(LR.matvec(x), x / 2.0)

    Rinv2, LR2 = noise_whitener(np.array([4.0, 9.0]))
    np.testing.assert_allclose(LR2.matvec(np.ones(2)), [0.5, 1 / 3])
    np.testing.assert_allclose(Rinv2.matvec(np.ones(2)), [0.25, 1 / 9])


def test_noise_whitener_composition():
    """L_R^T L_R x == R^{-1} x on random diagonals."""
    rng = np.random.default_rng(9)
    d = rng.uniform(0.5, 3.0, size=6)
    Rinv, LR = noise_whitener(d)
    x = rng.standard_normal(6)
    np.testing.assert_allclose(LR.rmatvec(LR.matvec(x)), Rinv.matvec(x),
                               rtol=1e-12)


def test_noise_whitener_rejects_nonpositive():
    with pytest.raises(Exception):
        noise_whitener(np.array([1.0, -2.0]))
    with pytest.raises(Exception):
        noise_whitener(0.0, 4)


# -- generic operator behavior -------------------------------------------------


def test_adjoint_consistency():
    """<Op x, y> == <x, Op^T y> for dense-backed operators."""
    rng = np.random.default_rng(21)
    A = rng.standard_normal((7, 5))
    op = LinearOperator.from_matrix(A)
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(7)
        lhs = op.matvec(x) @ y
        rhs = x @ op.rmatvec(y)
        assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) * np.linalg.norm(y) + 1)


def test_identity_and_zero_operators():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(5)
    np.testing.assert_allclose(identity_operator(5).matvec(x), x, atol=0)
    np.testing.assert_allclose(zero_operator(5).matvec(x), 0.0, atol=0)


def test_from_matrix_sparse():
    S = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    ops = LinearOperator.from_matrix(S)
    np.testing.assert_allclose(ops.matvec(np.array([1.0, 1.0])), [3.0, 3.0])
    np.testing.assert_allclose(ops.rmatvec(np.array([1.0, 1.0])), [1.0, 5.0])


def _csr_cases():
    rng = np.random.default_rng(12)
    dense = rng.standard_normal((9, 7)) * (rng.random((9, 7)) < 0.4)
    # unsorted columns and an unsummed duplicate in row 0
    messy = sp.csr_matrix((np.array([0.5, 1.25, -2.0, 3.0]),
                           np.array([3, 1, 3, 0]), np.array([0, 3, 3, 4])),
                          shape=(3, 4))
    return {
        "spherical-32": spherical_tomo(32, 16, 24, seed=7).A,
        "spherical-64": spherical_tomo(64, 16, 24, seed=7).A,
        "crosswell-64": crosswell_tomo(64, 10, 20, seed=11).A,
        "random": LinearOperator.from_matrix(sp.csr_matrix(dense)),
        "messy": LinearOperator.from_matrix(messy),
    }


@pytest.mark.parametrize("case", ["spherical-32", "spherical-64",
                                  "crosswell-64", "random", "messy"])
def test_csr_products_equal_scipy_bit_for_bit(case):
    """The numpy CSR products equal scipy's csr_matrix products on the same
    arrays bit for bit: A and A^T, on a vector and on a block."""
    op = _csr_cases()[case]
    assert isinstance(op.mat, CSRMatrix)
    ref = op.mat.to_scipy()
    rng = np.random.default_rng(5)
    for x, y in ((rng.standard_normal(op.cols), rng.standard_normal(op.rows)),
                 (rng.standard_normal((op.cols, 3)),
                  rng.standard_normal((op.rows, 3)))):
        assert op.matvec(x).tobytes() == (ref @ x).tobytes()
        assert op.rmatvec(y).tobytes() == (ref.T @ y).tobytes()


def test_csr_matrix_round_trips_through_scipy():
    S = sp.random(6, 5, density=0.4, random_state=3, format="csr")
    op = LinearOperator.from_matrix(S)
    back = op.mat.to_scipy()
    assert op.mat.nnz == S.nnz
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(back, name), getattr(S, name))
    np.testing.assert_array_equal(back.toarray(), S.toarray())


def _small_ints(rng, shape):
    """Integer-valued floats in [-4, 4]: every product and sum over a few
    dozen terms is exact, so a block and its columns must agree bit for bit
    whatever order BLAS sums in (gemm and gemv differ in the last digits on
    general floats)."""
    return rng.integers(-4, 5, size=shape).astype(float)


def _block_case(kind, rng, n, m):
    """(operator, input drawer) for one operator kind; ``m`` is the row
    count of the rectangular kinds."""
    floats = lambda rng, shape: rng.standard_normal(shape)
    if kind == "dense":
        return LinearOperator.from_matrix(_small_ints(rng, (m, n))), _small_ints
    if kind == "sparse":
        dense = floats(rng, (m, n)) * (rng.random((m, n)) < 0.4)
        return LinearOperator.from_matrix(sp.csr_matrix(dense)), floats
    if kind == "diagonal":
        return DiagonalOperator(rng.uniform(0.5, 2.0, n)), floats
    if kind == "identity":
        return identity_operator(n), floats
    if kind == "zero":
        return zero_operator(n), floats
    if kind == "kernel":
        # a non-square grid of n + 1 columns and one row more
        spec = KernelSpec("matern", ell=0.3, nu=1.5)
        return build_kernel_operator(spec, Grid(n + 1, n + 2)), floats
    sample = SampleFactor(_small_ints(rng, (n, 3)), np.zeros(n))
    if kind == "sample":
        return sample, _small_ints
    return _blend_with_identity(sample, rng.uniform(0.1, 0.9)), _small_ints


_BLOCK_KINDS = ("dense", "sparse", "diagonal", "identity", "zero", "kernel",
                "sample", "blend")


@pytest.mark.parametrize("kind", _BLOCK_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(1, 7), m=st.integers(1, 7), width=st.integers(1, 9),
       seed=st.integers(0, 2**31 - 1))
def test_block_matvec_is_columnwise_property(kind, n, m, width, seed):
    """matvec and rmatvec of every operator kind map a block to the exact
    stack of its column images, for a drawn width and for a square block
    (the width at which scaling columns instead of rows goes unnoticed by
    shape); a 3-d input or a wrong length raises ArgumentError."""
    rng = np.random.default_rng(seed)
    op, draw = _block_case(kind, rng, n, m)
    for apply, size in ((op.matvec, op.cols), (op.rmatvec, op.rows)):
        for cols in (width, size):
            X = draw(rng, (size, cols))
            Y = apply(X)
            stacked = np.column_stack([apply(X[:, j]) for j in range(cols)])
            assert Y.shape == stacked.shape
            assert np.array_equal(Y, stacked)
        for bad in ((size, 2, 2), (size + 1,), (size + 1, 2)):
            with pytest.raises(ArgumentError):
                apply(np.ones(bad))


def test_matvec_rejects_callback_output_of_wrong_shape():
    """A callback that drops the block's columns fails at the boundary."""
    op = LinearOperator(3, 3, lambda x: np.zeros(3), lambda y: np.zeros(3))
    np.testing.assert_array_equal(op.matvec(np.ones(3)), np.zeros(3))
    with pytest.raises(ArgumentError, match="returned shape"):
        op.matvec(np.ones((3, 2)))
    with pytest.raises(ArgumentError, match="returned shape"):
        op.rmatvec(np.ones((3, 3)))


# -- MatrixMarket round trips ---------------------------------------------------


def test_matrix_roundtrip_dense_and_sparse(tmp_path):
    import scipy.sparse as sp

    rng = np.random.default_rng(6)
    M = rng.standard_normal((4, 3))
    p = tmp_path / "dense.mtx"
    save_matrix(p, M)
    np.testing.assert_allclose(load_matrix(p), M, rtol=1e-12)

    S = sp.random(6, 5, density=0.3, random_state=1, format="csr")
    ps = tmp_path / "sparse.mtx"
    save_matrix(ps, S)
    back = load_matrix(ps)
    np.testing.assert_allclose(back.toarray(), S.toarray(), rtol=1e-12)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.0, 0.0, 3.25])
    p = tmp_path / "vec.mtx"
    save_vector(p, v)
    np.testing.assert_allclose(load_vector(p), v, atol=0)


def test_load_samples_matrix_columns(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 4))
    p = tmp_path / "samples.mtx"
    save_matrix(p, X)
    cols = load_samples(p)
    assert len(cols) == 4
    np.testing.assert_allclose(np.column_stack(cols), X, rtol=1e-12)
