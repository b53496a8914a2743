"""Linear operators, covariance kernels, priors, and array I/O.

Everything downstream touches matrices only through :class:`LinearOperator`,
so solvers stay matrix-free.  Its ``matvec`` and ``rmatvec`` are the one way
to apply an operator, to a vector or to the columns of a block; every
covariance the package builds is a subclass or an instance of it: dense and
sparse matrices (:meth:`LinearOperator.from_matrix`), diagonals, the
identity and zero maps, grid kernels and sample covariances.  Sparse
matrices are held as :class:`CSRMatrix` arrays and applied in numpy, and
the Matern kernel's Bessel function is computed in numpy too, so no
command on the built-in problems loads scipy.  Kernel
covariances on a regular grid are block Toeplitz with Toeplitz blocks;
:func:`build_kernel_operator` applies them exactly through the FFT of a
2ny x 2nx circulant embedding (Dietrich and Newsam, SIAM J. Sci. Comput.
18, 1997), so no n x n array is ever formed and grids of any size fit in
O(n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from pathlib import Path

import numpy as np

from .errors import (
    ArgumentError,
    DefinitenessError,
    DegenerateDataError,
    ParameterDomainError,
)

__all__ = [
    "LinearOperator",
    "CSRMatrix",
    "DiagonalOperator",
    "Grid",
    "KernelSpec",
    "KernelOperator",
    "kernel_eval",
    "kernel_table",
    "kernel_tables",
    "build_kernel_operator",
    "SampleFactor",
    "sample_covariance",
    "PriorSpec",
    "noise_whitener",
    "identity_operator",
    "zero_operator",
    "load_matrix",
    "save_matrix",
    "load_vector",
    "save_vector",
    "load_samples",
]


def _checked_apply(fn, x, n_in, n_out, what):
    """``fn(x)`` for a length-``n_in`` vector or an ``n_in x M`` block,
    checked to return ``(n_out,) + x.shape[1:]``."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != n_in:
        raise ArgumentError(f"{what} applied to an array of shape {x.shape}")
    y = np.asarray(fn(x), dtype=float)
    if y.shape != (n_out,) + x.shape[1:]:
        raise ArgumentError(f"{what} returned shape {y.shape} for an input "
                            f"of shape {x.shape}")
    return y


class LinearOperator:
    """A linear map defined by its forward (and optional transpose) action.

    :meth:`matvec` and :meth:`rmatvec` take a vector or a block whose columns
    are vectors, and return the image of each column in the same layout.
    Subclasses supply the actions as callbacks and do not override them.

    Parameters
    ----------
    rows, cols : int
        Output and input dimensions.
    matvec : callable
        Maps a length-``cols`` vector to a length-``rows`` vector, and a
        ``cols x M`` block to the ``rows x M`` block of its column images.
    rmatvec : callable, optional
        Transpose action, with the same block convention.  Required only by
        consumers that call :meth:`rmatvec`.
    mat : ndarray or CSRMatrix, optional
        Explicit matrix backing the operator, set by :meth:`from_matrix`.
        Only export reads it (``mixkry gen``, and ``to_scipy()`` for
        library callers); kernel operators have none.
    """

    __slots__ = ("rows", "cols", "_matvec", "_rmatvec", "mat")

    def __init__(self, rows, cols, matvec, rmatvec=None, mat=None):
        rows = int(rows)
        cols = int(cols)
        if rows <= 0 or cols <= 0:
            raise ArgumentError("operator dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self._matvec = matvec
        self._rmatvec = rmatvec
        self.mat = mat

    @property
    def shape(self):
        return (self.rows, self.cols)

    def matvec(self, x):
        """Apply the operator to a vector or to the columns of a block."""
        return _checked_apply(self._matvec, x, self.cols, self.rows,
                              f"operator of shape {self.shape}")

    def rmatvec(self, y):
        """Apply the transpose to a vector or to the columns of a block."""
        if self._rmatvec is None:
            raise ArgumentError("operator has no transpose action")
        return _checked_apply(self._rmatvec, y, self.rows, self.cols,
                              f"transpose of shape {self.shape}")

    @classmethod
    def from_matrix(cls, mat):
        """Wrap a dense array, a :class:`CSRMatrix` or a scipy sparse
        matrix; the last is converted to a :class:`CSRMatrix`, so no scipy
        code applies it."""
        if hasattr(mat, "tocsr"):  # scipy sparse, duck-typed: no import
            m = mat.tocsr()
            mat = CSRMatrix(m.data, m.indices, m.indptr, m.shape)
        if isinstance(mat, CSRMatrix):
            return cls(*mat.shape, *_csr_products(mat), mat=mat)
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2:
            raise ArgumentError("from_matrix expects a 2-d array")
        return cls(arr.shape[0], arr.shape[1], arr.dot, arr.T.dot, mat=arr)


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """A sparse matrix in compressed sparse row arrays.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, the layout of scipy's
    ``csr_matrix``.  :meth:`LinearOperator.from_matrix` applies it.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def to_scipy(self):
        """The same arrays as a ``scipy.sparse.csr_matrix``; imports scipy."""
        import scipy.sparse

        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr),
                                       shape=self.shape)


def _csr_products(csr):
    """``(matvec, rmatvec)`` of a :class:`CSRMatrix` by ``np.bincount``.

    Output entry i sums the products of row i (column i for the transpose)
    one by one in storage order, starting from 0, which is the order of
    scipy's ``csr_matvec`` on these arrays and on its transposed copy; so
    the products equal scipy's bit for bit, a block's column by column.
    The row of every stored entry and the column indices as ``intp`` are
    computed once, here.
    """
    m, n = csr.shape
    data = np.asarray(csr.data, dtype=float)
    rows = np.repeat(np.arange(m, dtype=np.intp), np.diff(csr.indptr))
    cols = np.asarray(csr.indices, dtype=np.intp)

    def product(x, take, put, size):
        if x.ndim == 1:
            return np.bincount(put, weights=data * x[take], minlength=size)
        out = np.empty((size, x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = product(x[:, j], take, put, size)
        return out

    return (lambda x: product(x, cols, rows, m),
            lambda y: product(y, rows, cols, n))


class DiagonalOperator(LinearOperator):
    """Symmetric operator ``x -> diag * x`` with a strictly stored diagonal;
    a block has each of its rows scaled."""

    __slots__ = ("diag",)

    def __init__(self, diag):
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1 or diag.size == 0:
            raise ArgumentError("diagonal must be a nonempty 1-d array")

        def scale(x):
            return diag * x if x.ndim == 1 else diag[:, None] * x

        super().__init__(diag.size, diag.size, scale, scale)
        self.diag = diag


def identity_operator(n):
    ident = lambda x: np.array(x, dtype=float)
    return LinearOperator(n, n, ident, ident)


def zero_operator(n):
    zero = lambda x: np.zeros(x.shape)
    return LinearOperator(n, n, zero, zero)


# ---------------------------------------------------------------------------
# grids and covariance kernels


@dataclass(frozen=True)
class Grid:
    """Regular 2-d grid of square pixels.

    Distances are scaled so that the longer side spans the unit interval,
    one pixel being ``scale`` long; kernel length scales are therefore
    relative to a unit-square domain.  Pixels are ordered row-major (y
    index outermost), matching C-order flattening of an ``(ny, nx)`` image.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ArgumentError("grid dimensions must be at least 1")

    @property
    def n(self):
        return self.nx * self.ny

    @property
    def scale(self):
        return 1.0 / max(self.nx, self.ny)

    def diameter(self):
        s = self.scale
        return float(np.hypot(self.nx * s, self.ny * s))


# kernel family -> the shape parameters its profile reads
FAMILY_PARAMS = {
    "squared-exponential": ("ell",),
    "matern": ("nu", "ell"),
    "gamma-exponential": ("ell", "gamma_exp"),
    "rational-quadratic": ("nu", "ell"),
    "sinc": ("nu",),
}
# the largest Matern order: up to it the Bessel profile is exact, since
# e^x K_nu(x) stays finite down to x = 1e-10 (it overflows from nu = 27.5)
MATERN_NU_MAX = 25.0


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic covariance kernel family with its shape parameters.

    ``ell`` is the length scale, ``nu`` the smoothness or shape parameter
    and ``gamma_exp`` the exponent of the gamma-exponential family;
    :data:`FAMILY_PARAMS` lists which of them each family reads.  Every
    parameter must be finite, and a Matern ``nu`` at most
    :data:`MATERN_NU_MAX`.
    """

    family: str
    ell: float = 1.0
    nu: float = 1.0
    gamma_exp: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ParameterDomainError(
                f"unknown kernel family {self.family!r}; choose from "
                f"{tuple(FAMILY_PARAMS)}"
            )
        for name in ("ell", "nu", "gamma_exp"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterDomainError(
                    f"kernel parameter {name} must be finite, got "
                    f"{getattr(self, name)}")
        if not self.ell > 0:
            raise ParameterDomainError("kernel length scale ell must be positive")
        if "nu" in FAMILY_PARAMS[self.family] and not self.nu > 0:
            raise ParameterDomainError(f"{self.family} kernel requires nu > 0")
        if self.family == "matern" and self.nu > MATERN_NU_MAX:
            raise ParameterDomainError(
                f"matern kernel requires nu <= {MATERN_NU_MAX:g}, got {self.nu}")
        if self.family == "gamma-exponential" and not 0 < self.gamma_exp <= 2:
            raise ParameterDomainError("gamma-exponential exponent must lie in (0, 2]")


def _matern_closed(nu, x):
    """Half-integer Matern profiles in x = sqrt(2 nu) r / ell, or None."""
    if nu == 0.5:
        return np.exp(-x)
    if nu == 1.5:
        return (1.0 + x) * np.exp(-x)
    if nu == 2.5:
        return (1.0 + x + x * x / 3.0) * np.exp(-x)
    return None


# ---------------------------------------------------------------------------
# the modified Bessel function of the second kind, scaled: e^x K_nu(x)

# Taylor coefficients c_1, c_2, ... of 1/Gamma(z) = sum_k c_k z^k
# (Abramowitz and Stegun 6.1.34), through the last one that moves a sum
# at |z| <= 1/2
_RGAMMA = (1.0, 0.5772156649015329, -0.6558780715202539,
           -0.04200263503409524, 0.16653861138229148, -0.04219773455554433,
           -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
           -0.00021524167411495098, 0.0001280502823881162,
           -2.013485478078824e-05, -1.2504934821426706e-06,
           1.133027231981696e-06, -2.056338416977607e-07,
           6.116095104481416e-09, 5.002007644469223e-09,
           -1.18127457048702e-09, 1.0434267116911005e-10,
           7.782263439905071e-12, -3.696805618642206e-12,
           5.100370287454476e-13)

# terms of Temme's series at x <= 2 and of the Hankel series at x >= 25,
# and the trapezoid nodes t = 0, 1/8, ..., 31/8 in between, powers of two
# for _fold; each truncation is below 1e-16 relative for |mu| <= 1/2 and
# mu + 1
_TEMME_TERMS = 16
_HANKEL_TERMS = 16
_HANKEL_FROM = 25.0
_TRAPEZOID_STEP = 0.125
_TRAPEZOID_T = np.arange(32) * _TRAPEZOID_STEP
_TRAPEZOID_S = -2.0 * np.sinh(0.5 * _TRAPEZOID_T) ** 2


def _fold(terms, z=None):
    """sum_k terms[:, k] z^k over the middle axis, whose length is a power
    of two, by Estrin's scheme: neighbouring terms are paired as
    t_2i + t_2i+1 z and z is squared, until one term is left; with no z,
    the plain sum of the terms, pairwise.

    Only elementwise operations, so an entry never depends on the other
    entries; a BLAS product, or a numpy reduction (pairwise along a
    contiguous axis), sums in an order that depends on the array's shape.
    """
    while terms.shape[1] > 1:
        if z is None:
            terms = terms[:, 0::2] + terms[:, 1::2]
        else:
            terms = terms[:, 0::2] + terms[:, 1::2] * z
            z = z * z
    return terms[:, 0]


def _even_series(coeffs, m2):
    """sum_k coeffs[k] m2^k for a scalar m2, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * m2 + c
    return acc


@lru_cache(maxsize=64)
def _temme_coefficients(mu):
    """The parts of Temme's series for K_mu and K_{mu+1} that depend on
    mu alone (|mu| <= 1/2).

    With d = -log(x/2), e = mu d and z = x^2/4 the series (Temme, J. Comput.
    Phys. 19, 1975, in the form of Numerical Recipes' ``bessik``) starts
    from f0 = fact (g1 cosh e + g2 d sinh(e)/e), p0 = (x/2)^-mu /
    (2 Gamma(1 + mu)) and q0 = (x/2)^mu / (2 Gamma(1 - mu)), and each of its
    terms is linear in (f0, p0, q0).  So K_mu = f0 F(z) + p0 P(z) + q0 Q(z),
    and (x/2) K_{mu+1} likewise, for six polynomials in z whose
    coefficients are returned as the rows of a 6 x ``_TEMME_TERMS`` array.
    g1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu) and g2, their mean, come
    from the even and odd parts of the Taylor series of 1/Gamma, with no
    cancellation as mu -> 0.
    """
    m2 = mu * mu
    g1 = -_even_series(_RGAMMA[1::2], m2)
    g2 = _even_series(_RGAMMA[0::2], m2)
    pimu = math.pi * mu
    fact = 1.0 if pimu == 0.0 else pimu / math.sin(pimu)
    coeffs = np.empty((6, _TEMME_TERMS))
    # f_i = a f0 + b p0 + c q0, p_i = pp p0, q_i = qq q0, each over i!
    a, b, c, pp, qq, fac = 1.0, 0.0, 0.0, 1.0, 1.0, 1.0
    for i in range(_TEMME_TERMS):
        if i:
            den = i * i - m2
            a, b, c = i * a / den, (i * b + pp) / den, (i * c + qq) / den
            pp, qq = pp / (i - mu), qq / (i + mu)
            fac *= i
        coeffs[:, i] = (a / fac, b / fac, c / fac,
                        -i * a / fac, (pp - i * b) / fac, -i * c / fac)
    return fact, g1, g2, 0.5 / (g2 - mu * g1), 0.5 / (g2 + mu * g1), coeffs


def _kve_temme(mu, x):
    """(e^x K_mu, e^x K_{mu+1}) at 0 < x <= 2 by Temme's series."""
    fact, g1, g2, p0, q0, coeffs = _temme_coefficients(mu)
    d = -np.log(0.5 * x)
    e = mu * d
    with np.errstate(invalid="ignore"):
        sinhc = np.where(e == 0.0, 1.0, np.sinh(e) / e)
    f = fact * (g1 * np.cosh(e) + g2 * sinhc * d)
    ee = np.exp(e)
    p = p0 * ee
    q = q0 / ee
    s = _fold(coeffs[:, :, None], 0.25 * x * x)
    ex = np.exp(x)
    k0 = (f * s[0] + p * s[1] + q * s[2]) * ex
    k1 = (f * s[3] + p * s[4] + q * s[5]) * (2.0 / x) * ex
    return k0, k1


@lru_cache(maxsize=64)
def _trapezoid_weights(mu):
    w = _TRAPEZOID_STEP * np.cosh(np.outer([mu, mu + 1.0], _TRAPEZOID_T))
    w[:, 0] *= 0.5
    return w


def _kve_trapezoid(mu, x):
    """(e^x K_mu, e^x K_{mu+1}) at 2 < x < 25 by the trapezoid rule on
    e^x K_mu(x) = int_0^inf exp(-2 x sinh^2(t/2)) cosh(mu t) dt, whose
    integrand is analytic and decays double exponentially, so a fixed step
    converges geometrically."""
    e = np.exp(_TRAPEZOID_S[:, None] * x)
    k = _fold(_trapezoid_weights(mu)[:, :, None] * e)
    return k[0], k[1]


@lru_cache(maxsize=64)
def _hankel_coefficients(mu):
    """a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k) for nu = mu
    and mu + 1, one row each."""
    nu = np.array([[mu], [mu + 1.0]])
    k = np.arange(1, _HANKEL_TERMS)
    coeffs = np.ones((2, _HANKEL_TERMS))
    np.cumprod((4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k), axis=1,
               out=coeffs[:, 1:])
    return coeffs


def _kve_hankel(mu, x):
    """(e^x K_mu, e^x K_{mu+1}) at x >= 25 by the Hankel asymptotic series
    sqrt(pi / (2x)) sum_k a_k(nu) / x^k."""
    s = _fold(_hankel_coefficients(mu)[:, :, None], 1.0 / x)
    s *= np.sqrt(np.pi / (2.0 * x))
    return s[0], s[1]


def _kve(nu, x):
    """e^x K_nu(x) at nu > 0 and positive x, what ``scipy.special.kve``
    returns, to about 1e-14 relative.

    K_mu and K_{mu+1} for mu = nu - round(nu), |mu| <= 1/2, come from
    Temme's series at x <= 2, a trapezoid rule at 2 < x < 25 and the
    Hankel series at x >= 25; the recurrence K_{v+1} = K_{v-1} + (2v/x) K_v,
    stable upward, carries them to nu.  Entries whose value exceeds the
    float range are inf.  Each entry is computed on its own, so it does not
    depend on the other entries of x.
    """
    n = int(nu + 0.5)
    mu = nu - n
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    low = x <= 2.0
    high = x >= _HANKEL_FROM
    for mask, piece in ((low, _kve_temme), (~(low | high), _kve_trapezoid),
                        (high, _kve_hankel)):
        if mask.any():
            k0[mask], k1[mask] = piece(mu, x[mask])
    if n == 0:
        return k0
    with np.errstate(over="ignore"):
        for j in range(1, n):
            k0, k1 = k1, k0 + (2.0 * (mu + j) / x) * k1
    return k1


def _matern_bessel(nu, x):
    """General-nu Matern profile via the modified Bessel function.

    Evaluated in log space with the exponentially scaled :func:`_kve` so
    that large x does not overflow before cancelling.  At nu <= 25
    (:data:`MATERN_NU_MAX`) and x > 1e-10, ``_kve`` stays finite and every
    term below stays in the float range.  At x <= 1e-10 it is the series
    1 + Gamma(-nu)/Gamma(nu) (x/2)^(2 nu) below nu = 1, and 1 from there on.
    """
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    pos = x > 1e-10
    xp = x[pos]
    log_k = np.log(_kve(nu, xp)) - xp
    vals = np.exp(nu * np.log(xp) + log_k - (nu - 1.0) * np.log(2.0)
                  - math.lgamma(nu))
    # log-space roundoff can overshoot the exact profile bound kappa <= 1
    # by ~1e-13 near x = 0
    np.minimum(vals, 1.0, out=vals)
    out[pos] = vals
    if nu < 1.0:
        # one expm1 keeps the digits as nu -> 0; where 1 +- nu rounds, the
        # log-Gamma ratio is its series 2 gamma nu + 2 zeta(3)/3 nu^3
        ratio = (math.lgamma(1.0 - nu) - math.lgamma(1.0 + nu) if nu >= 1e-4
                 else 2.0 * np.euler_gamma * nu + 0.8013712687730628 * nu**3)
        small = ~pos & (x > 0.0)
        out[small] = -np.expm1(ratio + 2.0 * nu * np.log(x[small] / 2.0))
    return out


def _matern_profile(spec, x):
    closed = _matern_closed(spec.nu, x)
    return closed if closed is not None else _matern_bessel(spec.nu, x)


# family -> (the profile's argument at distances r, the profile at that
# argument); only the argument reads ell
_PROFILES = {
    "squared-exponential": (lambda s, r: (r * r) / (2.0 * s.ell**2),
                            lambda s, z: np.exp(-z)),
    "gamma-exponential": (lambda s, r: r / s.ell,
                          lambda s, z: np.exp(-(z ** s.gamma_exp))),
    "rational-quadratic": (lambda s, r: (r * r) / (2.0 * s.nu * s.ell**2),
                           lambda s, z: (1.0 + z) ** (-s.nu)),
    # np.sinc(z) = sin(pi z) / (pi z), so sin(nu r)/(nu r) = sinc(nu r / pi)
    "sinc": (lambda s, r: s.nu * r / np.pi, lambda s, z: np.sinc(z)),
    "matern": (lambda s, r: np.sqrt(2.0 * s.nu) * r / s.ell,
               _matern_profile),
}


def kernel_eval(spec, r):
    """Evaluate the kernel profile kappa(r) at nonnegative distances.

    Returns values in (0, 1] for all families except ``sinc``, whose range
    is [-1, 1]; kappa(0) = 1 for every family.
    """
    scalar = np.isscalar(r)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ArgumentError("distances must be nonnegative")
    argument, profile = _PROFILES[spec.family]
    out = profile(spec, argument(spec, r))
    return float(out) if scalar else out


class KernelOperator(LinearOperator):
    """Grid kernel K[i, j] = kappa(|z_i - z_j|) applied by FFT.

    ``spectrum`` is the real ``rfft2`` of the kernel's symmetric circulant
    embedding on a (2 ny, 2 nx) grid.  An application zero-pads the image
    (each column of a block is one image) to that size, multiplies its
    spectrum and crops the result, so the product is exact up to FFT
    roundoff.  Built by :func:`build_kernel_operator`.
    """

    __slots__ = ("ny", "nx", "spectrum")

    def __init__(self, ny, nx, spectrum):
        # a closure over the spectrum, not a bound method: the operator
        # holds no reference to itself, so dropping it frees it at once
        apply = _circulant_apply(ny, nx, spectrum)
        super().__init__(ny * nx, ny * nx, apply, apply)
        self.ny = ny
        self.nx = nx
        self.spectrum = spectrum


def _circulant_apply(ny, nx, spectrum):
    pad = (2 * ny, 2 * nx)

    def apply(x):
        img = x.reshape((ny, nx) + x.shape[1:])
        spec = spectrum if x.ndim == 1 else spectrum[:, :, None]
        f = np.fft.rfft2(img, s=pad, axes=(0, 1))
        f *= spec
        # irfft2's two passes, with the rows the crop drops never inverted
        y = np.fft.ifft(f, n=2 * ny, axis=0)[:ny]
        return np.fft.irfft(y, n=2 * nx, axis=1)[:, :nx].reshape(x.shape)

    return apply


@lru_cache(maxsize=8)
def _offset_distances(grid):
    """The sorted distinct distances of the grid's ny x nx offset table and
    the ny x nx index that maps them back, both read-only.

    Offsets (i, j) and (j, i) share a distance on a square grid, as do
    other offsets on one circle, so far fewer distances than offsets
    remain: 120 of 256 at 16 x 16 and 5,853 of 16,384 at 128 x 128.
    """
    s = grid.scale
    dist, where = np.unique(np.hypot(np.arange(grid.ny)[:, None] * s,
                                     np.arange(grid.nx)[None, :] * s),
                            return_inverse=True)
    where = where.reshape(grid.ny, grid.nx)
    dist.flags.writeable = False
    where.flags.writeable = False
    return dist, where


def kernel_table(spec, grid):
    """kappa on the ny x nx table of grid offsets.

    Entry (i, j) is the kernel between two pixels i rows and j columns
    apart, and entry (0, 0) is exactly 1.  Every entry of the grid's kernel
    matrix is one of these values.  kappa is elementwise in the distance,
    so it is evaluated once per distinct offset distance (cached per grid)
    and scattered back; the table equals kappa over every offset bit for
    bit.
    """
    return kernel_tables([spec], grid)[0]


def kernel_tables(specs, grid):
    """:func:`kernel_table` of each of ``specs``, in order.

    A run of consecutive specs that differ only in ``ell`` evaluates its
    family's profile once: ell enters only the profile's argument, so the
    arguments of the run are computed spec by spec and the profile is
    evaluated on all of them at once.  The profile is elementwise, so each
    table equals its own :func:`kernel_table` bit for bit.
    """
    dist, where = _offset_distances(grid)
    tables = []
    for _, run in groupby(specs, key=lambda s: (s.family, s.nu, s.gamma_exp)):
        run = list(run)
        argument, profile = _PROFILES[run[0].family]
        values = profile(run[0], np.concatenate([argument(s, dist)
                                                 for s in run]))
        for v in values.reshape(len(run), -1):
            t = v[where]
            t[0, 0] = 1.0
            tables.append(t)
    return tables


def build_kernel_operator(spec, grid, table=None):
    """Build the symmetric covariance operator K[i, j] = kappa(|z_i - z_j|).

    kappa is evaluated once, by :func:`kernel_table`, unless the caller
    passes that ``table`` already evaluated; the returned
    :class:`KernelOperator` applies K by FFT in O(n log n) time and O(n)
    memory, at any grid size.
    """
    ny, nx = grid.ny, grid.nx
    t = kernel_table(spec, grid) if table is None else table
    # even extension: entry (i, j) holds the kernel at offset
    # (min(i, 2 ny - i), min(j, 2 nx - j)); the rows and columns at ny and nx
    # are never reached by a cropped product and stay zero
    c = np.zeros((2 * ny, 2 * nx))
    c[:ny, :nx] = t
    c[ny + 1:, :nx] = t[:0:-1]
    c[:, nx + 1:] = c[:, nx - 1:0:-1]
    return KernelOperator(ny, nx, np.fft.rfft2(c).real)


# ---------------------------------------------------------------------------
# sample covariance factor


class SampleFactor(LinearOperator):
    """Sample covariance Qhat = S S^T kept as its centered, 1/N-scaled
    factor S.

    Column j of ``factor`` holds (s_j - mean) / sqrt(N).  The estimator
    uses the 1/N normalization throughout; callers wanting the unbiased
    1/(N-1) variant can rescale the factor.  The operator applies Qhat as
    S (S^T x), never through a densified Qhat.
    """

    __slots__ = ("factor", "mean")

    def __init__(self, factor, mean):
        factor = np.asarray(factor, dtype=float)
        mean = np.asarray(mean, dtype=float)
        if factor.ndim != 2 or mean.shape != (factor.shape[0],):
            raise ArgumentError("inconsistent factor and mean shapes")
        n = factor.shape[0]
        super().__init__(n, n, self._factor_apply, self._factor_apply)
        self.factor = factor
        self.mean = mean

    @property
    def count(self):
        return self.factor.shape[1]

    def _factor_apply(self, x):
        return self.factor @ (self.factor.T @ x)


def sample_covariance(samples):
    """Build the :class:`SampleFactor` of a list of equal-length sample vectors."""
    if len(samples) == 0:
        raise DegenerateDataError("empty sample set")
    cols = [np.asarray(s, dtype=float).ravel() for s in samples]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ArgumentError("samples must all have the same length")
    # centred and scaled in place: the column_stack copy becomes the factor
    X = np.column_stack(cols)
    mean = X.mean(axis=1)
    X -= mean[:, None]
    X /= np.sqrt(X.shape[1])
    return SampleFactor(X, mean)


# ---------------------------------------------------------------------------
# priors and noise


@dataclass
class PriorSpec:
    """Mixed Gaussian prior: mean mu and covariance gamma Q1 + (1 - gamma) Q2.

    Q1 must be symmetric positive definite (it induces the inner product of
    the bidiagonalization); Q2 only needs to be symmetric positive
    semidefinite.  The selection picks gamma; ``SearchConfig.gamma_fixed``
    pins it.  A mean holding NaN or Inf raises :class:`ArgumentError`.
    """

    mean: np.ndarray
    q1: LinearOperator
    q2: LinearOperator

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        n = self.mean.size
        if not np.all(np.isfinite(self.mean)):
            raise ArgumentError("prior mean holds a NaN or Inf")
        if self.q1.shape != (n, n) or self.q2.shape != (n, n):
            raise ArgumentError("prior covariance shapes do not match the mean")


def noise_whitener(r, size=None):
    """Split a diagonal noise covariance R into (Rinv, L_R) operators.

    ``r`` is a scalar variance (requires ``size``) or a 1-d array of
    diagonal entries.  L_R satisfies L_R^T L_R = R^{-1}; for diagonal R it
    is diag(1/sqrt(r)).
    """
    if np.isscalar(r):
        if size is None:
            raise ArgumentError("scalar noise variance needs an explicit size")
        diag = np.full(int(size), float(r))
    else:
        diag = np.asarray(r, dtype=float)
        if diag.ndim != 1:
            raise ArgumentError("noise covariance must be scalar or diagonal")
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise DefinitenessError("noise covariance diagonal must be positive")
    return DiagonalOperator(1.0 / diag), DiagonalOperator(1.0 / np.sqrt(diag))


# ---------------------------------------------------------------------------
# MatrixMarket I/O (dense arrays use the array format, sparse the coordinate
# format; vectors are stored as n x 1 arrays).  scipy.io is imported on first
# use: only ``gen`` and the ``file`` preset read or write these files, and
# they are the only commands that load scipy.  A scipy sparse matrix is
# recognised by its methods, so the check imports nothing.


def save_matrix(path, mat):
    import scipy.io

    if isinstance(mat, CSRMatrix):
        mat = mat.to_scipy()
    if hasattr(mat, "tocoo"):
        scipy.io.mmwrite(str(path), mat.tocoo())
    else:
        scipy.io.mmwrite(str(path), np.atleast_2d(np.asarray(mat, dtype=float)))


def load_matrix(path):
    import scipy.io

    mat = scipy.io.mmread(str(path))
    return mat.tocsr() if hasattr(mat, "tocsr") else np.asarray(mat, dtype=float)


def save_vector(path, vec):
    import scipy.io

    vec = np.asarray(vec, dtype=float).ravel()
    scipy.io.mmwrite(str(path), vec[:, None])


def load_vector(path):
    mat = load_matrix(path)
    if hasattr(mat, "toarray"):
        mat = mat.toarray()
    arr = np.asarray(mat, dtype=float)
    if arr.ndim == 2 and 1 not in arr.shape:
        raise ArgumentError(f"{path} does not hold a vector")
    return arr.ravel()


def load_samples(path):
    """Load sample vectors from a directory of *.mtx files or a single matrix.

    A directory is read in sorted filename order, one vector per file; a
    single file is read as a matrix whose columns are the samples.
    """
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.mtx"))
        if not files:
            raise DegenerateDataError(f"no .mtx sample files in {p}")
        return [load_vector(f) for f in files]
    mat = load_matrix(p)
    if hasattr(mat, "toarray"):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ArgumentError(f"{p} does not hold a sample matrix")
    return [mat[:, j] for j in range(mat.shape[1])]
