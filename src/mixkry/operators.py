"""Linear operators, covariance kernels, priors, and array I/O.

Everything downstream touches matrices only through :class:`LinearOperator`,
so solvers stay matrix-free.  Its ``matvec`` and ``rmatvec`` are the one way
to apply an operator, to a vector or to the columns of a block; every
covariance the package builds is a subclass or an instance of it: dense and
sparse matrices (:meth:`LinearOperator.from_matrix`), diagonals, the
identity and zero maps, grid kernels and sample covariances.  Kernel
covariances on a regular grid are block Toeplitz with Toeplitz blocks;
:func:`build_kernel_operator` applies them exactly through the FFT of a
2ny x 2nx circulant embedding (Dietrich and Newsam, SIAM J. Sci. Comput.
18, 1997), so no n x n array is ever formed and grids of any size fit in
O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, kve

from .errors import (
    ArgumentError,
    DefinitenessError,
    DegenerateDataError,
    ParameterDomainError,
)

__all__ = [
    "LinearOperator",
    "DiagonalOperator",
    "Grid",
    "KernelSpec",
    "KernelOperator",
    "kernel_eval",
    "kernel_table",
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
    mat : ndarray or sparse matrix, optional
        Explicit matrix backing the operator, set by :meth:`from_matrix`.
        Only export reads it (``mixkry gen`` and ``TomoProblem.matrix``);
        kernel operators have none.
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
        """Wrap a dense array or scipy sparse matrix."""
        if sp.issparse(mat):
            m = mat.tocsr()
            mt = m.T.tocsr()
            return cls(m.shape[0], m.shape[1], m.dot, mt.dot, mat=m)
        arr = np.asarray(mat, dtype=float)
        if arr.ndim != 2:
            raise ArgumentError("from_matrix expects a 2-d array")
        return cls(arr.shape[0], arr.shape[1], arr.dot, arr.T.dot, mat=arr)


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
    """Regular 2-d pixel grid.

    Pixel centers are scaled so that the longer side of the physical extent
    spans the unit interval; kernel length scales are therefore relative to
    a unit-square domain.  Points are ordered row-major (y index outermost),
    matching C-order flattening of an ``(ny, nx)`` image.
    """

    nx: int
    ny: int
    spacing: tuple = (1.0, 1.0)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ArgumentError("grid dimensions must be at least 1")
        hx, hy = self.spacing
        if hx <= 0 or hy <= 0:
            raise ArgumentError("grid spacing must be positive")
        # a tuple of floats keeps the grid hashable, so kernel_table can
        # cache its offset distances per grid
        object.__setattr__(self, "spacing", (float(hx), float(hy)))

    @property
    def n(self):
        return self.nx * self.ny

    @property
    def scale(self):
        hx, hy = self.spacing
        return 1.0 / max(self.nx * hx, self.ny * hy)

    def points(self):
        hx, hy = self.spacing
        s = self.scale
        xs = (np.arange(self.nx) + 0.5) * hx * s
        ys = (np.arange(self.ny) + 0.5) * hy * s
        X, Y = np.meshgrid(xs, ys)
        return np.column_stack([X.ravel(), Y.ravel()])

    def diameter(self):
        hx, hy = self.spacing
        s = self.scale
        return float(np.hypot(self.nx * hx * s, self.ny * hy * s))


# kernel family -> the shape parameters its profile reads
FAMILY_PARAMS = {
    "squared-exponential": ("ell",),
    "matern": ("nu", "ell"),
    "gamma-exponential": ("ell",),
    "rational-quadratic": ("nu", "ell"),
    "sinc": ("nu",),
}


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic covariance kernel family with its shape parameters.

    ``ell`` is the length scale and ``nu`` the smoothness or shape
    parameter; :data:`FAMILY_PARAMS` lists which of the two each family
    reads.  ``gamma_exp`` is the exponent of the gamma-exponential family.
    Every parameter must be finite.
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


def _matern_debye(nu, xp):
    """log K_nu at large order via the two-term uniform asymptotic series."""
    z = xp / nu
    s = np.sqrt(1.0 + z * z)
    eta = s + np.log(z / (1.0 + s))
    t = 1.0 / s
    u1 = (3.0 * t - 5.0 * t**3) / 24.0
    u2 = (81.0 * t**2 - 462.0 * t**4 + 385.0 * t**6) / 1152.0
    return (0.5 * np.log(np.pi / (2.0 * nu)) - 0.25 * np.log1p(z * z)
            - nu * eta + np.log1p(-u1 / nu + u2 / nu**2))


def _matern_bessel(nu, x):
    """General-nu Matern profile via the modified Bessel function.

    Evaluated in log space with the exponentially scaled ``kve`` so that
    large x does not overflow before cancelling.  kve itself overflows at
    large order or very small argument, so nu > 120 switches to the uniform
    asymptotic expansion of K_nu (relative error O(1/nu^2)), and overflowed
    small-x entries at moderate nu use the quadratic small-argument series
    (those entries satisfy x < 0.35 and nu > 25, where the series truncation
    is below 1e-10).
    """
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    pos = x > 1e-10
    xp = x[pos]
    if nu > 120.0:
        log_k = _matern_debye(nu, xp)
        vals = np.exp(nu * np.log(xp) + log_k - (nu - 1.0) * np.log(2.0)
                      - gammaln(nu))
    else:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_k = np.log(kve(nu, xp)) - xp
            vals = np.exp(nu * np.log(xp) + log_k - (nu - 1.0) * np.log(2.0)
                          - gammaln(nu))
        bad = ~np.isfinite(vals)
        if np.any(bad):
            xb = xp[bad]
            vals[bad] = 1.0 - xb * xb / (4.0 * (nu - 1.0))
    # log-space roundoff and the truncated asymptotic series can overshoot
    # the exact profile bound kappa <= 1 by ~1e-13 near x = 0
    np.minimum(vals, 1.0, out=vals)
    out[pos] = vals
    return out


def kernel_eval(spec, r):
    """Evaluate the kernel profile kappa(r) at nonnegative distances.

    Returns values in (0, 1] for all families except ``sinc``, whose range
    is [-1, 1]; kappa(0) = 1 for every family.
    """
    scalar = np.isscalar(r)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ArgumentError("distances must be nonnegative")
    if spec.family == "squared-exponential":
        out = np.exp(-(r * r) / (2.0 * spec.ell**2))
    elif spec.family == "gamma-exponential":
        out = np.exp(-((r / spec.ell) ** spec.gamma_exp))
    elif spec.family == "rational-quadratic":
        out = (1.0 + (r * r) / (2.0 * spec.nu * spec.ell**2)) ** (-spec.nu)
    elif spec.family == "sinc":
        # np.sinc(z) = sin(pi z) / (pi z), so sin(nu r)/(nu r) = sinc(nu r / pi)
        out = np.sinc(spec.nu * r / np.pi)
    else:
        x = np.sqrt(2.0 * spec.nu) * r / spec.ell
        closed = _matern_closed(spec.nu, x)
        out = closed if closed is not None else _matern_bessel(spec.nu, x)
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
        y = np.fft.irfft2(f * spec, s=pad, axes=(0, 1))
        return y[:ny, :nx].reshape(x.shape)

    return apply


@lru_cache(maxsize=8)
def _offset_distances(grid):
    """The sorted distinct distances of the grid's ny x nx offset table and
    the ny x nx index that maps them back, both read-only.

    Offsets (i, j) and (j, i) share a distance on a square grid with equal
    spacing, as do other offsets on one circle, so far fewer distances than
    offsets remain: 120 of 256 at 16 x 16 and 5,853 of 16,384 at
    128 x 128.
    """
    hx, hy = grid.spacing
    s = grid.scale
    dist, where = np.unique(np.hypot(np.arange(grid.ny)[:, None] * (hy * s),
                                     np.arange(grid.nx)[None, :] * (hx * s)),
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
    dist, where = _offset_distances(grid)
    t = kernel_eval(spec, dist)[where]
    t[0, 0] = 1.0
    return t


def build_kernel_operator(spec, grid):
    """Build the symmetric covariance operator K[i, j] = kappa(|z_i - z_j|).

    kappa is evaluated once, by :func:`kernel_table`; the returned
    :class:`KernelOperator` applies K by FFT in O(n log n) time and O(n)
    memory, at any grid size.
    """
    ny, nx = grid.ny, grid.nx
    t = kernel_table(spec, grid)
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
    X = np.column_stack(cols)
    mean = X.mean(axis=1)
    S = (X - mean[:, None]) / np.sqrt(X.shape[1])
    return SampleFactor(S, mean)


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

    @property
    def n(self):
        return self.mean.size


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
# use: only ``gen`` and the ``file`` preset read or write these files.


def save_matrix(path, mat):
    import scipy.io

    if sp.issparse(mat):
        scipy.io.mmwrite(str(path), mat.tocoo())
    else:
        scipy.io.mmwrite(str(path), np.atleast_2d(np.asarray(mat, dtype=float)))


def load_matrix(path):
    import scipy.io

    mat = scipy.io.mmread(str(path))
    return mat.tocsr() if sp.issparse(mat) else np.asarray(mat, dtype=float)


def save_vector(path, vec):
    import scipy.io

    vec = np.asarray(vec, dtype=float).ravel()
    scipy.io.mmwrite(str(path), vec[:, None])


def load_vector(path):
    mat = load_matrix(path)
    if sp.issparse(mat):
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
    if sp.issparse(mat):
        mat = mat.toarray()
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ArgumentError(f"{p} does not hold a sample matrix")
    return [mat[:, j] for j in range(mat.shape[1])]
