"""Built-in tomography test problems and image output.

Both problems live on the unit square with pixel basis functions.  The
spherical-means problem integrates over circles anchored to the boundary
of a circular region of interest; the crosswell problem traces straight
rays between boreholes on opposite edges.  Forward operators are sparse,
assembled once into :class:`~mixkry.operators.CSRMatrix` arrays in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateDataError, ParameterDomainError
from .operators import CSRMatrix, Grid, LinearOperator

__all__ = [
    "SPHERICAL_MIN_SIZE",
    "TomoProblem",
    "spherical_tomo",
    "crosswell_tomo",
    "gen_training_images",
    "add_noise",
    "circle_mask",
    "write_pgm",
]


@dataclass
class TomoProblem:
    A: LinearOperator
    b_clean: np.ndarray
    s_true: np.ndarray
    grid: Grid


def circle_mask(size):
    """Boolean disk of radius 0.5 about the center of the unit square."""
    h = 1.0 / size
    iy, ix = np.mgrid[0:size, 0:size]
    x = (ix + 0.5) * h
    y = (iy + 0.5) * h
    return (x - 0.5) ** 2 + (y - 0.5) ** 2 <= 0.25


# ---------------------------------------------------------------------------
# training images


def _sine_mixture(rng, iy, ix):
    L = float(ix.shape[0])
    coeffs = rng.uniform(0.5, 1.0, 6)
    img = np.zeros(ix.shape)
    for c in coeffs:
        a, b, phi = rng.uniform(0.0, L, 3)
        img += c * np.sin((a * ix + b * iy) / L + phi) ** 2
    return img / coeffs.sum()


def _add_freckles(rng, img, iy, ix):
    """Stamp 8 white disks: 5 of radius 3 and 3 of radius 4 at reference
    scale 128, radii scaled proportionally to the image size."""
    size = img.shape[0]
    radii = [3.0 * size / 128.0] * 5 + [4.0 * size / 128.0] * 3
    for rad in radii:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rr = 0.35 * size * np.sqrt(rng.uniform())
        cx = size / 2.0 + rr * np.cos(theta)
        cy = size / 2.0 + rr * np.sin(theta)
        img[(ix - cx) ** 2 + (iy - cy) ** 2 <= rad * rad] = 1.0
    return img


def _training_images(rng, count, size):
    """``count`` freckled sine mixtures drawn in turn from ``rng``, masked
    to the disk and clipped to [0, 1]; the pixel grid and mask are built
    once for the whole stack."""
    iy, ix = np.mgrid[0:size, 0:size]
    outside = ~circle_mask(size)
    images = np.zeros((count, size, size))
    for i in range(count):
        img = _add_freckles(rng, _sine_mixture(rng, iy, ix), iy, ix)
        img[outside] = 0.0
        images[i] = np.clip(img, 0.0, 1.0)
    return images


def gen_training_images(count, size, seed):
    """A ``(count, size, size)`` stack of sine-squared mixtures with white
    freckles, masked to the disk.

    Each image is sum_j c_j sin^2((a_j px + b_j py) / L + phi_j) / sum_j c_j
    over 6 terms with c_j ~ U(0.5, 1) and per-term frequencies and phase
    a_j, b_j, phi_j ~ U(0, L) in pixel units (L = image size), then
    freckled and clipped to [0, 1].
    """
    if size < 4 or count < 1:
        raise ArgumentError("need size >= 4 and count >= 1")
    rng = np.random.default_rng(seed)
    return _training_images(rng, count, size)


# ---------------------------------------------------------------------------
# sparse assembly


def _index_dtype(n_cols, nnz):
    """int32 for CSR indices where ``n_cols`` and ``nnz`` (or a bound on it)
    fit, as scipy stores them; int64 otherwise."""
    return np.int32 if max(n_cols, nnz) < 2**31 else np.int64


def _sum_rows(rows, cols, vals, n_rows, n_cols, index):
    """Compressed rows of the triplets (rows, cols, vals), duplicates summed.

    Each (row, column) cell is one ``np.bincount`` bin, which adds its
    values one at a time in triplet order, starting from 0.0.  Every cell a
    triplet touches is an entry, also when it sums to 0.  Returns (data,
    column indices of dtype ``index``, entries per row), rows and columns
    ascending.
    """
    key = rows.astype(np.int64) * n_cols + cols
    hit = np.zeros(n_rows * n_cols, dtype=bool)
    hit[key] = True
    data = np.bincount(key, weights=vals, minlength=hit.size)
    key = np.flatnonzero(hit)
    return (data[key], (key % n_cols).astype(index),
            np.count_nonzero(hit.reshape(n_rows, n_cols), axis=1))


def _csr(pieces, shape):
    """The :class:`~mixkry.operators.CSRMatrix` of consecutive row blocks,
    each a ``_sum_rows`` result; int32 indices where they fit, and float64
    data even where no entry was summed.

    Given as a generator, the blocks are held only here, so each kind of
    array is freed once it is joined, and indices that already have the
    final dtype are joined without a cast.
    """
    data, cols, counts = zip(*pieces)
    data = np.concatenate(data).astype(float, copy=False)
    index = _index_dtype(shape[1], data.size)
    cols = np.concatenate(cols).astype(index, copy=False)
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return CSRMatrix(data, cols, indptr, shape)


# ---------------------------------------------------------------------------
# spherical means

# the smallest image side the spherical geometry accepts
SPHERICAL_MIN_SIZE = 16


def _spherical_matrix(size, n_angles, n_circles):
    """Sparse spherical-means matrix, assembled one angle at a time.

    Each arc is integrated by quarter-pixel sampling with bilinear
    deposition; it opens toward the center of the region of interest, and
    samples outside the masked disk are clipped (no weight).  Within an arc
    the triplets are laid out corner by corner, then sample by sample, as
    the per-arc reference lays them out, and each (row, column) sum adds
    its triplets in that order.  Rows are arcs, so the arcs of one angle
    hold every triplet of their rows, and only one angle's triplets are
    alive at a time.
    """
    ds = 0.25 / size
    radius = (np.arange(n_circles) + 1) / n_circles
    nsamp = np.maximum(8, np.ceil(np.pi * radius / ds).astype(int))
    # a sample deposits on at most 4 pixels, which bounds nnz
    index = _index_dtype(size * size, 4 * n_angles * int(nsamp.sum()))
    # the samples of every radius, which each angle shares: arc, offset
    # (i + 1/2) pi / nsamp from the arc's start, radius and weight
    arc = np.repeat(np.arange(n_circles), nsamp)
    t = np.arange(nsamp.sum()) - np.repeat(np.cumsum(nsamp) - nsamp, nsamp)
    t = t + 0.5
    t *= np.repeat(np.pi / nsamp, nsamp)
    samples = (arc, t, np.repeat(radius, nsamp),
               np.repeat(np.pi * radius / nsamp, nsamp))
    theta = np.deg2rad(np.arange(n_angles) * (90.0 / n_angles))
    return _csr((_angle_arcs(size, a, samples, n_circles, index)
                 for a in theta), (n_angles * n_circles, size * size))


def _angle_arcs(size, theta, samples, n_circles, index):
    """``_sum_rows`` of the ``n_circles`` arcs centred at angle ``theta``,
    one row per radius, from the shared ``samples`` of
    ``_spherical_matrix``."""
    arc, t, r, w = samples
    h = 1.0 / size
    cx = 0.5 + 0.5 * np.cos(theta)
    cy = 0.5 + 0.5 * np.sin(theta)
    # each arc spans the half turn centred on the direction to the center
    t = t + (np.arctan2(0.5 - cy, 0.5 - cx) - np.pi / 2.0)
    px = np.cos(t)
    px *= r
    px += cx
    py = np.sin(t, out=t)
    py *= r
    py += cy
    inside = (px - 0.5) ** 2 + (py - 0.5) ** 2 <= 0.25
    arc, w = arc[inside], w[inside]
    px, py = px[inside], py[inside]
    del t, inside

    fx = px / h - 0.5
    fy = py / h - 0.5
    j0 = np.floor(fx).astype(int)
    i0 = np.floor(fy).astype(int)
    wx = fx - j0
    wy = fy - i0
    del px, py, fx, fy

    # one row of triplets per corner; read corner by corner, each arc's
    # triplets come in the per-arc layout
    cols = np.empty((4, arc.size), dtype=int)
    vals = np.empty((4, arc.size))
    for corner, (dj, di) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        ux = wx if dj else 1.0 - wx
        uy = wy if di else 1.0 - wy
        cols[corner] = (np.clip(i0 + di, 0, size - 1) * size
                        + np.clip(j0 + dj, 0, size - 1))
        vals[corner] = w * (ux * uy)
    return _sum_rows(np.tile(arc, 4), cols.ravel(), vals.ravel(), n_circles,
                     size * size, index)


def spherical_tomo(size=32, n_angles=16, n_circles=24, seed=7):
    """Spherical-means tomography on a disk-shaped region of interest.

    Arc centers sit on the boundary of the disk at angles i * 90 deg /
    n_angles; per center, radii grow linearly up to 1.  One measurement is
    the integral of the image along the semicircular arc that opens toward
    the disk, clipped to the disk.
    """
    if size < SPHERICAL_MIN_SIZE:
        raise ArgumentError(
            f"spherical geometry needs size >= {SPHERICAL_MIN_SIZE}")
    if n_angles < 1 or n_circles < 1:
        raise ArgumentError("degenerate spherical geometry")
    A = _spherical_matrix(size, n_angles, n_circles)
    if A.nnz == 0:
        raise ArgumentError("degenerate spherical geometry: no arc crosses "
                            "the region of interest")

    s_true = _training_images(np.random.default_rng(seed), 1, size).ravel()
    op = LinearOperator.from_matrix(A)
    return TomoProblem(A=op, b_clean=op.matvec(s_true), s_true=s_true,
                       grid=Grid(size, size))


# ---------------------------------------------------------------------------
# crosswell


def _trace_ray(src_y, rcv_y, size):
    """Exact per-cell intersection lengths of the ray (0, src_y)-(1, rcv_y)."""
    h = 1.0 / size
    dy = rcv_y - src_y
    length = np.hypot(1.0, dy)
    lines = np.arange(1, size) * h
    # the ends, the vertical gridlines x(t) = t and the horizontal ones
    # that the ray crosses inside the square
    ts = [[0.0, 1.0], lines]
    if dy != 0.0:
        t = (lines - src_y) / dy
        ts.append(t[(0.0 < t) & (t < 1.0)])
    # np.unique's values, without the numpy.ma import it makes
    ts = np.sort(np.concatenate(ts))
    ts = ts[np.append(True, ts[1:] != ts[:-1])]
    t0 = ts[:-1]
    t1 = ts[1:]
    tm = 0.5 * (t0 + t1)
    xj = np.clip((tm / h).astype(int), 0, size - 1)
    yi = np.clip(((src_y + tm * dy) / h).astype(int), 0, size - 1)
    return yi * size + xj, (t1 - t0) * length


def _crosswell_truth(size, seed):
    rng = np.random.default_rng(seed)
    grid = (np.arange(size) + 0.5) / size
    xs, ys = np.meshgrid(grid, grid)
    img = np.zeros((size, size))
    for kx in range(3):
        for ky in range(3):
            amp = rng.normal() / (1.0 + kx + ky)
            img += amp * np.cos(np.pi * kx * xs) * np.cos(np.pi * ky * ys)
    for _ in range(2):
        cx, cy = rng.uniform(0.25, 0.75, 2)
        s = rng.uniform(0.06, 0.12)
        a = rng.uniform(0.5, 1.0)
        img += a * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * s * s))
    lo, hi = img.min(), img.max()
    return (img - lo) / (hi - lo)


def crosswell_tomo(size=64, n_sources=10, n_receivers=20, seed=11):
    """Straight-ray crosswell tomography between two boreholes.

    Sources at x = 0, receivers at x = 1, both evenly spaced in depth.
    Matrix entries are exact ray/cell intersection lengths.
    """
    if size < 4 or n_sources < 1 or n_receivers < 1:
        raise ArgumentError("degenerate crosswell geometry")
    m = n_sources * n_receivers
    n = size * size
    # a ray meets at most 2 size cells, which bounds nnz
    index = _index_dtype(n, 2 * size * m)
    rays = (_trace_ray((isrc + 0.5) / n_sources, (ircv + 0.5) / n_receivers,
                       size)
            for isrc in range(n_sources) for ircv in range(n_receivers))
    # one block per ray: its bins are a single row of cells
    A = _csr((_sum_rows(np.zeros_like(cells), cells, lens, 1, n, index)
              for cells, lens in rays), (m, n))

    s_true = _crosswell_truth(size, seed).ravel()
    op = LinearOperator.from_matrix(A)
    return TomoProblem(A=op, b_clean=op.matvec(s_true), s_true=s_true,
                       grid=Grid(size, size))


# ---------------------------------------------------------------------------
# noise and image files


def add_noise(b_clean, level, seed):
    """Additive white noise with an exact relative level.

    The draw is rescaled so ||e|| / ||b_clean|| equals ``level``; the
    matching per-entry standard deviation level * ||b_clean|| / sqrt(m) is
    returned for use as the noise deviation in selection rules.
    """
    b_clean = np.asarray(b_clean, dtype=float)
    if not (np.isfinite(level) and level > 0):
        raise ParameterDomainError(
            f"noise level must be finite and positive, got {level}")
    norm_b = float(np.linalg.norm(b_clean))
    if norm_b == 0.0:
        raise DegenerateDataError("cannot scale noise against zero data")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(b_clean.size)
    e *= level * norm_b / np.linalg.norm(e)
    sigma = level * norm_b / np.sqrt(b_clean.size)
    return b_clean + e, float(sigma)


def write_pgm(path, image):
    """Write a 2-D array as a 16-bit binary PGM (big-endian, maxval 65535).

    Values are scaled affinely from the image range [lo, hi] onto
    0..65535.  Returns (lo, hi) so the scaling can be recorded next to the
    file.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ArgumentError("PGM output needs a 2-D image")
    lo, hi = float(img.min()), float(img.max())
    if hi > lo:
        scaled = (img - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(img)
    data = np.round(scaled * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())
    return lo, hi
