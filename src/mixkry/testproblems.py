"""Built-in tomography test problems and image I/O.

Both problems live on the unit square with pixel basis functions.  The
spherical-means problem integrates over circles anchored to the boundary
of a circular region of interest; the crosswell problem traces straight
rays between boreholes on opposite edges.  Forward operators are sparse
and assembled once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ArgumentError, DegenerateDataError
from .operators import Grid, LinearOperator

__all__ = [
    "TomoProblem",
    "TrainingSet",
    "spherical_tomo",
    "crosswell_tomo",
    "gen_training_images",
    "add_noise",
    "circle_mask",
    "write_pgm",
    "read_pgm",
]


@dataclass
class TomoProblem:
    A: LinearOperator
    b_clean: np.ndarray
    s_true: np.ndarray
    grid: Grid
    mask: np.ndarray

    @property
    def matrix(self):
        return self.A.mat


@dataclass
class TrainingSet:
    """Stack of training images; columns() feeds the sample covariance."""

    images: np.ndarray  # (count, size, size)
    seed: int

    @property
    def count(self):
        return self.images.shape[0]

    def columns(self):
        n = self.images.shape[1] * self.images.shape[2]
        return self.images.reshape(self.count, n).T.copy()


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
    """Sine-squared mixtures with white freckles, masked to the disk.

    Each image is sum_j c_j sin^2((a_j px + b_j py) / L + phi_j) / sum_j c_j
    over 6 terms with c_j ~ U(0.5, 1) and per-term frequencies and phase
    a_j, b_j, phi_j ~ U(0, L) in pixel units (L = image size), then
    freckled and clipped to [0, 1].
    """
    if size < 4 or count < 1:
        raise ArgumentError("need size >= 4 and count >= 1")
    rng = np.random.default_rng(seed)
    return TrainingSet(images=_training_images(rng, count, size), seed=seed)


# ---------------------------------------------------------------------------
# spherical means


def _spherical_matrix(size, n_angles, n_circles):
    """Sparse spherical-means matrix, all arcs in one vectorized pass.

    Each arc is integrated by quarter-pixel sampling with bilinear
    deposition; it opens toward the center of the region of interest, and
    samples outside the masked disk are clipped (no weight).  The COO
    triplets are laid out arc by arc, then corner by corner, then sample by
    sample, as the per-arc reference lays them out.  ``tocsr`` sums
    duplicates after scipy's index sort, which is not stable: its order is
    fixed but is not the layout order (at spherical-32, sums in layout
    order differ from scipy's in 7,724 of 24,482 entries).  The matrix is
    byte-identical to the per-arc reference because both pass the same
    triplets through the same ``tocsr``.
    """
    h = 1.0 / size
    ds = 0.25 / size
    arcs = n_angles * n_circles
    theta = np.deg2rad(np.arange(n_angles) * (90.0 / n_angles))
    cx = np.repeat(0.5 + 0.5 * np.cos(theta), n_circles)
    cy = np.repeat(0.5 + 0.5 * np.sin(theta), n_circles)
    radius = np.tile((np.arange(n_circles) + 1) / n_circles, n_angles)
    nsamp = np.maximum(8, np.ceil(np.pi * radius / ds).astype(int))
    w = np.pi * radius / nsamp
    inward = np.arctan2(0.5 - cy, 0.5 - cx)

    # sample angles t = inward - pi/2 + (i + 1/2) pi / nsamp, built in place
    t = np.arange(nsamp.sum()) - np.repeat(np.cumsum(nsamp) - nsamp, nsamp)
    t = t + 0.5
    t *= np.repeat(np.pi / nsamp, nsamp)
    t += np.repeat(inward - np.pi / 2.0, nsamp)
    px = np.cos(t)
    px *= np.repeat(radius, nsamp)
    px += np.repeat(cx, nsamp)
    py = np.sin(t, out=t)
    py *= np.repeat(radius, nsamp)
    py += np.repeat(cy, nsamp)
    inside = (px - 0.5) ** 2 + (py - 0.5) ** 2 <= 0.25
    arc = np.repeat(np.arange(arcs), nsamp)[inside]
    px, py = px[inside], py[inside]
    del t, inside

    fx = px / h - 0.5
    fy = py / h - 0.5
    j0 = np.floor(fx).astype(int)
    i0 = np.floor(fy).astype(int)
    wx = fx - j0
    wy = fy - i0
    del px, py, fx, fy

    # kept sample i, the l-th of an arc whose kept samples start at s and
    # number c, writes its corner k triplet to 4 s + k c + l = 3 s + i + k c;
    # int32 indices are what scipy stores anyway
    count = np.bincount(arc, minlength=arcs)
    base = np.arange(arc.size)
    base += 3 * (np.cumsum(count) - count)[arc]
    stride = count[arc]
    w = w[arc]
    rows = np.empty(4 * arc.size, dtype=np.int32)
    cols = np.empty(4 * arc.size, dtype=np.int32)
    vals = np.empty(4 * arc.size)
    for corner, (dj, di) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        ux = wx if dj else 1.0 - wx
        uy = wy if di else 1.0 - wy
        pos = base + corner * stride
        rows[pos] = arc
        cols[pos] = (np.clip(i0 + di, 0, size - 1) * size
                     + np.clip(j0 + dj, 0, size - 1))
        vals[pos] = w * (ux * uy)
    return scipy.sparse.coo_matrix((vals, (rows, cols)),
                                   shape=(arcs, size * size)).tocsr()


def spherical_tomo(size=32, n_angles=16, n_circles=24, seed=7):
    """Spherical-means tomography on a disk-shaped region of interest.

    Arc centers sit on the boundary of the disk at angles i * 90 deg /
    n_angles; per center, radii grow linearly up to 1.  One measurement is
    the integral of the image along the semicircular arc that opens toward
    the disk, clipped to the disk.
    """
    if size < 16:
        raise ArgumentError("spherical geometry needs size >= 16")
    if n_angles < 1 or n_circles < 1:
        raise ArgumentError("degenerate spherical geometry")
    A = _spherical_matrix(size, n_angles, n_circles)
    if A.nnz == 0:
        raise ArgumentError("degenerate spherical geometry: no arc crosses "
                            "the region of interest")

    s_true = _training_images(np.random.default_rng(seed), 1, size).ravel()
    op = LinearOperator.from_matrix(A)
    return TomoProblem(A=op, b_clean=op.matvec(s_true), s_true=s_true,
                       grid=Grid(size, size), mask=circle_mask(size).ravel())


# ---------------------------------------------------------------------------
# crosswell


def _trace_ray(src_y, rcv_y, size):
    """Exact per-cell intersection lengths of the ray (0, src_y)-(1, rcv_y)."""
    h = 1.0 / size
    dy = rcv_y - src_y
    length = np.hypot(1.0, dy)
    ts = [0.0, 1.0]
    # vertical gridlines: x(t) = t
    ts.extend(j * h for j in range(1, size))
    if dy != 0.0:
        for i in range(1, size):
            t = (i * h - src_y) / dy
            if 0.0 < t < 1.0:
                ts.append(t)
    ts = np.unique(np.asarray(ts))
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
    rows, cols, vals = [], [], []
    for isrc in range(n_sources):
        sy = (isrc + 0.5) / n_sources
        for ircv in range(n_receivers):
            ry = (ircv + 0.5) / n_receivers
            cells, lens = _trace_ray(sy, ry, size)
            rows.append(np.full(cells.size, isrc * n_receivers + ircv))
            cols.append(cells)
            vals.append(lens)
    m = n_sources * n_receivers
    n = size * size
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, n),
    ).tocsr()

    s_true = _crosswell_truth(size, seed).ravel()
    op = LinearOperator.from_matrix(A)
    return TomoProblem(A=op, b_clean=op.matvec(s_true), s_true=s_true,
                       grid=Grid(size, size), mask=np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# noise and image files


def add_noise(b_clean, level, seed):
    """Additive white noise with an exact relative level.

    The draw is rescaled so ||e|| / ||b_clean|| equals ``level``; the
    matching per-entry standard deviation level * ||b_clean|| / sqrt(m) is
    returned for use as the noise deviation in selection rules.
    """
    b_clean = np.asarray(b_clean, dtype=float)
    if level <= 0:
        raise ArgumentError("noise level must be positive")
    norm_b = float(np.linalg.norm(b_clean))
    if norm_b == 0.0:
        raise DegenerateDataError("cannot scale noise against zero data")
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(b_clean.size)
    e *= level * norm_b / np.linalg.norm(e)
    sigma = level * norm_b / np.sqrt(b_clean.size)
    return b_clean + e, float(sigma)


def write_pgm(path, image, lo=None, hi=None):
    """Write a 2-D array as a 16-bit binary PGM (big-endian, maxval 65535).

    Values are scaled affinely from [lo, hi] (defaults to the image range)
    onto 0..65535.  Returns the (lo, hi) actually used so the scaling can
    be recorded next to the file.
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ArgumentError("PGM output needs a 2-D image")
    if lo is None:
        lo = float(img.min())
    if hi is None:
        hi = float(img.max())
    if hi > lo:
        scaled = (img - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(img)
    data = np.round(np.clip(scaled, 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())
    return lo, hi


def read_pgm(path):
    """Read a binary PGM written by :func:`write_pgm`; returns uint16."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ArgumentError(f"not a binary PGM: {path}")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        if maxval != 65535:
            raise ArgumentError("expected a 16-bit PGM")
        raw = fh.read(width * height * 2)
    return np.frombuffer(raw, dtype=">u2").reshape(height, width).astype(np.uint16)
