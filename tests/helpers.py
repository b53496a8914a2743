"""Shared test fixtures: random problem builders and independent oracles.

The oracles are deliberately written from the defining formulas, not by
calling back into the package, so that agreement between the two routes is
evidence and not tautology.  The one exception is
:func:`optimal_objective`, the full-space route that checks the O(k^2)
optimal-method cache against the package's own recovery.
:func:`solve_projected_reference` and :func:`residual_and_trace_reference`
are the scipy ``cho_factor``/``cho_solve`` route to the projected solve, a
pointwise Cholesky solve per lam that the package's one eigendecomposition
per gamma must match to rounding; they read Dk and rhs from a
:class:`~mixkry.projected.PenaltyBasis` (:func:`state_basis`) and take Gk
itself and a gamma.  :func:`solve_row` is the package's own one-gamma row
of cells, and :func:`one_cell` the search's value at one cell.  :func:`spherical_matrix_reference` is
the per-arc loop that the package's vectorized spherical-means assembly
must reproduce byte for byte, duplicate sums included.
:func:`circulant_apply_reference` is the one-``irfft2`` grid kernel product,
from an even embedding written entry by entry, that the package's cropped
inverse transform must match bit for bit.
:func:`qr_append_update_reference` is the deflation loop that rotates
``Rup``'s rows and ``Y``'s columns as two arrays, which the package's one
stacked array must reproduce bit for bit.  :class:`OpCounter` is the flop tally the
QR-maintenance tests hand to the package's duck-typed ``counter``
arguments, and :func:`read_pgm` reads back the images the package writes.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from mixkry.errors import (ArgumentError, ConditioningError,
                           ParameterDomainError, RankError)
from mixkry.mixgk import _RANK_TOL, _givens, _gs_append
from mixkry.operators import LinearOperator, kernel_eval, zero_operator
from mixkry.params import SearchConfig, objective_cells
from mixkry.projected import (penalty_basis, recover_iterate, solve_cells,
                              trace_term)


@dataclass
class OpCounter:
    """Rough floating-point operation tally for the QR maintenance paths."""

    flops: int = 0

    def add(self, n):
        self.flops += int(n)


def spd_matrix(rng, n, shift=0.5):
    """Random symmetric positive definite matrix."""
    B = rng.standard_normal((n, n))
    return B @ B.T + shift * np.eye(n)


def psd_matrix(rng, n, rank):
    """Random symmetric PSD matrix of the given rank."""
    B = rng.standard_normal((n, rank))
    return B @ B.T


def random_problem(seed, m=25, n=20, q2_rank=None, noise=0.05):
    """Dense test problem: A, SPD Q1, PSD Q2, data b, noise level sigma."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    Q1 = spd_matrix(rng, n)
    Q2 = psd_matrix(rng, n, q2_rank if q2_rank is not None else n)
    x = rng.standard_normal(n)
    sigma = noise * np.linalg.norm(A @ x) / np.sqrt(m)
    b = A @ x + sigma * rng.standard_normal(m)
    return A, Q1, Q2, b, sigma


def wrap_problem(A, Q1, Q2, sigma):
    """Operator views of the whitened forward map A / sigma (R = sigma^2 I),
    Q1 and Q2 (the zero operator for ``Q2=None``); the process runs on
    them with the data b / sigma."""
    wrap = LinearOperator.from_matrix
    q2op = zero_operator(A.shape[1]) if Q2 is None else wrap(Q2)
    return wrap(A / sigma), wrap(Q1), q2op


def grid_points(grid):
    """The grid's n x 2 pixel centers (x, y), row-major, in the unit-square
    coordinates of ``grid.scale``."""
    s = grid.scale
    X, Y = np.meshgrid((np.arange(grid.nx) + 0.5) * s,
                       (np.arange(grid.ny) + 0.5) * s)
    return np.column_stack([X.ravel(), Y.ravel()])


def grid_distances(grid):
    """Pairwise distance matrix |z_i - z_j| of the grid points."""
    z = grid_points(grid)
    return np.hypot(z[:, None, 0] - z[None, :, 0], z[:, None, 1] - z[None, :, 1])


def _deposit_arc(center, radius, size):
    """Integrate over a semicircular arc by quarter-pixel sampling with
    bilinear deposition.  The arc opens toward the center of the region of
    interest; samples outside the masked disk are clipped (no weight).
    Returns the arc's (column, weight) triplets corner by corner, then
    sample by sample.
    """
    h = 1.0 / size
    ds = 0.25 / size
    nsamp = max(8, int(np.ceil(np.pi * radius / ds)))
    w = np.pi * radius / nsamp
    inward = np.arctan2(0.5 - center[1], 0.5 - center[0])
    t = inward - np.pi / 2.0 + (np.arange(nsamp) + 0.5) * (np.pi / nsamp)
    px = center[0] + radius * np.cos(t)
    py = center[1] + radius * np.sin(t)
    inside = (px - 0.5) ** 2 + (py - 0.5) ** 2 <= 0.25
    px, py = px[inside], py[inside]
    fx = px / h - 0.5
    fy = py / h - 0.5
    j0 = np.floor(fx).astype(int)
    i0 = np.floor(fy).astype(int)
    wx = fx - j0
    wy = fy - i0
    cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for dj, di, wgt in (
        (0, 0, (1.0 - wx) * (1.0 - wy)),
        (1, 0, wx * (1.0 - wy)),
        (0, 1, (1.0 - wx) * wy),
        (1, 1, wx * wy),
    ):
        jj = np.clip(j0 + dj, 0, size - 1)
        ii = np.clip(i0 + di, 0, size - 1)
        cols.append(ii * size + jj)
        vals.append(w * wgt)
    return np.concatenate(cols), np.concatenate(vals)


def spherical_matrix_reference(size, n_angles, n_circles):
    """Spherical-means matrix assembled one arc at a time: arc centers at
    angles i * 90 deg / n_angles on the disk boundary, radii (j + 1) /
    n_circles, one row per (angle, radius) pair.  Each column of a row sums
    the arc's weights in that column one by one in the arc's triplet order
    (``np.add.at`` is unbuffered and goes in index order); the rows are
    stored with ascending columns and int32 indices, as a scipy CSR."""
    data, indices, indptr = [np.zeros(0)], [np.zeros(0, dtype=int)], [0]
    for ia in range(n_angles):
        theta = np.deg2rad(ia * (90.0 / n_angles))
        center = (0.5 + 0.5 * np.cos(theta), 0.5 + 0.5 * np.sin(theta))
        for ic in range(n_circles):
            cols, vals = _deposit_arc(center, (ic + 1) / n_circles, size)
            uniq, slot = np.unique(cols, return_inverse=True)
            sums = np.zeros(uniq.size)
            np.add.at(sums, slot, vals)
            data.append(sums)
            indices.append(uniq)
            indptr.append(indptr[-1] + uniq.size)
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices).astype(np.int32),
         np.array(indptr, dtype=np.int32)),
        shape=(n_angles * n_circles, size * size))


def _rotate_rows(M, i, c, s):
    ri = c * M[i] + s * M[i + 1]
    M[i + 1] = -s * M[i] + c * M[i + 1]
    M[i] = ri


def _rotate_cols(M, i, c, s):
    ci = c * M[:, i] + s * M[:, i + 1]
    M[:, i + 1] = -s * M[:, i] + c * M[:, i + 1]
    M[:, i] = ci


def qr_append_update_reference(Y, Rup, u_new, v_hat, input_norm,
                               counter=None):
    """:func:`mixkry.mixgk.qr_append_update` with its deflation on copies
    of ``Y`` and ``Rup``: each plane rotation turns two rows of ``Rup`` and
    two columns of ``Y``, then Gram-Schmidt appends ``v_hat``."""
    m = Y.shape[0] if Y.size else v_hat.shape[0]
    r, p = Rup.shape
    Y = np.array(Y)
    Rup = np.array(Rup)
    if u_new is not None and r > 0:
        d = Y.T @ u_new
        if counter is not None:
            counter.add(2 * m * r)
        if np.linalg.norm(d) > 1e-14:
            for i in range(r - 2, -1, -1):
                c, s, h = _givens(d[i], d[i + 1])
                d[i], d[i + 1] = h, 0.0
                _rotate_rows(Rup, i, c, s)
                _rotate_cols(Y, i, c, s)
            delta_s = d[0]
            if 1.0 - delta_s * delta_s <= _RANK_TOL:
                raise RankError("deflation produced a rank-deficient factor")
            lead = Y[:, 0] - delta_s * u_new
            xi = np.linalg.norm(lead)
            Y[:, 0] = lead / xi
            Rup[0] *= xi
            for i in range(r - 1):
                if Rup[i + 1, i] != 0.0:
                    c, s, _ = _givens(Rup[i, i], Rup[i + 1, i])
                    _rotate_rows(Rup, i, c, s)
                    Rup[i + 1, i] = 0.0
                    _rotate_cols(Y, i, c, s)
            if counter is not None:
                counter.add(12 * m * max(r - 1, 0) + 3 * m + 12 * r * p)
    return _gs_append(Y, Rup, np.array(v_hat, dtype=float), input_norm,
                      counter)


def dense_kernel(spec, grid):
    """Dense kernel matrix K[i, j] = kappa(|z_i - z_j|) with a unit diagonal,
    the reference for the FFT-applied grid kernels."""
    K = kernel_eval(spec, grid_distances(grid))
    np.fill_diagonal(K, 1.0)
    return K


def circulant_apply_reference(table, x):
    """The grid kernel's FFT product as one zero-padded ``irfft2`` cropped
    to the grid, which the package's column-then-row inversion of the kept
    rows only must reproduce bit for bit.  ``table`` is the kernel's
    ``ny x nx`` offset table (:func:`~mixkry.operators.kernel_table`) and
    ``x`` a vector or a block.  The spectrum is built here from the even
    embedding written entry by entry: (i, j) of the ``2 ny x 2 nx`` array
    holds the kernel at offset (min(i, 2 ny - i), min(j, 2 nx - j)), and row
    ny and column nx, which no cropped product reaches, hold zero."""
    ny, nx = table.shape
    c = np.zeros((2 * ny, 2 * nx))
    for i in range(2 * ny):
        for j in range(2 * nx):
            if i != ny and j != nx:
                c[i, j] = table[min(i, 2 * ny - i), min(j, 2 * nx - j)]
    spectrum = np.fft.rfft2(c).real
    img = x.reshape((ny, nx) + x.shape[1:])
    spec = spectrum if x.ndim == 1 else spectrum[:, :, None]
    f = np.fft.rfft2(img, s=(2 * ny, 2 * nx), axes=(0, 1))
    y = np.fft.irfft2(f * spec, s=(2 * ny, 2 * nx), axes=(0, 1))
    return y[:ny, :nx].reshape(x.shape)


def dense_map(A, sigma, Q, b, mu, lam):
    """MAP estimate via the dual formula mu + Q A^T (A Q A^T + lam^2 R)^{-1}
    (b - A mu), which never inverts Q and so tolerates PSD mixtures."""
    m = A.shape[0]
    R = sigma**2 * np.eye(m)
    M = A @ Q @ A.T + lam**2 * R
    return mu + Q @ (A.T @ np.linalg.solve(M, b - A @ mu))


def solve_map_dense(A, Rinv, Q, b, mu, lam):
    """MAP estimate via the primal formula mu + Q (A^T R^{-1} A Q +
    lam^2 I)^{-1} A^T R^{-1} (b - A mu), on dense arrays."""
    A, Rinv, Q = (np.asarray(M, dtype=float) for M in (A, Rinv, Q))
    mu = np.asarray(mu, dtype=float)
    n = A.shape[1]
    ARinv = A.T @ Rinv
    M = ARinv @ A @ Q + (lam * lam) * np.eye(n)
    x = np.linalg.solve(M, ARinv @ (b - A @ mu))
    return mu + Q @ x


def state_basis(state):
    """The state's current blocks in the eigenbasis of its Gram matrix, as
    the search assembles them."""
    return penalty_basis(state.bidiagonal(), state.C, state.Rup, state.G,
                         state.beta1)


def solve_row(basis, gamma, lams):
    """Weights, squared residuals and traces at every lam: the one-gamma
    row of :func:`mixkry.projected.solve_cells`, as the search scores it."""
    parts = trace_term(basis, [gamma])
    Y, r2, tr = solve_cells(parts, basis.assemble([gamma]), basis.rhs, lams)
    return Y[0], r2[0], tr[0]


def one_cell(method, state, gamma, lam, **knobs):
    """The search's value of ``method`` at the one cell (gamma, lam), with
    the :class:`~mixkry.params.SearchConfig` knobs given."""
    cells = objective_cells(method, state, config=SearchConfig(**knobs))
    return float(cells([gamma], [lam])[0][0, 0])


def _cho_reference(basis, G, gamma, lam):
    """Dk and the Cholesky factor of Dk^T Dk + lam^2 (gamma I +
    (1 - gamma) G), with the normal matrix and the penalty formed from
    their definitions at every call."""
    Dk = basis.assemble([gamma])[0]
    k = Dk.shape[1]
    M = Dk.T @ Dk + (lam * lam) * (
        gamma * np.eye(k) + (1.0 - gamma) * G
    )
    try:
        return Dk, scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"projected normal equations indefinite at lam = {lam:g}"
        ) from exc


def solve_projected_reference(basis, G, gamma, lam):
    """Projected weights y(lam, gamma) through scipy's Cholesky wrappers."""
    if not lam > 0:
        raise ParameterDomainError("lam must be positive")
    Dk, cho = _cho_reference(basis, G, gamma, lam)
    return scipy.linalg.cho_solve(cho, Dk.T @ basis.rhs, check_finite=False)


def residual_and_trace_reference(basis, G, gamma, lam):
    """Squared projected residual and influence trace through scipy's
    Cholesky wrappers, both from one factor."""
    if not lam > 0:
        raise ParameterDomainError("trace term requires lam > 0")
    Dk, cho = _cho_reference(basis, G, gamma, lam)
    rhs = basis.rhs
    y = scipy.linalg.cho_solve(cho, Dk.T @ rhs, check_finite=False)
    r = Dk @ y - rhs
    X = scipy.linalg.cho_solve(cho, Dk.T @ Dk, check_finite=False)
    return float(r @ r), float(np.trace(X))


def optimal_objective(state, prior, gamma, lam, s_true):
    """Squared error ||s_k(gamma, lam) - s_true||^2 of the recovered
    iterate, assembled in full space."""
    y = solve_projected_reference(state_basis(state), state.G, gamma, lam)
    s = recover_iterate(state, prior, gamma, y)
    d = s - np.asarray(s_true, dtype=float)
    return float(d @ d)


def recurrence_residual(state, prior, A, Q1, Q2, b, sigma):
    """Worst criterion-2 relation residual at the state's current step.

    The state runs on the whitened A / sigma and b / sigma (R = I).  Covers
    (A / sigma) Q1 V = U B, orthonormal U, Q1-orthonormal V, the skinny QR
    of the deflated Q2 branch, and, at gamma 0.4 and 1, the stacked Gram
    identity and equality of projected and full-space misfits.
    """
    k = state.k
    U, V, B = state.U, state.V[:, :k], state.bidiagonal()
    Aw = A / sigma
    errs = [
        np.linalg.norm(Aw @ Q1 @ V - U @ B) / np.linalg.norm(B),
        np.max(np.abs(U.T @ U - np.eye(U.shape[1]))),
        np.max(np.abs(V.T @ Q1 @ V - np.eye(k))),
    ]
    Z = Aw @ Q2 @ V
    proj = Z - U @ (U.T @ Z)
    errs.append(np.linalg.norm(state.Y @ state.Rup - proj)
                / max(np.linalg.norm(Z), 1.0))
    basis = state_basis(state)
    for gamma in (0.4, 1.0):
        Dk = basis.assemble([gamma])[0]
        M = Aw @ (gamma * Q1 + (1 - gamma) * Q2) @ V
        errs.append(np.max(np.abs(Dk.T @ Dk - M.T @ M))
                    / max(np.linalg.norm(M.T @ M), 1.0))
        y = np.sin(np.arange(1.0, k + 1))
        r_proj = np.linalg.norm(Dk @ y - basis.rhs)
        s = recover_iterate(state, prior, gamma, y)
        r_full = np.linalg.norm(A @ s - b) / sigma
        errs.append(abs(r_proj - r_full) / r_full)
    return max(errs)


def reference_gengk(A, sigma, Q1, b, steps):
    """Plain textbook bidiagonalization loop in the (R^{-1}, Q1) geometry.

    Returns (B, U, V) after `steps` steps with full reorthogonalization.
    Written independently of the package's state machinery.
    """
    m, n = A.shape
    Rinv = np.eye(m) / sigma**2
    beta1 = np.sqrt(b @ Rinv @ b)
    U = [b / beta1]
    alphas, betas = [], []
    vraw = A.T @ Rinv @ U[0]
    alpha = np.sqrt(vraw @ Q1 @ vraw)
    V = [vraw / alpha]
    alphas.append(alpha)
    for _ in range(steps - 1):
        uhat = A @ Q1 @ V[-1] - alphas[-1] * U[-1]
        for u in U:
            uhat = uhat - (u @ Rinv @ uhat) * u
        beta = np.sqrt(uhat @ Rinv @ uhat)
        U.append(uhat / beta)
        betas.append(beta)
        vhat = A.T @ Rinv @ U[-1] - beta * V[-1]
        for v in V:
            vhat = vhat - (v @ Q1 @ vhat) * v
        alpha = np.sqrt(vhat @ Q1 @ vhat)
        V.append(vhat / alpha)
        alphas.append(alpha)
    # Trailing left vector for the (k+1) x k shape.
    uhat = A @ Q1 @ V[-1] - alphas[-1] * U[-1]
    for u in U:
        uhat = uhat - (u @ Rinv @ uhat) * u
    beta = np.sqrt(uhat @ Rinv @ uhat)
    U.append(uhat / beta)
    betas.append(beta)
    k = steps
    B = np.zeros((k + 1, k))
    for i in range(k):
        B[i, i] = alphas[i]
        B[i + 1, i] = betas[i]
    return B, np.column_stack(U), np.column_stack(V)


def max_principal_angle(X, Y):
    """Largest principal angle (radians) between the column spaces.

    Sine-based so tiny angles are resolved; arccos of a cosine near one
    bottoms out around 1e-8.
    """
    qx, _ = np.linalg.qr(X)
    qy, _ = np.linalg.qr(Y)
    if qx.shape[1] == 0 or qy.shape[1] == 0:
        return 0.0 if qx.shape[1] == qy.shape[1] else np.pi / 2
    resid = qy - qx @ (qx.T @ qy)
    s = np.linalg.svd(resid, compute_uv=False)
    return float(np.arcsin(np.clip(s.max(), 0.0, 1.0)))


def run_steps(state, steps, step_fn):
    """Advance the process, stopping early on breakdown."""
    for _ in range(steps):
        if state.terminal:
            break
        step_fn(state)
    return state


def read_pgm(path):
    """Read a binary PGM written by :func:`mixkry.testproblems.write_pgm`;
    returns uint16."""
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
