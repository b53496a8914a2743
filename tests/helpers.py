"""Shared test fixtures: random problem builders and independent oracles.

The oracles are deliberately written from the defining formulas, not by
calling back into the package, so that agreement between the two routes is
evidence and not tautology.  The one exception is
:func:`optimal_objective`, the full-space route that checks the O(k^2)
optimal-method cache against the package's own recovery.
:func:`solve_projected_reference` and :func:`residual_and_trace_reference`
are the scipy ``cho_factor``/``cho_solve`` route to the projected solve, a
pointwise Cholesky solve per lam that the package's one eigendecomposition
per gamma must match to rounding.  :func:`spherical_matrix_reference` is
the per-arc loop that the package's vectorized spherical-means assembly
must reproduce byte for byte.  :class:`OpCounter` is the flop tally the
QR-maintenance tests hand to the package's duck-typed ``counter``
arguments.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from mixkry.errors import ConditioningError, ParameterDomainError
from mixkry.operators import (LinearOperator, kernel_eval, noise_whitener,
                              zero_operator)
from mixkry.projected import build_projected, recover_iterate


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
    """Operator views plus the (R^{-1}, L_R) pair for R = sigma^2 I."""
    m = A.shape[0]
    Rinv, LR = noise_whitener(sigma**2, m)
    wrap = LinearOperator.from_matrix
    q2op = zero_operator(A.shape[1]) if Q2 is None else wrap(Q2)
    return wrap(A), wrap(Q1), q2op, Rinv, LR


def grid_distances(grid):
    """Pairwise distance matrix |z_i - z_j| of the grid points."""
    z = grid.points()
    return np.hypot(z[:, None, 0] - z[None, :, 0], z[:, None, 1] - z[None, :, 1])


def _deposit_arc(rows, cols, vals, row, center, radius, size):
    """Integrate over a semicircular arc by quarter-pixel sampling with
    bilinear deposition.  The arc opens toward the center of the region of
    interest; samples outside the masked disk are clipped (no weight).
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
    if not np.any(inside):
        return
    px, py = px[inside], py[inside]
    fx = px / h - 0.5
    fy = py / h - 0.5
    j0 = np.floor(fx).astype(int)
    i0 = np.floor(fy).astype(int)
    wx = fx - j0
    wy = fy - i0
    for dj, di, wgt in (
        (0, 0, (1.0 - wx) * (1.0 - wy)),
        (1, 0, wx * (1.0 - wy)),
        (0, 1, (1.0 - wx) * wy),
        (1, 1, wx * wy),
    ):
        jj = np.clip(j0 + dj, 0, size - 1)
        ii = np.clip(i0 + di, 0, size - 1)
        rows.append(np.full(px.size, row))
        cols.append(ii * size + jj)
        vals.append(w * wgt)


def spherical_matrix_reference(size, n_angles, n_circles):
    """Spherical-means matrix assembled one arc at a time: arc centers at
    angles i * 90 deg / n_angles on the disk boundary, radii (j + 1) /
    n_circles, one row per (angle, radius) pair."""
    rows, cols, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], [
        np.zeros(0)]
    for ia in range(n_angles):
        theta = np.deg2rad(ia * (90.0 / n_angles))
        center = (0.5 + 0.5 * np.cos(theta), 0.5 + 0.5 * np.sin(theta))
        for ic in range(n_circles):
            radius = (ic + 1) / n_circles
            _deposit_arc(rows, cols, vals, ia * n_circles + ic,
                         center, radius, size)
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_angles * n_circles, size * size),
    ).tocsr()


def dense_kernel(spec, grid):
    """Dense kernel matrix K[i, j] = kappa(|z_i - z_j|) with a unit diagonal,
    the reference for the FFT-applied grid kernels."""
    K = kernel_eval(spec, grid_distances(grid))
    np.fill_diagonal(K, 1.0)
    return K


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


def _cho_reference(sys, lam):
    """Cholesky factor of Dk^T Dk + lam^2 (gamma I + (1 - gamma) Gk), with
    the normal matrix and the penalty formed from their definitions at
    every call."""
    k = sys.k
    M = sys.Dk.T @ sys.Dk + (lam * lam) * (
        sys.gamma * np.eye(k) + (1.0 - sys.gamma) * sys.Gk
    )
    try:
        return scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise ConditioningError(
            f"projected normal equations indefinite at lam = {lam:g}"
        ) from exc


def solve_projected_reference(sys, lam):
    """Projected weights y(lam, gamma) through scipy's Cholesky wrappers."""
    if not lam > 0:
        raise ParameterDomainError("lam must be positive")
    cho = _cho_reference(sys, lam)
    return scipy.linalg.cho_solve(cho, sys.Dk.T @ sys.rhs, check_finite=False)


def residual_and_trace_reference(sys, lam):
    """Squared projected residual and influence trace through scipy's
    Cholesky wrappers, both from one factor."""
    if not lam > 0:
        raise ParameterDomainError("trace term requires lam > 0")
    cho = _cho_reference(sys, lam)
    y = scipy.linalg.cho_solve(cho, sys.Dk.T @ sys.rhs, check_finite=False)
    r = sys.Dk @ y - sys.rhs
    X = scipy.linalg.cho_solve(cho, sys.Dk.T @ sys.Dk, check_finite=False)
    return float(r @ r), float(np.trace(X))


def optimal_objective(state, prior, gamma, lam, s_true):
    """Squared error ||s_k(gamma, lam) - s_true||^2 of the recovered
    iterate, assembled in full space."""
    y = solve_projected_reference(build_projected(state, gamma), lam)
    s = recover_iterate(state, prior, gamma, y)
    d = s - np.asarray(s_true, dtype=float)
    return float(d @ d)


def recurrence_residual(state, prior, A, Q1, Q2, b, sigma):
    """Worst criterion-2 relation residual at the state's current step.

    Covers A Q1 V = U B, R^{-1}-orthonormal U, Q1-orthonormal V, the skinny
    QR of the deflated Q2 branch, and, at gamma 0.4 and 1, the stacked Gram
    identity and equality of projected and full-space misfits, all for
    R = sigma^2 I.
    """
    m = A.shape[0]
    k = state.k
    U, V, B = state.U, state.Vk, state.bidiagonal()
    Rd = np.eye(m) / sigma**2
    errs = [
        np.linalg.norm(A @ Q1 @ V - U @ B) / np.linalg.norm(B),
        np.max(np.abs(U.T @ Rd @ U - np.eye(U.shape[1]))),
        np.max(np.abs(V.T @ Q1 @ V - np.eye(k))),
    ]
    Z = (A @ Q2 @ V) / sigma
    proj = Z - state.Ut @ (state.Ut.T @ Z)
    errs.append(np.linalg.norm(state.Y @ state.Rup - proj)
                / max(np.linalg.norm(Z), 1.0))
    for gamma in (0.4, 1.0):
        sys = build_projected(state, gamma)
        M = (A @ (gamma * Q1 + (1 - gamma) * Q2) @ V) / sigma
        errs.append(np.max(np.abs(sys.Dk.T @ sys.Dk - M.T @ M))
                    / max(np.linalg.norm(M.T @ M), 1.0))
        y = np.sin(np.arange(1.0, k + 1))
        r_proj = np.linalg.norm(sys.Dk @ y - sys.rhs)
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
