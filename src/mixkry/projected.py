"""Projected mixed-prior subproblem: assembly, the batched decomposition,
the cell solver, and recovery.

For a state at step k and mixing weight gamma, the stacked system is

    Dk = [ gamma B + (1 - gamma) C ]        rhs = [ beta1 e1 ]
         [ (1 - gamma) Rup        ]              [ 0        ]

with k + 1 + r rows (2k + 1 when the QR factor is full rank).  The iterate
weights solve the regularized normal equations

    (Dk^T Dk + lam^2 P) y = Dk^T rhs,   P = gamma I + (1 - gamma) Gk,

for lam > 0.  The Gram matrix Gk = V_k^T Q2 V_k does not depend on gamma,
so one eigendecomposition Gk = U diag(g) U^T per step diagonalizes the
penalty at every gamma: P = U diag(p) U^T with p = gamma + (1 - gamma) g.
A :class:`PenaltyBasis` holds the step's gamma-independent blocks of
Dk^T Dk and Dk^T rhs rotated into U once.  Per gamma, with s = p^{-1/2},

    M = (s s^T) o U^T Dk^T Dk U = V diag(mu) V^T

is one symmetric eigenproblem, and
Dk^T Dk + lam^2 P = U diag(1/s) V diag(mu + lam^2) V^T diag(1/s) U^T.  So
y(lam) = T (c / (mu + lam^2)) with T = (U s) V and
c = V^T (s o U^T Dk^T rhs), and the influence trace is
sum(mu / (mu + lam^2)): one ``syevd`` per gamma serves every lam, with no
Cholesky factor and no triangular solve.

:func:`trace_term` decomposes a whole batch of gammas with one stacked
``eigh``, and :func:`solve_cells` scores every (gamma, lam) cell of a batch
with one matrix-vector product per cell, so a cell's values do not depend
on the other cells of its batch.  The search's cell evaluator,
:func:`mixkry.params.objective_cells`, is the one caller of both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ConditioningError, ParameterDomainError

__all__ = [
    "PenaltyBasis",
    "penalty_basis",
    "recover_iterate",
    "solve_cells",
    "trace_term",
]


@dataclass(frozen=True)
class PenaltyBasis:
    """One step's gamma-independent blocks, in the eigenbasis of Gk.

    ``B``, ``C`` and ``Rup`` assemble Dk.  Gk = U diag(g) U^T.  ``grams``
    stacks U^T X U for X = B^T B, B^T C + C^T B and C^T C + Rup^T Rup, the
    weights of gamma^2, gamma (1 - gamma) and (1 - gamma)^2 in Dk^T Dk;
    ``rows`` stacks U^T beta1 B[0] and U^T beta1 C[0], the weights of gamma
    and 1 - gamma in Dk^T rhs.  The arrays are shared; do not write to them.
    """

    B: np.ndarray = field(repr=False)
    C: np.ndarray = field(repr=False)
    Rup: np.ndarray = field(repr=False)
    beta1: float
    U: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    grams: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)

    @property
    def rhs(self):
        """beta1 e1, the stacked right-hand side."""
        rhs = np.zeros(self.B.shape[0] + self.Rup.shape[0])
        rhs[0] = self.beta1
        return rhs

    def assemble(self, gammas):
        """Dk at each gamma, stacked ``(len(gammas), rows, k)``."""
        g = np.asarray(gammas, dtype=float)[:, None, None]
        top = g * self.B + (1.0 - g) * self.C
        if not self.Rup.shape[0]:
            return top
        return np.concatenate([top, (1.0 - g) * self.Rup], axis=1)


def penalty_basis(B, C, Rup, G, beta1):
    """Rotate one step's blocks into the eigenbasis of the symmetric G.

    Raises :class:`ConditioningError` when the eigendecomposition fails.
    """
    try:
        g, U = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("Gram eigendecomposition failed") from exc
    BtC = B.T @ C
    blocks = (B.T @ B, BtC + BtC.T, C.T @ C + Rup.T @ Rup)
    grams = np.stack([U.T @ X @ U for X in blocks])
    rows = np.stack([U.T @ (beta1 * B[0]), U.T @ (beta1 * C[0])])
    return PenaltyBasis(B, C, Rup, float(beta1), U, g, grams, rows)


def trace_term(basis, gammas):
    """Decompose the systems of a batch of gammas: ``(mu, c, T)``, stacked
    ``(N, k)``, ``(N, k)`` and ``(N, k, k)`` for N gammas, with one stacked
    ``eigh``.  mu holds the eigenvalues of M (clamped at zero), so the
    influence trace term at lam is sum(mu / (mu + lam^2)) and
    y(lam) = T (c / (mu + lam^2)).  Every step is elementwise or a per-gamma
    product, so a gamma's parts do not depend on the rest of its batch.

    Raises :class:`ConditioningError` where a penalty eigenvalue p is not
    positive or the eigendecomposition fails.  It is the projected layer's
    one factorization, which ``bench/spans.py`` traces under this name.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1 or not np.all((gammas > 0) & (gammas <= 1)):
        raise ParameterDomainError("gammas must lie in (0, 1]")
    h = (1.0 - gammas)[:, None]
    p = gammas[:, None] + h * basis.g
    bad = ~np.all(p > 0.0, axis=1)
    if bad.any():
        raise ConditioningError("mixed penalty not positive definite at "
                                f"gamma = {gammas[bad][0]:g}")
    s = 1.0 / np.sqrt(p)
    g3, h3 = gammas[:, None, None], h[:, :, None]
    Nt = ((g3 * g3) * basis.grams[0] + (g3 * h3) * basis.grams[1]
          + (h3 * h3) * basis.grams[2])
    try:
        mu, V = np.linalg.eigh((s[:, :, None] * s[:, None, :]) * Nt)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("projected eigendecomposition failed at "
                                f"gamma in {gammas.tolist()}") from exc
    ft = gammas[:, None] * basis.rows[0] + h * basis.rows[1]
    c = _matvecs(np.swapaxes(V, 1, 2), s * ft)
    T = np.matmul(basis.U * s[:, None, :], V)
    return np.maximum(mu, 0.0), c, T


def solve_cells(parts, Dk, rhs, lams):
    """Weights, squared residuals and influence traces at every cell of a
    batch of gammas (one row each) by a column of lams.

    ``parts`` is :func:`trace_term`'s output for the gammas and ``Dk`` their
    stacked systems.  Returns ``(Y, r2, tr)`` shaped ``(N, L, k)``,
    ``(N, L)`` and ``(N, L)``: ``Y[i, j]`` is y(gammas[i], lams[j]),
    ``r2[i, j]`` is ||Dk y - rhs||^2 taken from the residual itself, and
    ``tr[i, j]`` is sum(mu / (mu + lams[j]^2)).  Each cell runs through the
    same operations, one matrix-vector product each, so its values do not
    depend on the other cells passed.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not np.all(lams > 0):
        raise ParameterDomainError("lam column must be positive")
    mu, c, T = parts
    denom = mu[:, None, :] + (lams * lams)[:, None]
    Y = _matvecs(T[:, None], c[:, None, :] / denom)
    R = _matvecs(Dk[:, None], Y) - rhs
    return Y, (R * R).sum(axis=-1), (mu[:, None, :] / denom).sum(axis=-1)


def _matvecs(M, X):
    """M x for each vector x along the last axis of X, with M broadcast
    over the leading axes: one matrix-vector product per vector."""
    return np.matmul(M, X[..., None])[..., 0]


def recover_iterate(state, prior, gamma, y):
    """Map projected weights back to the estimate s = mu + Q V_k y.

    Uses the cached Q1 V and Q2 V columns, so no covariance matvecs are
    spent here.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (state.k,):
        raise ArgumentError("weight vector length does not match the step count")
    if not 0 < gamma <= 1:
        raise ParameterDomainError("gamma must lie in (0, 1]")
    s = prior.mean + gamma * (state.Q1Vk @ y)
    if gamma < 1.0:
        s = s + (1.0 - gamma) * (state.W @ y)
    return s
