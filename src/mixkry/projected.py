"""Projected mixed-prior subproblem: assembly, solves, and recovery.

For a state at step k and mixing weight gamma, the stacked system is

    Dk = [ gamma B + (1 - gamma) C ]        rhs = [ beta1 e1 ]
         [ (1 - gamma) Rup        ]              [ 0        ]

with k + 1 + r rows (2k + 1 when the QR factor is full rank).  The iterate
weights solve the regularized normal equations

    (Dk^T Dk + lam^2 (gamma I + (1 - gamma) Gk)) y = Dk^T rhs.

Parameter selection scores a whole column of lam values at one gamma from
one decomposition.  With P = gamma I + (1 - gamma) Gk = L L^T and
L^{-1} Dk^T Dk L^{-T} = V diag(mu) V^T,

    Dk^T Dk + lam^2 P = L V diag(mu + lam^2) V^T L^T,

so one ``potrf`` of P and one ``syevd`` give the weights, the residuals
and the influence traces at every lam of the column.

The iterate at the selected point is solved directly: one LAPACK
``potrf`` of the penalized normal matrix plus ``potrs``, which also
defines the solve at lam = 0.  The penalty P is formed once per system,
and the state's gamma-independent blocks (B and the Gram products) once
per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import (
    ArgumentError,
    ConditioningError,
    ParameterDomainError,
    RankError,
)

__all__ = [
    "ProjectedSystem",
    "build_projected",
    "solve_projected",
    "recover_iterate",
    "projected_residual",
    "solve_column",
]


@dataclass
class ProjectedSystem:
    """Assembled projected system at one (step, gamma) pair.

    ``DtD`` and ``Dtrhs`` are cached products used by every solve, and the
    mixed penalty gamma I + (1 - gamma) Gk is formed once at construction.
    """

    Dk: np.ndarray
    Gk: np.ndarray
    rhs: np.ndarray
    gamma: float
    DtD: np.ndarray = field(default=None, repr=False)
    Dtrhs: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.DtD is None:
            self.DtD = self.Dk.T @ self.Dk
        if self.Dtrhs is None:
            self.Dtrhs = self.Dk.T @ self.rhs
        self._P = self.gamma * np.eye(self.k) + (1.0 - self.gamma) * self.Gk

    @property
    def k(self):
        return self.Dk.shape[1]

    def penalty(self, lam):
        return self.DtD + (lam * lam) * self._P


def build_projected(state, gamma):
    """Assemble the projected system from the state's cached blocks."""
    if not 0 < gamma <= 1:
        raise ParameterDomainError("gamma must lie in (0, 1]")
    if state.k < 1:
        raise ArgumentError("projection needs at least one completed step")
    B, BtB, H2, H3 = state.projection_grams()
    C = state.C
    Rup = state.Rup
    top = gamma * B + (1.0 - gamma) * C
    Dk = np.vstack([top, (1.0 - gamma) * Rup]) if Rup.shape[0] else top
    rhs = np.zeros(Dk.shape[0])
    rhs[0] = state.beta1
    g = gamma
    DtD = (g * g) * BtB + g * (1.0 - g) * H2 + (1.0 - g) ** 2 * H3
    Dtrhs = state.beta1 * top[0, :]
    return ProjectedSystem(Dk, state.G, rhs, gamma, DtD=DtD, Dtrhs=Dtrhs)


def _factor(sys, lam):
    """Lower Cholesky factor of the penalized normal matrix (upper triangle
    left as scratch, which ``potrs`` never reads)."""
    L, info = lapack.dpotrf(sys.penalty(lam), lower=1, clean=0, overwrite_a=1)
    if info > 0:
        if lam == 0.0:
            raise RankError("projected system singular at lam = 0")
        raise ConditioningError(
            f"projected normal equations indefinite at lam = {lam:g}")
    if info < 0:
        raise RuntimeError(f"dpotrf rejected argument {-info}")
    return L


def solve_projected(sys, lam):
    """Solve for the projected weights y(lam, gamma)."""
    if lam < 0:
        raise ParameterDomainError("lam must be nonnegative")
    y, info = lapack.dpotrs(_factor(sys, lam), sys.Dtrhs, lower=1)
    if info != 0:
        raise RuntimeError(f"dpotrs rejected argument {-info}")
    return y


def projected_residual(sys, y):
    """Stacked projected residual Dk y - rhs (its norm equals the whitened
    full-space misfit norm)."""
    return sys.Dk @ y - sys.rhs


def _trsm(L, X, trans=0):
    """L^{-1} X (trans=0) or L^{-T} X (trans=1) for the lower factor L."""
    return blas.dtrsm(1.0, L, X, lower=1, trans_a=trans)


def solve_column(sys, lams):
    """Weights, squared residuals and influence traces at every lam of a
    column, from one Cholesky factor of the penalty and one symmetric
    eigendecomposition.

    Returns ``(Y, r2, tr)``: row j of ``Y`` is y(lams[j]), ``r2[j]`` is
    ||Dk y - rhs||^2 taken from the residual itself, and ``tr[j]`` is
    sum(mu / (mu + lams[j]^2)) with the eigenvalues mu clamped at zero.
    Each lam runs through the same operations, one matrix-vector product
    per lam, so its values do not depend on the other lams passed.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not np.all(lams > 0):
        raise ParameterDomainError("lam column must be positive")
    L, info = lapack.dpotrf(sys._P, lower=1, clean=0)
    if info > 0:
        raise ConditioningError(
            f"mixed penalty not positive definite at gamma = {sys.gamma:g}")
    if info < 0:
        raise RuntimeError(f"dpotrf rejected argument {-info}")
    # L^{-1} [DtD | Dtrhs], then L^{-1} DtD L^{-T} from the first k columns
    X = _trsm(L, np.column_stack([sys.DtD, sys.Dtrhs]))
    mu, V, info = lapack.dsyevd(_trsm(L, X[:, :-1].T), lower=1)
    if info != 0:
        raise ConditioningError(
            f"projected eigendecomposition failed at gamma = {sys.gamma:g}")
    mu = np.maximum(mu, 0.0)
    c = V.T @ X[:, -1]
    denom = mu + (lams * lams)[:, None]
    # y(lam) = L^{-T} V (c / (mu + lam^2))
    Y = _matvecs(_trsm(L, V, trans=1), c / denom)
    R = _matvecs(sys.Dk, Y) - sys.rhs
    return Y, (R * R).sum(axis=1), (mu / denom).sum(axis=1)


def _matvecs(M, X):
    """M x for each row x of X, as one matrix-vector product per row."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


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

