"""Projected mixed-prior subproblem: assembly, the column solver, and
recovery.

For a state at step k and mixing weight gamma, the stacked system is

    Dk = [ gamma B + (1 - gamma) C ]        rhs = [ beta1 e1 ]
         [ (1 - gamma) Rup        ]              [ 0        ]

with k + 1 + r rows (2k + 1 when the QR factor is full rank).  The iterate
weights solve the regularized normal equations

    (Dk^T Dk + lam^2 (gamma I + (1 - gamma) Gk)) y = Dk^T rhs,   lam > 0.

One decomposition serves every lam at one gamma.  With
P = gamma I + (1 - gamma) Gk = L L^T and L^{-1} Dk^T Dk L^{-T} =
V diag(mu) V^T,

    Dk^T Dk + lam^2 P = L V diag(mu + lam^2) V^T L^T,

so one ``potrf`` of P and one ``syevd`` give the weights, the residuals
and the influence traces at every lam.  A :class:`ProjectedSystem` is one
(step, gamma) pair: :func:`trace_term` computes its decomposition on first
use and the system keeps it, and :func:`solve_column` only reads it.
Parameter selection scores whole lam columns this way and returns the
winning cell's weights, which are the iterate.  The state's gamma-independent blocks (B and the Gram
products) are formed once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ArgumentError, ConditioningError, ParameterDomainError

__all__ = [
    "ProjectedSystem",
    "build_projected",
    "recover_iterate",
    "solve_column",
    "trace_term",
]


@dataclass
class ProjectedSystem:
    """Assembled projected system at one (step, gamma) pair.

    ``DtD`` and ``Dtrhs`` are cached products used by every solve.  The
    decomposition of the penalized normal matrix at this gamma is computed
    by the first :func:`trace_term` call and kept.
    """

    Dk: np.ndarray
    Gk: np.ndarray
    rhs: np.ndarray
    gamma: float
    DtD: np.ndarray = field(default=None, repr=False)
    Dtrhs: np.ndarray = field(default=None, repr=False)
    _parts: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.DtD is None:
            self.DtD = self.Dk.T @ self.Dk
        if self.Dtrhs is None:
            self.Dtrhs = self.Dk.T @ self.rhs

    @property
    def k(self):
        return self.Dk.shape[1]


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


def _trsm(L, X, trans=0):
    """L^{-1} X (trans=0) or L^{-T} X (trans=1) for the lower factor L."""
    return blas.dtrsm(1.0, L, X, lower=1, trans_a=trans)


def trace_term(sys):
    """The system's decomposition ``(mu, c, T)``, computed on the first
    call and kept: mu holds the eigenvalues of L^{-1} Dk^T Dk L^{-T}
    (clamped at zero), c = V^T L^{-1} Dk^T rhs and T = L^{-T} V.  The
    influence trace term at lam is sum(mu / (mu + lam^2)) and y(lam) =
    T (c / (mu + lam^2)).  It is the projected layer's one factorization,
    which ``bench/spans.py`` traces under this name."""
    if sys._parts is None:
        P = sys.gamma * np.eye(sys.k) + (1.0 - sys.gamma) * sys.Gk
        L, info = lapack.dpotrf(P, lower=1, clean=0, overwrite_a=1)
        if info > 0:
            raise ConditioningError(
                f"mixed penalty not positive definite at gamma = {sys.gamma:g}")
        if info < 0:
            raise RuntimeError(f"dpotrf rejected argument {-info}")
        # L^{-1} [DtD | Dtrhs], then L^{-1} DtD L^{-T} from the first k
        # columns
        X = _trsm(L, np.column_stack([sys.DtD, sys.Dtrhs]))
        mu, V, info = lapack.dsyevd(_trsm(L, X[:, :-1].T), lower=1)
        if info != 0:
            raise ConditioningError(
                f"projected eigendecomposition failed at gamma = {sys.gamma:g}")
        sys._parts = (np.maximum(mu, 0.0), V.T @ X[:, -1],
                      _trsm(L, V, trans=1))
    return sys._parts


def solve_column(sys, lams):
    """Weights, squared residuals and influence traces at every lam of a
    column, from the system's one decomposition (:func:`trace_term`).

    Returns ``(Y, r2, tr)``: row j of ``Y`` is y(lams[j]), ``r2[j]`` is
    ||Dk y - rhs||^2 taken from the residual itself, and ``tr[j]`` is
    sum(mu / (mu + lams[j]^2)) with the eigenvalues mu clamped at zero.
    Each lam runs through the same operations, one matrix-vector product
    per lam, so its values do not depend on the other lams passed.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 1 or not np.all(lams > 0):
        raise ParameterDomainError("lam column must be positive")
    mu, c, T = trace_term(sys)
    denom = mu + (lams * lams)[:, None]
    Y = _matvecs(T, c / denom)
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

