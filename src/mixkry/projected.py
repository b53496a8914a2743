"""Projected mixed-prior subproblem: assembly, solves, and recovery.

For a state at step k and mixing weight gamma, the stacked system is

    Dk = [ gamma B + (1 - gamma) C ]        rhs = [ beta1 e1 ]
         [ (1 - gamma) Rup        ]              [ 0        ]

with k + 1 + r rows (2k + 1 when the QR factor is full rank).  The iterate
weights solve the regularized normal equations

    (Dk^T Dk + lam^2 (gamma I + (1 - gamma) Gk)) y = Dk^T rhs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
    "residual_and_trace",
]


@dataclass
class ProjectedSystem:
    """Assembled projected system at one (step, gamma) pair.

    ``DtD`` and ``Dtrhs`` are cached products used by every solve.
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

    @property
    def k(self):
        return self.Dk.shape[1]

    def penalty(self, lam):
        k = self.k
        return self.DtD + (lam * lam) * (
            self.gamma * np.eye(k) + (1.0 - self.gamma) * self.Gk
        )


def build_projected(state, gamma):
    """Assemble the projected system from the state's cached blocks."""
    if not 0 < gamma <= 1:
        raise ParameterDomainError("gamma must lie in (0, 1]")
    if state.k < 1:
        raise ArgumentError("projection needs at least one completed step")
    B = state.bidiagonal()
    C = state.C
    Rup = state.Rup
    top = gamma * B + (1.0 - gamma) * C
    Dk = np.vstack([top, (1.0 - gamma) * Rup]) if Rup.shape[0] else top
    rhs = np.zeros(Dk.shape[0])
    rhs[0] = state.beta1
    g = gamma
    BtB, H2, H3 = state.projection_grams()
    DtD = (g * g) * BtB + g * (1.0 - g) * H2 + (1.0 - g) ** 2 * H3
    Dtrhs = state.beta1 * top[0, :]
    return ProjectedSystem(Dk, state.G, rhs, gamma, DtD=DtD, Dtrhs=Dtrhs)


def _factor(sys, lam):
    M = sys.penalty(lam)
    try:
        return scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        if lam == 0.0:
            raise RankError("projected system singular at lam = 0") from exc
        raise ConditioningError(
            f"projected normal equations indefinite at lam = {lam:g}"
        ) from exc


def solve_projected(sys, lam):
    """Solve for the projected weights y(lam, gamma)."""
    if lam < 0:
        raise ParameterDomainError("lam must be nonnegative")
    cho = _factor(sys, lam)
    return scipy.linalg.cho_solve(cho, sys.Dtrhs, check_finite=False)


def projected_residual(sys, y):
    """Stacked projected residual Dk y - rhs (its norm equals the whitened
    full-space misfit norm)."""
    return sys.Dk @ y - sys.rhs


def residual_and_trace(sys, lam):
    """Squared projected residual ||Dk y(lam) - rhs||^2 and the projected
    influence trace tr(Dk (Dk^T Dk + lam^2 P)^{-1} Dk^T) at one lam, both
    from one Cholesky factor."""
    if not lam > 0:
        raise ParameterDomainError("trace term requires lam > 0")
    cho = _factor(sys, lam)
    y = scipy.linalg.cho_solve(cho, sys.Dtrhs, check_finite=False)
    r = projected_residual(sys, y)
    X = scipy.linalg.cho_solve(cho, sys.DtD, check_finite=False)
    return float(r @ r), float(np.trace(X))


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

