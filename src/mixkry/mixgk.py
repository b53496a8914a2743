"""Mixed Golub-Kahan bidiagonalization.

Runs the generalized Golub-Kahan recurrence in the R^{-1} / Q1 inner
products and, alongside it, maintains a skinny QR factorization

    (I - Ut Ut^T) L_R A Q2 V_k = Y_k Rup_k,      Ut = L_R U_{k+1},

so the projected mixed-prior problem can be assembled for any mixing weight
gamma without touching Q2 again.  One Q2 matvec is spent per step; the QR
factors are advanced by an O(m k) rank-one update with a full recompute
fallback.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import (
    ArgumentError,
    DefinitenessError,
    DegenerateDataError,
    RankError,
)
from .projected import penalty_basis

__all__ = [
    "MixGKState",
    "mixgk_init",
    "mixgk_step",
    "qr_append_update",
    "qr_recompute",
]

logger = logging.getLogger(__name__)

_TINY = np.finfo(float).tiny

# relative size below which a new alpha or beta counts as breakdown, and a
# Gram-Schmidt remainder marks a dependent Q2 column
_BREAKDOWN_TOL = 1e-12
_RANK_TOL = 1e-12

# rounding moves x^T Q x by about n eps ||x|| ||Q x|| (3.6e-12 at
# n = 16384); a form below -_DEFINITE_TOL ||x|| ||Q x|| is a negative
# direction of Q, not roundoff
_DEFINITE_TOL = 1e-8


def _form_norm(x, qx, name, scale=None):
    """sqrt(x^T Q x) from x and Q x, for the covariance-like operator ``name``.

    A form below ``-_DEFINITE_TOL * scale`` means Q is not positive definite
    and raises :class:`DefinitenessError`; a roundoff-negative one reads as
    zero.  ``scale`` bounds the size of the form's rounding error and
    defaults to ||x|| ||Q x||.
    """
    form = x @ qx
    if scale is None:
        scale = np.linalg.norm(x) * np.linalg.norm(qx)
    if form < -_DEFINITE_TOL * scale:
        raise DefinitenessError(
            f"{name} is not positive definite (x^T {name} x = {form:.3g})")
    return np.sqrt(max(form, 0.0))


def _require_finite(vec, what):
    if not np.all(np.isfinite(vec)):
        raise ArgumentError(f"{what} holds a NaN or Inf")


def _check_symmetric(Q, name):
    """Two-vector symmetry probe of a covariance operator.

    For a symmetric Q, x^T Q y and y^T Q x differ only by roundoff; a gap
    above the ``_DEFINITE_TOL`` allowance of ``_form_norm`` raises
    :class:`DefinitenessError`.  The probe vectors come from a fixed seed, so
    reruns apply Q to the same inputs.
    """
    x, y = np.random.default_rng(0).standard_normal((2, Q.cols))
    qx, qy = Q.matvec(x), Q.matvec(y)
    _require_finite(qx, f"{name} image of a symmetry probe")
    _require_finite(qy, f"{name} image of a symmetry probe")
    gap = abs(x @ qy - y @ qx)
    scale = max(np.linalg.norm(x) * np.linalg.norm(qy),
                np.linalg.norm(y) * np.linalg.norm(qx))
    if gap > _DEFINITE_TOL * scale:
        raise DefinitenessError(f"{name} is not symmetric "
                                f"(|x^T Q y - y^T Q x| = {gap:.3g})")


def _norm_estimate(A):
    """Lower estimate of ||A||: ||A^T x|| / ||x|| for a Gaussian probe x
    from a fixed seed, so reruns apply A^T to the same input."""
    x = np.random.default_rng(0).standard_normal(A.rows)
    return np.linalg.norm(A.rmatvec(x)) / np.linalg.norm(x)


def _givens(a, b):
    """Rotation (c, s, h) with [c s; -s c] @ [a, b] = [h, 0]."""
    h = np.hypot(a, b)
    if h == 0.0:
        return 1.0, 0.0, 0.0
    return a / h, b / h, h


def _rotate_rows(M, i, c, s):
    ri = c * M[i] + s * M[i + 1]
    M[i + 1] = -s * M[i] + c * M[i + 1]
    M[i] = ri


def _rotate_cols(M, i, c, s):
    ci = c * M[:, i] + s * M[:, i + 1]
    M[:, i + 1] = -s * M[:, i] + c * M[:, i + 1]
    M[:, i] = ci


def _gs_append(Y, Rup, t, input_norm, counter):
    """Append column ``t`` to the skinny QR factors by two-pass Gram-Schmidt.

    ``t`` is overwritten.  A remainder at or below ``_RANK_TOL`` times
    ``input_norm`` marks the column dependent: only its coefficients are
    recorded and the basis does not grow.
    """
    m, r = t.shape[0], Y.shape[1]
    if r > 0:
        coef = Y.T @ t
        t -= Y @ coef
        coef2 = Y.T @ t
        t -= Y @ coef2
        coef += coef2
        if counter is not None:
            counter.add(8 * m * r)
    else:
        coef = np.zeros(0)
    rho = np.linalg.norm(t)
    if rho <= _RANK_TOL * input_norm:
        return Y, np.hstack([Rup, coef[:, None]])
    Ynew = np.hstack([Y, (t / rho)[:, None]]) if Y.size else (t / rho)[:, None]
    p = Rup.shape[1]
    Rnew = np.zeros((r + 1, p + 1))
    Rnew[:r, :p] = Rup
    Rnew[:r, p] = coef
    Rnew[r, p] = rho
    return Ynew, Rnew


def qr_append_update(Y, Rup, u_new, v_hat, input_norm=None, counter=None):
    """Advance the skinny QR factors by one step in O(m k) work.

    First deflates the factored matrix against the unit vector ``u_new``
    (computing the QR of (I - u u^T) Y Rup via plane rotations, which keeps
    the updated basis exactly orthogonal to ``u_new``), then appends the
    already-deflated column ``v_hat`` by Gram-Schmidt.  Pass ``u_new=None``
    to skip deflation.  ``input_norm`` is the norm of the raw column before
    any projection; a Gram-Schmidt remainder at or below ``_RANK_TOL`` times
    it means the column is dependent and the basis does not grow.

    ``counter``, when given, is any object with an ``add(n)`` method; it is
    handed a rough floating-point operation count of each stage.

    Returns the new ``(Y, Rup)``.  Raises :class:`RankError` when deflation
    hits numerical rank deficiency (``u_new`` essentially inside range(Y));
    callers should then rebuild the factors from scratch.
    """
    m = Y.shape[0] if Y.size else v_hat.shape[0]
    r, p = Rup.shape
    Y = np.array(Y)
    Rup = np.array(Rup)

    if u_new is not None and r > 0:
        d = Y.T @ u_new
        if counter is not None:
            counter.add(2 * m * r)
        delta = np.linalg.norm(d)
        if delta > 1e-14:
            # Rotate so only the leading basis column carries the u component.
            for i in range(r - 2, -1, -1):
                c, s, h = _givens(d[i], d[i + 1])
                d[i], d[i + 1] = h, 0.0
                _rotate_rows(Rup, i, c, s)
                _rotate_cols(Y, i, c, s)
            delta_s = d[0]
            xi2 = 1.0 - delta_s * delta_s
            if xi2 <= _RANK_TOL:
                raise RankError("deflation produced a rank-deficient factor")
            lead = Y[:, 0] - delta_s * u_new
            xi = np.linalg.norm(lead)
            Y[:, 0] = lead / xi
            Rup[0] *= xi
            # Restore triangular form (exact only when pivots sit on the
            # diagonal; rank-dropped staircases stay trapezoidal, which no
            # consumer relies on).
            for i in range(r - 1):
                if Rup[i + 1, i] != 0.0:
                    c, s, _ = _givens(Rup[i, i], Rup[i + 1, i])
                    _rotate_rows(Rup, i, c, s)
                    Rup[i + 1, i] = 0.0
                    _rotate_cols(Y, i, c, s)
            if counter is not None:
                counter.add(12 * m * max(r - 1, 0) + 3 * m + 12 * r * p)

    t = np.array(v_hat, dtype=float)
    if input_norm is None:
        input_norm = np.linalg.norm(t)
    return _gs_append(Y, Rup, t, input_norm, counter)


def qr_recompute(Ut, Z, counter=None):
    """Skinny QR of (I - Ut Ut^T) Z from scratch, O(m k^2).

    Columns are appended left to right by the incremental path's two-pass
    Gram-Schmidt, so the dependent-column decisions match it.
    """
    m, k = Z.shape
    P = Z - Ut @ (Ut.T @ Z)
    P -= Ut @ (Ut.T @ P)
    if counter is not None:
        counter.add(8 * m * Ut.shape[1] * max(k, 1))
    Y = np.zeros((m, 0))
    Rup = np.zeros((0, 0))
    for j in range(k):
        Y, Rup = _gs_append(Y, Rup, P[:, j].copy(), np.linalg.norm(Z[:, j]),
                            counter)
    return Y, Rup


class MixGKState:
    """State of the process after ``k`` completed steps.

    Basis arrays grow by one column per step.  ``U`` holds the left vectors
    (R^{-1}-orthonormal), ``V`` the right vectors (Q1-orthonormal, including
    the one-step lookahead vector), ``Ut = L_R U``.  ``W = Q2 V_k`` and
    ``Z = L_R A W`` are the per-step Q2 caches, ``C = Ut^T Z`` the projected
    coupling block, ``G`` the Gram matrix V_k^T W, and ``(Y, Rup)`` the
    skinny QR factors of ``Z``'s component orthogonal to range(Ut).

    The state is single-owner: only :meth:`step` mutates it.
    """

    def __init__(self, A, Rinv, LR, Q1, Q2, b):
        self.A = A
        self.Rinv = Rinv
        self.LR = LR
        self.Q1 = Q1
        self.Q2 = Q2
        self.m = A.rows
        self.n = A.cols
        self.k = 0
        self.terminal = False
        self.breakdown_reason = None
        self.rank_drops = 0
        self.qr_fallbacks = 0
        self._grams = None

        b = np.asarray(b, dtype=float)
        if b.shape != (self.m,):
            raise ArgumentError("right-hand side length does not match the operator")
        _require_finite(b, "right-hand side b")
        rinv_b = Rinv.matvec(b)
        beta1 = _form_norm(b, rinv_b, "R^{-1}")
        if beta1 == 0.0:
            raise DegenerateDataError("zero right-hand side")
        self.beta1 = float(beta1)
        u1 = b / beta1
        self.U = u1[:, None]
        self.RinvU = (rinv_b / beta1)[:, None]
        self.Ut = LR.matvec(u1)[:, None]

        vraw = A.rmatvec(self.RinvU[:, 0])
        _require_finite(vraw, "A^T R^{-1} u_1")
        q1v = Q1.matvec(vraw)
        _require_finite(q1v, "Q1 A^T R^{-1} u_1")
        alpha1 = _form_norm(vraw, q1v, "Q1")
        scale = np.linalg.norm(vraw)
        # the terms of A^T R^{-1} u_1 are of size ||A|| ||R^{-1} u_1||; data
        # orthogonal to range(A) cancels them down to rounding
        reach = _norm_estimate(A) * np.linalg.norm(self.RinvU[:, 0])
        if (alpha1 <= _BREAKDOWN_TOL * max(scale, _TINY)
                or scale <= _BREAKDOWN_TOL * reach):
            # Immediate breakdown: no usable subspace exists.
            self.terminal = True
            self.breakdown_reason = "alpha"
            self.V = np.zeros((self.n, 0))
            self.Q1V = np.zeros((self.n, 0))
            self.alphas = []
        else:
            self.V = (vraw / alpha1)[:, None]
            self.Q1V = (q1v / alpha1)[:, None]
            self.alphas = [float(alpha1)]
        self.betas = []
        self.W = np.zeros((self.n, 0))
        self.Z = np.zeros((self.m, 0))
        self.C = np.zeros((1, 0))
        self.G = np.zeros((0, 0))
        self.Y = np.zeros((self.m, 0))
        self.Rup = np.zeros((0, 0))

    # -- assembled views ----------------------------------------------------

    @property
    def num_left(self):
        return self.U.shape[1]

    def bidiagonal(self):
        """B with diagonal alpha_1..alpha_k and subdiagonal beta_2.., shaped
        (k+1) x k normally and k x k after a beta breakdown."""
        k = self.k
        B = np.zeros((self.num_left, k))
        for i in range(k):
            B[i, i] = self.alphas[i]
        for i in range(len(self.betas)):
            B[i + 1, i] = self.betas[i]
        return B

    @property
    def Vk(self):
        return self.V[:, : self.k]

    @property
    def Q1Vk(self):
        return self.Q1V[:, : self.k]

    def projection_grams(self):
        """The step's projected blocks in the eigenbasis of ``G``, a
        :class:`~mixkry.projected.PenaltyBasis` memoized per step, so that
        every system assembled and every gamma searched at this step share
        one eigendecomposition of ``G``.  Its arrays are shared between
        calls; callers must not write to them."""
        if self._grams is None or self._grams[0] != self.k:
            self._grams = (self.k, penalty_basis(
                self.bidiagonal(), self.C, self.Rup, self.G, self.beta1))
        return self._grams[1]

    # -- stepping -----------------------------------------------------------

    def step(self):
        if self.terminal:
            raise ArgumentError("cannot step a terminated process")
        k = self.k + 1
        v_k = self.V[:, k - 1]
        q1v_k = self.Q1V[:, k - 1]
        u_k = self.U[:, k - 1]
        alpha_k = self.alphas[k - 1]

        # Left vector: beta_{k+1} u_{k+1} = A Q1 v_k - alpha_k u_k.
        a_q1v = self.A.matvec(q1v_k)
        uhat = a_q1v - alpha_k * u_k
        t = self.Rinv.matvec(uhat)
        scale_u = np.sqrt(max(a_q1v @ (t + alpha_k * self.RinvU[:, k - 1]), 0.0))
        # t tracks R^{-1} uhat through the projection below, so the form's
        # rounding error scales with the vectors before it, not after
        form_scale = np.linalg.norm(uhat) * np.linalg.norm(t)
        coef = self.U.T @ t
        uhat = uhat - self.U @ coef
        t = t - self.RinvU @ coef
        beta_new = _form_norm(uhat, t, "R^{-1}", scale=form_scale)

        if beta_new <= _BREAKDOWN_TOL * max(scale_u, _TINY):
            # The subspace closed under A Q1; finalize step k with the
            # truncated k x k bidiagonal block and the existing left basis.
            self._advance_q2(v_k, new_u=None)
            self.k = k
            self._grams = None
            self.terminal = True
            self.breakdown_reason = "beta"
            return

        u_new = uhat / beta_new
        rinv_u_new = t / beta_new
        self.U = np.hstack([self.U, u_new[:, None]])
        self.RinvU = np.hstack([self.RinvU, rinv_u_new[:, None]])
        ut_new = self.LR.matvec(u_new)
        self.Ut = np.hstack([self.Ut, ut_new[:, None]])
        self.betas.append(float(beta_new))

        # Advance the Q2 branch for column v_k (needs the new left vector).
        self._advance_q2(v_k, new_u=ut_new)

        # Right vector: alpha_{k+1} v_{k+1} = A^T R^{-1} u_{k+1} - beta v_k.
        arm = self.A.rmatvec(rinv_u_new)
        vhat = arm - beta_new * v_k
        coef_v = self.Q1V.T @ vhat
        vhat = vhat - self.V @ coef_v
        q1vhat = self.Q1.matvec(vhat)
        alpha_new = _form_norm(vhat, q1vhat, "Q1")
        q1_arm = q1vhat + beta_new * q1v_k + self.Q1V @ coef_v
        scale_v = np.sqrt(max(arm @ q1_arm, 0.0))

        self.k = k
        self._grams = None
        if alpha_new <= _BREAKDOWN_TOL * max(scale_v, _TINY):
            self.terminal = True
            self.breakdown_reason = "alpha"
            return

        self.V = np.hstack([self.V, (vhat / alpha_new)[:, None]])
        self.Q1V = np.hstack([self.Q1V, (q1vhat / alpha_new)[:, None]])
        self.alphas.append(float(alpha_new))

    def _advance_q2(self, v_k, new_u):
        """Spend the step's Q2 matvec and update W, Z, C, G, Y, Rup."""
        w = self.Q2.matvec(v_k)
        z = self.LR.matvec(self.A.matvec(w))
        k_new = self.W.shape[1] + 1

        # C = Ut^T Z, updated by one row (new left vector against old Z
        # columns) and one column (all left vectors against z).
        nu = self.Ut.shape[1]
        C_new = np.zeros((nu, k_new))
        if new_u is not None:
            C_new[:-1, :-1] = self.C
            if self.Z.shape[1]:
                C_new[-1, :-1] = new_u @ self.Z
        else:
            C_new[:, :-1] = self.C
        C_new[:, -1] = self.Ut.T @ z
        self.C = C_new

        # G = V_k^T Q2 V_k grows by a symmetric row/column pair.
        g_col = self.V[:, :k_new].T @ w
        G_new = np.zeros((k_new, k_new))
        G_new[:-1, :-1] = self.G
        G_new[: k_new - 1, -1] = g_col[:-1]
        G_new[-1, : k_new - 1] = g_col[:-1]
        G_new[-1, -1] = g_col[-1]
        self.G = G_new

        self.W = np.hstack([self.W, w[:, None]])
        self.Z = np.hstack([self.Z, z[:, None]])

        rank_before = self.Y.shape[1]
        vhat = z - self.Ut @ (self.Ut.T @ z)
        vhat -= self.Ut @ (self.Ut.T @ vhat)
        try:
            self.Y, self.Rup = qr_append_update(
                self.Y, self.Rup, new_u, vhat,
                input_norm=np.linalg.norm(z),
            )
        except RankError:
            self.qr_fallbacks += 1
            logger.info("QR update rank-deficient at step %d; recomputing", k_new)
            self.Y, self.Rup = qr_recompute(self.Ut, self.Z)
        if self.Rup.shape[1] != k_new:
            raise RankError("QR factors lost column consistency")
        if self.Y.shape[1] == rank_before:
            self.rank_drops += 1
            logger.info("dependent Q2 column at step %d (rank stays %d)",
                        k_new, rank_before)


def mixgk_init(A, Rinv, LR, Q1, Q2, b):
    """Initialize the process: beta_1 u_1 = b, alpha_1 v_1 = A^T R^{-1} u_1.

    Raises :class:`DegenerateDataError` for b = 0, :class:`ArgumentError`
    when b, A^T R^{-1} u_1 or its Q1 image holds a NaN or Inf, and
    :class:`DefinitenessError` when R^{-1} or Q1 shows a negative form or a
    two-vector probe finds Q1 or Q2 not symmetric.  If alpha_1 vanishes, or
    A^T R^{-1} u_1 cancels to rounding against a probe estimate of
    ||A|| ||R^{-1} u_1|| (data orthogonal to range(A)), the returned state
    is already terminal with k = 0 (no usable subspace).
    """
    m, n = A.rows, A.cols
    if Rinv.shape != (m, m) or LR.shape != (m, m):
        raise ArgumentError("noise operator shapes do not match the forward map")
    if Q1.shape != (n, n) or Q2.shape != (n, n):
        raise ArgumentError("prior covariance shapes do not match the forward map")
    state = MixGKState(A, Rinv, LR, Q1, Q2, b)
    _check_symmetric(Q1, "Q1")
    _check_symmetric(Q2, "Q2")
    return state


def mixgk_step(state):
    """Advance the state by one step (mutates and returns it)."""
    state.step()
    return state
