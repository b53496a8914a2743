"""Mixed Golub-Kahan bidiagonalization.

Runs the Golub-Kahan recurrence in the Euclidean / Q1 inner products on a
whitened A and b (R = I): the paper's R^{-1} / Q1 process is this one run
on L_R A and L_R b, where L_R^T L_R = R^{-1}.  Alongside it, a skinny QR
factorization (I - U U^T) A Q2 V_k = Y_k Rup_k lets the projected
mixed-prior problem be assembled for any mixing weight gamma without
touching Q2 again.  One Q2 matvec is spent per step; the QR factors are
advanced by an O(m k) rank-one update with a full recompute fallback.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ArgumentError,
    DefinitenessError,
    DegenerateDataError,
    RankError,
)

__all__ = [
    "MixGKState",
    "check_noise_pair",
    "mixgk_init",
    "mixgk_step",
    "qr_append_update",
    "qr_recompute",
]


_TINY = np.finfo(float).tiny

# relative size below which a new alpha or beta counts as breakdown, and a
# Gram-Schmidt remainder marks a dependent Q2 column
_BREAKDOWN_TOL = 1e-12
_RANK_TOL = 1e-12

# rounding moves x^T Q x by about n eps ||x|| ||Q x|| (3.6e-12 at
# n = 16384); a form below -_DEFINITE_TOL ||x|| ||Q x|| is a negative
# direction of Q, not roundoff
_DEFINITE_TOL = 1e-8


def _form_norm(x, qx, name):
    """sqrt(x^T Q x) from x and Q x, for the covariance-like operator ``name``.

    A form below ``-_DEFINITE_TOL ||x|| ||Q x||`` means Q is not positive
    definite and raises :class:`DefinitenessError`; a roundoff-negative one
    reads as zero.
    """
    form = x @ qx
    if form < -_DEFINITE_TOL * np.linalg.norm(x) * np.linalg.norm(qx):
        raise DefinitenessError(
            f"{name} is not positive definite (x^T {name} x = {form:.3g})")
    return np.sqrt(max(form, 0.0))


def _require_finite(vec, what):
    if not np.all(np.isfinite(vec)):
        raise ArgumentError(f"{what} holds a NaN or Inf")


def _check_symmetric(Q, name):
    """Two-vector symmetry probe of a covariance-like operator.

    For a symmetric Q, x^T Q y and y^T Q x differ only by roundoff; a gap
    above the ``_DEFINITE_TOL`` allowance of ``_form_norm`` raises
    :class:`DefinitenessError`.  The probe vectors come from a fixed seed, so
    reruns apply Q to the same inputs.  Returns the probes x, y and Q y.
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
    return x, y, qy


def check_noise_pair(Rinv, LR, m):
    """Raise unless R^{-1} and L_R are m x m, R^{-1} passes the symmetry
    probe and, on its probes x and y, (L_R x)^T (L_R y) equals x^T R^{-1} y
    within the probe's allowance: L_R^T L_R = R^{-1}, so an indefinite
    R^{-1} fails beside any L_R."""
    if Rinv.shape != (m, m) or LR.shape != (m, m):
        raise ArgumentError("noise operator shapes do not match the forward map")
    x, y, rinv_y = _check_symmetric(Rinv, "R^{-1}")
    lx, ly = LR.matvec(x), LR.matvec(y)
    _require_finite(np.r_[lx, ly], "L_R image of a symmetry probe")
    gap = abs(x @ rinv_y - lx @ ly)
    if gap > _DEFINITE_TOL * max(np.linalg.norm(x) * np.linalg.norm(rinv_y),
                                 np.linalg.norm(lx) * np.linalg.norm(ly)):
        raise DefinitenessError(f"R^{{-1}} does not equal L_R^T L_R "
                                f"(x^T R^{{-1}} y off by {gap:.3g})")


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


def qr_append_update(Y, Rup, u_new, v_hat, input_norm, counter=None):
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

    if u_new is not None and r > 0:
        d = Y.T @ u_new
        if counter is not None:
            counter.add(2 * m * r)
        delta = np.linalg.norm(d)
        if delta > 1e-14:
            # Row i of S is row i of Rup beside column i of Y, so one row
            # rotation of S rotates both factors.
            S = np.hstack([Rup, Y.T])
            # Rotate so only the leading basis column carries the u component.
            for i in range(r - 2, -1, -1):
                c, s, h = _givens(d[i], d[i + 1])
                d[i], d[i + 1] = h, 0.0
                _rotate_rows(S, i, c, s)
            delta_s = d[0]
            xi2 = 1.0 - delta_s * delta_s
            if xi2 <= _RANK_TOL:
                raise RankError("deflation produced a rank-deficient factor")
            lead = S[0, p:] - delta_s * u_new
            xi = np.linalg.norm(lead)
            S[0, p:] = lead / xi
            S[0, :p] *= xi
            # Restore triangular form (exact only when pivots sit on the
            # diagonal; rank-dropped staircases stay trapezoidal, which no
            # consumer relies on).
            for i in range(r - 1):
                if S[i + 1, i] != 0.0:
                    c, s, _ = _givens(S[i, i], S[i + 1, i])
                    _rotate_rows(S, i, c, s)
                    S[i + 1, i] = 0.0
            if counter is not None:
                counter.add(12 * m * max(r - 1, 0) + 3 * m + 12 * r * p)
            # a C-ordered Y: products on the transposed view round differently
            Rup, Y = S[:, :p], np.ascontiguousarray(S[:, p:].T)

    return _gs_append(Y, Rup, np.array(v_hat, dtype=float), input_norm,
                      counter)


def qr_recompute(U, Z, counter=None):
    """Skinny QR of (I - U U^T) Z from scratch, O(m k^2).

    Columns are appended left to right by the incremental path's two-pass
    Gram-Schmidt, so the dependent-column decisions match it.
    """
    m, k = Z.shape
    P = Z - U @ (U.T @ Z)
    P -= U @ (U.T @ P)
    if counter is not None:
        counter.add(8 * m * U.shape[1] * max(k, 1))
    Y = np.zeros((m, 0))
    Rup = np.zeros((0, 0))
    for j in range(k):
        Y, Rup = _gs_append(Y, Rup, P[:, j].copy(), np.linalg.norm(Z[:, j]),
                            counter)
    return Y, Rup


class MixGKState:
    """State of the process after ``k`` completed steps.

    Basis arrays grow by one column per step.  For the whitened A (R = I),
    A Q1 V_k = U_{k+1} B_k and A^T U_{k+1} = V_k B_k^T + alpha_{k+1}
    v_{k+1} e_{k+1}^T: ``U`` is orthonormal, ``V`` Q1-orthonormal (with
    the one-step lookahead vector).  ``W = Q2 V_k`` and ``Z = A W`` are the
    per-step Q2 caches, ``C = U^T Z`` the projected coupling block, ``G``
    the Gram matrix V_k^T W, and ``(Y, Rup)`` the skinny QR factors of
    (I - U U^T) Z.

    The state is single-owner: only :meth:`step` mutates it.
    """

    def __init__(self, A, Q1, Q2, b):
        self.A = A
        self.Q1 = Q1
        self.Q2 = Q2
        self.m = A.rows
        self.n = A.cols
        self.k = 0
        self.terminal = False
        self.breakdown_reason = None
        self.rank_drops = 0
        self.qr_fallbacks = 0

        b = np.asarray(b, dtype=float)
        if b.shape != (self.m,):
            raise ArgumentError("right-hand side length does not match the operator")
        _require_finite(b, "right-hand side b")
        beta1 = np.linalg.norm(b)
        if beta1 == 0.0:
            raise DegenerateDataError("zero right-hand side")
        self.beta1 = float(beta1)
        self.U = (b / beta1)[:, None]

        vraw = A.rmatvec(self.U[:, 0])
        _require_finite(vraw, "A^T u_1")
        q1v = Q1.matvec(vraw)
        _require_finite(q1v, "Q1 A^T u_1")
        alpha1 = _form_norm(vraw, q1v, "Q1")
        scale = np.linalg.norm(vraw)
        # the terms of A^T u_1 are of size ||A||; data orthogonal to
        # range(A) cancels them down to rounding
        if (alpha1 <= _BREAKDOWN_TOL * max(scale, _TINY)
                or scale <= _BREAKDOWN_TOL * _norm_estimate(A)):
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
        B = np.zeros((self.num_left, self.k))
        B[np.arange(self.k), np.arange(self.k)] = self.alphas[: self.k]
        nb = len(self.betas)
        B[np.arange(1, nb + 1), np.arange(nb)] = self.betas
        return B

    @property
    def Q1Vk(self):
        return self.Q1V[:, : self.k]

    # -- stepping -----------------------------------------------------------

    def step(self):
        if self.terminal:
            raise ArgumentError("cannot step a terminated process")
        k = self.k + 1
        v_k = self.V[:, k - 1]
        q1v_k = self.Q1V[:, k - 1]
        alpha_k = self.alphas[k - 1]

        # Left vector: beta_{k+1} u_{k+1} = A Q1 v_k - alpha_k u_k.
        a_q1v = self.A.matvec(q1v_k)
        uhat = a_q1v - alpha_k * self.U[:, k - 1]
        uhat -= self.U @ (self.U.T @ uhat)
        beta_new = np.linalg.norm(uhat)

        if beta_new <= _BREAKDOWN_TOL * max(np.linalg.norm(a_q1v), _TINY):
            # The subspace closed under A Q1; finalize step k with the
            # truncated k x k bidiagonal block and the existing left basis.
            self._advance_q2(v_k, new_u=None)
            self.k = k
            self.terminal = True
            self.breakdown_reason = "beta"
            return

        u_new = uhat / beta_new
        self.U = np.hstack([self.U, u_new[:, None]])
        self.betas.append(float(beta_new))

        # Advance the Q2 branch for column v_k (needs the new left vector).
        self._advance_q2(v_k, new_u=u_new)

        # Right vector: alpha_{k+1} v_{k+1} = A^T u_{k+1} - beta v_k.
        arm = self.A.rmatvec(u_new)
        vhat = arm - beta_new * v_k
        coef_v = self.Q1V.T @ vhat
        vhat = vhat - self.V @ coef_v
        q1vhat = self.Q1.matvec(vhat)
        alpha_new = _form_norm(vhat, q1vhat, "Q1")
        q1_arm = q1vhat + beta_new * q1v_k + self.Q1V @ coef_v
        scale_v = np.sqrt(max(arm @ q1_arm, 0.0))

        self.k = k
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
        z = self.A.matvec(w)
        k_new = self.W.shape[1] + 1

        # C = U^T Z, updated by one row (new left vector against old Z
        # columns) and one column (all left vectors against z).
        C_new = np.zeros((self.U.shape[1], k_new))
        C_new[: self.C.shape[0], :-1] = self.C
        if new_u is not None and self.Z.shape[1]:
            C_new[-1, :-1] = new_u @ self.Z
        utz = self.U.T @ z
        C_new[:, -1] = utz
        self.C = C_new

        # G = V_k^T Q2 V_k grows by a symmetric row/column pair.
        g_col = self.V[:, :k_new].T @ w
        G_new = np.zeros((k_new, k_new))
        G_new[:-1, :-1] = self.G
        G_new[:, -1] = G_new[-1, :] = g_col
        self.G = G_new

        self.W = np.hstack([self.W, w[:, None]])
        self.Z = np.hstack([self.Z, z[:, None]])

        rank_before = self.Y.shape[1]
        vhat = z - self.U @ utz
        vhat -= self.U @ (self.U.T @ vhat)
        try:
            self.Y, self.Rup = qr_append_update(
                self.Y, self.Rup, new_u, vhat,
                input_norm=np.linalg.norm(z),
            )
        except RankError:
            self.qr_fallbacks += 1
            self.Y, self.Rup = qr_recompute(self.U, self.Z)
        if self.Rup.shape[1] != k_new:
            raise RankError("QR factors lost column consistency")
        if self.Y.shape[1] == rank_before:
            self.rank_drops += 1


def mixgk_init(A, Q1, Q2, b):
    """Initialize the process on a whitened A and b: beta_1 u_1 = b and
    alpha_1 v_1 = A^T u_1.  Raises :class:`DegenerateDataError` for b = 0, :class:`ArgumentError`
    when b, A^T u_1 or its Q1 image holds a NaN or Inf, and
    :class:`DefinitenessError` when Q1 shows a negative form or a
    two-vector probe finds Q1 or Q2 not symmetric.  If alpha_1 vanishes,
    or A^T u_1 cancels to rounding against a probe estimate of ||A|| (data
    orthogonal to range(A)), the returned state is already terminal with
    k = 0 (no usable subspace).
    """
    n = A.cols
    if Q1.shape != (n, n) or Q2.shape != (n, n):
        raise ArgumentError("prior covariance shapes do not match the forward map")
    state = MixGKState(A, Q1, Q2, b)
    _check_symmetric(Q1, "Q1")
    _check_symmetric(Q2, "Q2")
    return state


def mixgk_step(state):
    """Advance the state by one step (mutates and returns it)."""
    state.step()
    return state
