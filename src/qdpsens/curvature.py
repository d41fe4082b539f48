"""Certified reduced-curvature bracket from the inertia of a shifted cost-to-go recursion.

gamma = lambda_min(Z' H Z) over an orthonormal kernel basis Z of the
constraints is certified here without the constraint Jacobian or any
n_z x n_z matrix. Pin p_0 = 0 and run the cost-to-go
recursion of ``riccati.backward_pass`` on the shifted data Q_k - sigma I,
R_k - sigma I and Q_N - sigma I. The reduced form of H - sigma I is then a
sum of W_k-weighted squares under a unit-triangular change of the control
variables, so by Sylvester's law of inertia (Rao, Wright & Rawlings 1998,
JOTA 99(3)) the number of eigenvalues of Z' H Z below sigma equals
sum_k neg(W_k):

    every W_k positive definite  =>  gamma > sigma,
    some W_k not                 =>  gamma <= sigma.

A pass is one such recursion ("count pass"): the stage kernel
``riccati._sweep`` on the shifted stage Hessians with the Cholesky solve
(LAPACK ``posv``) of W_k against G_k = B_k' K_{k+1} A_k + S_k. It stops at
the first W_k that is not positive definite, since that alone decides the
sign. At a zero count the gains X_k = W_k^{-1} G_k of the pass give the
closed loop E_k = A_k - B_k X_k, through which every upper-bound vector is
rolled from p_0 = 0, p_{k+1} = E_k p_k + B_k v_k for a feedforward v: its
controls are q_k = v_k - X_k p_k, so the vector is feasible, rounding is
not amplified on expanding dynamics, and its Rayleigh quotient bounds
gamma from above. A shifted solve is one adjoint sweep for v and one such
roll (``model._adjoint`` and ``model._roll``, shared with ``riccati``).

``gamma_bracket`` returns (lo, hi) with lo a shift at which a pass returned
zero with its guard clear (a proven lower bound) and hi a Rayleigh quotient
or a shift with a nonzero count (an upper bound). The estimate that places
the shifts comes from one of two paths chosen by the kernel dimension
N * nu. Up to ``_DENSE_ESTIMATE_MAX`` it is the smallest eigenpair of the
reduced Hessian over an orthonormal basis of the control-to-trajectory map,
the open-loop roll of unit controls (``_Shifted.estimate``): one closing
pass just below the eigenvalue, and the eigenvector, rolled through that
pass's closed loop, gives hi. Above it, shifted solves (inverse iteration
with a linear term, up to INNER_STEPS per pass) and bisection place the
shifts; they are also the fallback when the closing pass does not close
the bracket.

Guard. W_k = R_k - sigma I + B_k' K_{k+1} B_k cancels when K grows, and
then its sign is rounding. Each pass compares every processed block's
smallest |eigenvalue| with riccati.GUARD_UNITS * eps * (|R_k - sigma I| +
|B_k|^2 |K_{k+1}|) in Frobenius norms (``riccati._rounding_guard``, the
rule ``backward_pass`` applies too). At sigma = 0 a block under its
threshold raises ``UncertainInertia`` naming the stage; at a positive shift
it stops the refinement and the bracket width reports where. The guard
bounds the rounding of W_k's own sum, not what accumulates in K along the
recursion: near gamma a count can still read rounding (README, "Certified
gamma").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .exceptions import SoscFailed, UncertainInertia
from .model import QdpProblem, _adjoint, _roll
from .riccati import _POSV, _rounding_guard, _sweep

BRACKET_RTOL = 1e-10
# Relative gaps below the estimate at which the closing pass is tried, the
# second when the guard stops the first (or, below an eigenpair estimate,
# when the first count is nonzero).
FINAL_GAPS = (2.5e-13, 2.5e-11)
# A Rayleigh quotient that moves less than this (relative) has settled.
SETTLE_RTOL = 1e-12
MAX_PASSES = 100
INNER_STEPS = 2
# Kernel dimension N * nu up to which the reduced Hessian over the
# control-to-trajectory map places the closing shift; above it, shifted
# solves do (measured crossover, CHANGES.md).
_DENSE_ESTIMATE_MAX = 200


@dataclass(frozen=True)
class CountPass:
    """One shifted recursion: where it stopped and what it certifies.

    ``stage`` is None when every W_k is positive definite (zero count), else
    the stage of the first W_k, in backward order, that is not; ``min_eig``
    is the smallest eigenvalue of that W_k (of W_0 at a zero count).
    ``guard`` is None when rounding cannot flip any processed block's sign,
    else (stage, smallest eigenvalue, threshold) of the first block where it
    can. W and X (= W^{-1} G with G = B' K A + S, shifted) are the stage
    stacks the solves reuse.
    """

    stage: int | None
    min_eig: float
    guard: tuple | None
    W: np.ndarray
    X: np.ndarray


class _Shifted:
    """Stacks of one problem shared by every pass: A, B, [A B], R and the stage Hessians."""

    def __init__(self, qdp: QdpProblem):
        dims = qdp.dims
        self.dims = dims
        blocks = qdp.blocks
        self.A, self.B = blocks["A"], blocks["B"]
        self.AB = np.concatenate([self.A, self.B], axis=2)
        self.H = qdp.stage_hessians()
        self.QN = qdp.terminal_Q
        self.R = blocks["R"]
        self.eye_w, self.eye_x, self.eye_u = (np.eye(n) for n in (dims.nx + dims.nu, dims.nx, dims.nu))

    def count(self, sigma: float) -> CountPass:
        """Run the shifted recursion from K_N = Q_N - sigma I down to K_0."""
        nx = self.dims.nx
        F, K, X, stop, eigs = _sweep(self.H - sigma * self.eye_w, self.AB, self.QN - sigma * self.eye_x, _POSV)
        first = 0 if stop is None else stop
        low = eigs[:, 0]
        guard = _rounding_guard(low, self.R[first:] - sigma * self.eye_u, self.B[first:], K[first + 1:], first)
        return CountPass(stop, float(low[0]), guard, F[:, nx:, nx:], X)

    def estimate(self) -> tuple:
        """(gamma estimate, its stacked kernel vector) from the control-to-trajectory map.

        T (n_z x N nu), the open-loop roll (E_k = A_k, P_k = 0) of one unit
        control per column, maps the controls to (p_0; q_0; ...; p_N) with
        p_0 = 0 and p_{k+1} = A_k p_k + B_k q_k, so its range is the kernel of
        the constraints. One thin QR of T without its p_0 rows gives an
        orthonormal basis Q; Q' H Q is summed over the block-diagonal stage
        Hessians, and one ``syevr`` call gives its smallest eigenpair. The
        estimate is nan when T overflows or the eigensolver fails; the count
        then decides alone.
        """
        dims = self.dims
        N, nx, nu = dims.N, dims.nx, dims.nu
        width, m = nx + nu, N * nu
        units = np.eye(m).reshape(N, nu, m)
        T = _roll(self.A, np.zeros((N, nu, nx)), units, self.B @ units, np.zeros((nx, m))).T
        if not np.isfinite(T.sum()):
            return np.nan, None
        qr, tau, *_ = lapack.dgeqrf(T[nx:])
        Q = np.zeros((dims.n_z, m))
        Q[nx:], *_ = lapack.dorgqr(qr, tau)
        Q_body = Q[:N * width].reshape(N, width, m)
        Q_tail = Q[N * width:]
        reduced = (Q[:N * width].T @ (self.H @ Q_body).reshape(N * width, m)
                   + Q_tail.T @ (self.QN @ Q_tail))
        value, vector, _, _, info = lapack.dsyevr(reduced, range="I", il=1, iu=1)
        if info:
            return np.nan, None
        return float(value[0]), Q @ vector[:, 0]

    def reroll(self, cp: CountPass, w: np.ndarray) -> np.ndarray:
        """w rolled again through the closed loop E_k = A_k - B_k X_k of a zero-count pass
        from p_0 = 0: the feedforward v_k = q_k + X_k p_k of its own states and controls."""
        dims = self.dims
        body = w[:dims.N * (dims.nx + dims.nu)].reshape(dims.N, dims.nx + dims.nu)
        p, q = body[:, :dims.nx], body[:, dims.nx:]
        feedforward = q + (cp.X @ p[:, :, None])[:, :, 0]
        push = (self.B @ feedforward[:, :, None])[:, :, 0]
        return _roll(self.A - self.B @ cp.X, -cp.X, feedforward, push, np.zeros(dims.nx))

    def solver(self, cp: CountPass):
        """Shifted solves at a zero-count pass: v -> kernel minimizer of w' (H - sigma I) w - 2 v' w.

        Tail costs are p' K_k p - 2 s_k' p for the adjoint s_N = a_N,
        s_k = a_k - X_k' b_k + E_k' s_{k+1}, where (a; b) are the state and
        control parts of v. The controls q_k = W_k^{-1} (b_k + B_k' s_{k+1}) - X_k p_k
        are rolled through the closed loop E_k = A_k - B_k X_k from p_0 = 0.
        """
        dims = self.dims
        N, nx, nu = dims.N, dims.nx, dims.nu
        B = self.B
        W_inv = np.linalg.inv(cp.W)
        X = cp.X
        P, E = -X, self.A - B @ X
        X_t, B_t = np.swapaxes(X, 1, 2), np.swapaxes(B, 1, 2)

        def solve(v: np.ndarray) -> np.ndarray:
            body = v[:N * (nx + nu)].reshape(N, nx + nu, 1)
            a, b = body[:, :nx], body[:, nx:]
            s = _adjoint(E, (a - X_t @ b)[:, :, 0], v[N * (nx + nu):])
            feedforward = (W_inv @ (b + B_t @ s[1:, :, None]))[:, :, 0]
            return _roll(E, P, feedforward, (B @ feedforward[:, :, None])[:, :, 0], np.zeros(nx))

        return solve

    def rayleigh(self, w: np.ndarray) -> float:
        """w' H w / w' w for a stacked vector w with p_0 = 0."""
        dims = self.dims
        N, width = dims.N, dims.nx + dims.nu
        body = w[:N * width].reshape(N, width)
        tail = w[N * width:]
        num = np.einsum("ki,kij,kj->", body, self.H, body) + tail @ self.QN @ tail
        return float(num / (w @ w))


class _Search:
    """The bracket state: lo (certified, None until a pass clears), hi, the iterate x,
    its Rayleigh quotient rq, and ``move``, rq's last change (its error estimate)."""

    def __init__(self, qdp: QdpProblem):
        self.shifted = _Shifted(qdp)
        self.lo, self.hi = None, np.inf
        self.x = np.ones(qdp.dims.n_z)
        self.rq = self.move = np.inf
        self.passes = 0
        self.last = None

    def probe(self, sigma: float, guess: np.ndarray | None = None) -> CountPass:
        """One pass at sigma. A clear zero raises lo; the guess, rolled through the pass's
        closed loop, becomes the iterate, and its Rayleigh quotient hi when above lo. While
        the bracket is open, up to INNER_STEPS inverse-iteration steps follow."""
        self.passes += 1
        cp = self.last = self.shifted.count(sigma)
        if cp.guard is not None:
            return cp
        if cp.stage is not None:
            self.hi = min(self.hi, sigma)
            return cp
        self.lo = sigma
        if guess is not None:
            w = self.shifted.reroll(cp, guess)
            self.x = w / np.linalg.norm(w)
            rq = self.shifted.rayleigh(self.x)
            if rq > sigma:
                self.rq = rq
                self.hi = min(self.hi, rq)
        if self.converged():
            return cp
        solve = self.shifted.solver(cp)
        for _ in range(INNER_STEPS):
            w = solve(self.x)
            self.x = w / np.linalg.norm(w)
            rq = self.shifted.rayleigh(self.x)
            self.move, self.rq = abs(self.rq - rq), rq
            self.hi = min(self.hi, rq)
            if self.converged():
                break
        return cp

    def converged(self) -> bool:
        return self.lo is not None and self.hi - self.lo <= BRACKET_RTOL * self.hi < np.inf

    def close(self, estimate: float, guess: np.ndarray | None = None) -> CountPass:
        """Pass at estimate (1 - gap), the next gap only while the guard stops the last or,
        for an eigenpair estimate (a guess), while its count is nonzero: within about 1e-11
        of gamma a count can read rounding, and the eigenvalue is accurate to about 1e-14."""
        for gap in FINAL_GAPS:
            cp = self.probe(estimate * (1.0 - gap), guess)
            if cp.guard is None and (cp.stage is None or guess is None):
                break
        return cp

    def start(self) -> None:
        """The count at sigma = 0, which decides the second-order condition."""
        cp = self.probe(0.0)
        if cp.guard is not None:
            raise UncertainInertia(*cp.guard)
        if cp.stage is not None:
            raise SoscFailed(cp.stage, cp.min_eig)

    def refine(self) -> None:
        """Close once the Rayleigh quotient settles; otherwise step below it by ten times its
        last move after a zero count, or bisect, whichever shift is higher."""
        while not self.converged() and self.passes < MAX_PASSES:
            mid = 0.5 * (self.lo + self.hi)
            if self.last.stage is not None:
                cp = self.probe(mid)
            elif self.move <= SETTLE_RTOL * self.hi:
                cp = self.close(self.hi)
            else:
                cp = self.probe(max(mid, self.hi - 10.0 * self.move))
            if cp.guard is not None:
                return


def gamma_bracket(qdp: QdpProblem) -> tuple:
    """(lo, hi) with lo < gamma <= hi, lo certified by a zero count with its guard clear.

    Raises ``SoscFailed`` naming the stage when the count at sigma = 0 is
    nonzero (gamma <= 0), and ``UncertainInertia`` when rounding decides a
    sign at sigma = 0 or stops every positive shift. Where the guard stops the
    refinement near gamma, the bracket is wider than BRACKET_RTOL * hi.
    """
    search = _Search(qdp)
    dims = qdp.dims
    if dims.N * dims.nu <= _DENSE_ESTIMATE_MAX:
        estimate, vector = search.shifted.estimate()
        if estimate > 0.0:
            search.close(estimate, vector)
    if search.lo is None:
        search.start()
    search.refine()
    if search.lo == 0.0 and search.last.guard is not None:
        raise UncertainInertia(*search.last.guard)
    return search.lo, search.hi
