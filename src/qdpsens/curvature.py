"""Certified reduced-curvature bracket from the inertia of a shifted cost-to-go recursion.

gamma = lambda_min(Z' H Z) over an orthonormal kernel basis Z of the
constraints is never formed here. Pin p_0 = 0 and run the cost-to-go
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
sign. At a zero count the same factorization solves the shifted problem
with a linear term (an inverse-iteration step, p_0 still pinned; up to
INNER_STEPS per pass), with the gains -W_k^{-1} G_k the kernel returns. The
solve's controls are rolled through the dynamics, so the vector is feasible
and its Rayleigh quotient bounds gamma from above.

``gamma_bracket`` returns (lo, hi) with lo a shift at which a pass returned
zero with its guard clear (a proven lower bound) and hi a Rayleigh quotient
or a shift with a nonzero count (an upper bound). The estimate that places
the shifts comes from one of two paths chosen by the kernel dimension
N * nu: the dense reduced Hessian up to ``_DENSE_ESTIMATE_MAX``, shifted
solves and bisection above it. Both end in the same count pass.

Guard. W_k = R_k - sigma I + B_k' K_{k+1} B_k cancels when K grows, and
then its sign is rounding. Each pass compares every processed block's
smallest |eigenvalue| with GUARD_UNITS * eps * (|R_k - sigma I| +
|B_k|^2 |K_{k+1}|) in Frobenius norms. At sigma = 0 a block under its
threshold raises ``UncertainInertia`` naming the stage; at a positive shift
it stops the refinement and the bracket width reports where.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import SoscFailed, UncertainInertia, ValidationError
from .model import QdpProblem
from .nullspace import reduced_hessian_gamma
from .riccati import _POSV, _sweep

GUARD_UNITS = 16.0
BRACKET_RTOL = 1e-10
# Relative gaps below the estimate at which the closing pass is tried, the
# second when the guard stops the first.
FINAL_GAPS = (2.5e-13, 2.5e-11)
# A Rayleigh quotient that moves less than this (relative) has settled.
SETTLE_RTOL = 1e-12
MAX_PASSES = 100
INNER_STEPS = 2
# Kernel dimension N * nu up to which the dense reduced Hessian places the
# closing shift; above it, shifted solves do (measured crossover, CHANGES.md).
_DENSE_ESTIMATE_MAX = 200

_EPS = np.finfo(float).eps


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
    """Stacks of one problem shared by every pass: A, B, [A B], the stage Hessians, |B|_F^2."""

    def __init__(self, qdp: QdpProblem):
        dims = qdp.dims
        self.dims = dims
        blocks = qdp.blocks
        self.A, self.B = blocks["A"], blocks["B"]
        self.AB = np.concatenate([self.A, self.B], axis=2)
        self.H = qdp.stage_hessians()
        self.QN = qdp.terminal_Q
        self.R = blocks["R"]
        self.B_sq = np.einsum("kij,kij->k", self.B, self.B)
        self.eye_w, self.eye_x, self.eye_u = (np.eye(n) for n in (dims.nx + dims.nu, dims.nx, dims.nu))

    def count(self, sigma: float) -> CountPass:
        """Run the shifted recursion from K_N = Q_N - sigma I down to K_0."""
        nx = self.dims.nx
        F, K, X, stop, eigs = _sweep(self.H - sigma * self.eye_w, self.AB, self.QN - sigma * self.eye_x, _POSV)
        W = F[:, nx:, nx:]
        first = 0 if stop is None else stop
        low = eigs[:, 0]
        R_shift = self.R[first:] - sigma * self.eye_u
        scale = (np.sqrt(np.einsum("kij,kij->k", R_shift, R_shift))
                 + self.B_sq[first:] * np.sqrt(np.einsum("kij,kij->k", K[first + 1:], K[first + 1:])))
        threshold = GUARD_UNITS * _EPS * scale
        unsafe = np.flatnonzero(~(np.abs(low) > threshold))
        guard = None
        if unsafe.size:
            j = unsafe[-1]
            guard = (first + int(j), float(low[j]), float(threshold[j]))
        return CountPass(stop, float(low[0]), guard, W, X)

    def solver(self, cp: CountPass):
        """Shifted solves at a zero-count pass: v -> kernel minimizer of w' (H - sigma I) w - 2 v' w.

        Tail costs are p' K_k p - 2 s_k' p with s_N = a_N and
        s_k = a_k + P_k' b_k + E_k' s_{k+1}, where (a; b) are the state and
        control parts of v. The controls q_k = P_k p_k + W_k^{-1} (b_k + B_k' s_{k+1})
        are rolled from p_0 = 0, and the result is stacked as (p_0; q_0; ...; p_N).
        """
        dims = self.dims
        N, nx, nu = dims.N, dims.nx, dims.nu
        B = self.B
        W_inv = np.linalg.inv(cp.W)
        P = -cp.X
        E = self.A + B @ P
        P_t, E_t, B_t = np.swapaxes(P, 1, 2), np.swapaxes(E, 1, 2), np.swapaxes(B, 1, 2)

        def solve(v: np.ndarray) -> np.ndarray:
            body = v[:N * (nx + nu)].reshape(N, nx + nu, 1)
            a, b = body[:, :nx], body[:, nx:]
            drive = (a + P_t @ b)[:, :, 0]
            s = [v[N * (nx + nu):]]
            for E_t_k, drive_k in zip(E_t[:0:-1], drive[:0:-1]):
                s.append(drive_k + E_t_k @ s[-1])
            feedforward = W_inv @ (b + B_t @ np.array(s[::-1])[:, :, None])
            push = (B @ feedforward)[:, :, 0]
            p = [np.zeros(nx)]
            for E_k, push_k in zip(E, push):
                p.append(E_k @ p[-1] + push_k)
            p = np.array(p)
            q = (P @ p[:N, :, None] + feedforward)[:, :, 0]
            return np.concatenate([np.concatenate([p[:N], q], axis=1).reshape(-1), p[N]])

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

    def probe(self, sigma: float) -> CountPass:
        """One pass at sigma; a clear zero raises lo and takes up to INNER_STEPS inverse-iteration steps."""
        self.passes += 1
        cp = self.last = self.shifted.count(sigma)
        if cp.guard is not None:
            return cp
        if cp.stage is None:
            self.lo = sigma
            solve = self.shifted.solver(cp)
            for _ in range(INNER_STEPS):
                w = solve(self.x)
                self.x = w / np.linalg.norm(w)
                rq = self.shifted.rayleigh(self.x)
                self.move, self.rq = abs(self.rq - rq), rq
                self.hi = min(self.hi, rq)
                if self.converged():
                    break
        else:
            self.hi = min(self.hi, sigma)
        return cp

    def converged(self) -> bool:
        return self.lo is not None and self.hi - self.lo <= BRACKET_RTOL * self.hi

    def close(self, estimate: float) -> CountPass:
        """Pass at estimate (1 - gap), the next gap only while the guard stops the last."""
        for gap in FINAL_GAPS:
            cp = self.probe(estimate * (1.0 - gap))
            if cp.guard is None:
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
        try:
            estimate = reduced_hessian_gamma(qdp)
        except ValidationError:  # the dense kernel basis refuses the problem; the count decides
            estimate = 0.0
        if estimate > 0.0:
            search.close(estimate)
    if search.lo is None:
        search.start()
    search.refine()
    if search.lo == 0.0 and search.last.guard is not None:
        raise UncertainInertia(*search.last.guard)
    return search.lo, search.hi
