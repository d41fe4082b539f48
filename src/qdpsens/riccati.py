"""Linear-time recursions: the stage kernel, backward pass, batched forward reconstruction, cost-to-go.

Three recursions of the package are one stage step on shifted stage
Hessians H_k = [[Q_k, S_k'], [S_k, R_k]]: the cost-to-go recursion here,
the shifting recursion of ``convexify`` and the inertia count of
``curvature``. The kernel ``_sweep`` runs that step from K_N down to K_0,

    F_k = H_k + [A_k B_k]' K_{k+1} [A_k B_k],
    W_k = F_k[u, u],  G_k = F_k[u, x],  X_k = W_k^{-1} G_k,
    K_k = F_k[x, x] - G_k' X_k,  then symmetrized,

with one LAPACK solve per stage, the only thing its callers choose: a
Cholesky solve (``posv``) where W_k must be positive definite, a symmetric
indefinite solve (``sysv``) where it need only be invertible. K_k is
symmetrized inside the loop because the skew part rounding leaves in it
feeds back through [A_k B_k]' K_{k+1} [A_k B_k] and grows with the
open-loop A_k, not the closed loop (Verhaegen & Van Dooren 1986); every K
the kernel returns is exactly symmetric. Definiteness
and finiteness are checked after the loop, over the stacks, by one stacked
eigensolve; each caller maps a failure to its typed error at the first
failing stage in backward order. Here the feedback gains are P_k = -X_k,
the closed-loop transitions E_k = A_k + B_k P_k are formed over the stacks,
and W_k^{-1} is formed once for every stage by one stacked inverse. Every
function here does a fixed amount of work per stage; the closed-form state
maps that check these recursions are oracles and live in ``verify``.

Every direction shares that one factorization, and the minimizer is linear
in the direction, so a block of m directions (the columns of L_k, nd x m)
is reconstructed by one adjoint sweep and one closed-loop roll over
(nx x m) and (nu x m) blocks (``model._adjoint`` and ``model._roll``). The
adjoint carries a single accumulator for the later-stage direction blocks,

    s_N = 0,  s_k = drive_k + E_k' s_{k+1},
    drive_k = -(E_k' K_{k+1} C_k L_k + (D1_k + D2_k P_k)' L_k),

which equals sum_{i>=k} [(M_i^k)' l_i + (V_i^k)' C_i l_i] for the chains

    M_i^k = -(D1_i + D2_i P_i) E_{i-1} ... E_k,
    V_i^k = -K_{i+1} E_i ... E_k,

so memory and work stay linear in the horizon and -2 s_k is the linear
term of the tail cost from stage k. The optimal control law is

    q_k(p_k) = P_k p_k + W_k^{-1} [B_k' (s_{k+1} - K_{k+1} C_k L_k) - D2_k' L_k],

whose feedforward ff_k, one stacked product with the W_k^{-1} stack, pushes
the roll p_{k+1} = E_k p_k + B_k ff_k + C_k L_k from p_0 = l_{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ._linalg import asymmetry, inf_norm, symmetrize
from .exceptions import IndefiniteW, UncertainInertia, ValidationError
from .model import Dims, QdpProblem, Trajectory, _adjoint, _direction_parts, _freeze, _roll

W_MIN_EIG = 1e-12
GUARD_UNITS = 16.0

_POSV = lapack.dposv
_EPS = np.finfo(float).eps


def _sweep(H: np.ndarray, AB: np.ndarray, K_N: np.ndarray, solve) -> tuple:
    """(F, K, X, stop, eigs) of the stage step over (N, nx + nu, nx + nu) stage Hessians H
    and the (N, nx, nx + nu) dynamics stack AB = [A_k B_k].

    ``solve`` is a LAPACK ``posv`` or ``sysv`` routine, called with its
    defaults, so it reads the upper triangle of W_k. The loop stops at the
    first stage whose solve fails (``stop``; None when none does): F_k is
    formed for k >= stop, K_k above it, and X (N, nu, nx) is returned only
    after a full sweep (else None). A non-finite F_k or K_k raises
    ``ValidationError``, ahead of any caller's check, naming the first such
    stage in backward order.
    ``eigs`` holds the ascending eigenvalues of W_first, ..., W_{N-1}, with
    first = stop or 0, read from the same upper triangles.
    """
    N = H.shape[0]
    nx = K_N.shape[0]
    AB_t = np.ascontiguousarray(np.swapaxes(AB, 1, 2))
    F = np.array(H)
    K = np.zeros((N + 1, nx, nx))
    K[N] = K_N
    Xs = []
    stop = None
    stages = zip(range(N - 1, -1, -1), AB[::-1], AB_t[::-1], F[::-1], K[:0:-1], K[-2::-1],
                 F[::-1, :nx, :nx], F[::-1, nx:, :nx], F[::-1, nx:, nx:])
    for k, ABk, AB_tk, Fk, K_next, K_k, F_xx, G, W in stages:
        Fk += AB_tk @ (K_next @ ABk)
        *_, x, info = solve(W, G)
        if info:
            stop = k
            break
        np.subtract(F_xx, G.T @ x, out=K_k)
        K_k += K_k.T
        K_k *= 0.5
        Xs.append(x)
    first = stop or 0
    if not np.isfinite(F[first:].sum() + K[first:].sum()):  # a finite sum can overflow: rescan by stage
        finite = np.isfinite(F[first:]).all(axis=(1, 2)) & np.isfinite(K[first:N]).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(
                f"non-finite entries in the Riccati recursion at stage {first + np.flatnonzero(~finite)[-1]}")
    X = np.array(Xs[::-1]) if stop is None else None
    return F, K, X, stop, np.linalg.eigvalsh(F[first:, nx:, nx:], UPLO="U")


def _fro(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of every block of a stack."""
    return np.sqrt(np.einsum("kij,kij->k", M, M))


def _rounding_guard(low: np.ndarray, R: np.ndarray, B: np.ndarray, K_next: np.ndarray, first: int):
    """(stage, smallest eigenvalue, threshold) of the first W_k, in backward order, whose sign
    rounding can flip, or None.

    W_k = R_k + B_k' K_{k+1} B_k cancels when K grows, so a block is signed only
    when its smallest |eigenvalue| ``low`` exceeds GUARD_UNITS * eps *
    (|R_k| + |B_k|^2 |K_{k+1}|) in Frobenius norms. The stacks hold stages
    first, first + 1, ... (K_next one stage later).
    """
    B_sq = np.einsum("kij,kij->k", B, B)
    threshold = GUARD_UNITS * _EPS * (_fro(R) + B_sq * _fro(K_next))
    unsafe = np.flatnonzero(~(np.abs(low) > threshold))
    if not unsafe.size:
        return None
    j = unsafe[-1]
    return first + int(j), float(low[j]), float(threshold[j])


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-pass output: read-only stage stacks K (N + 1, nx, nx), W and its
    inverse W_inv (N, nu, nu), P (N, nu, nx) and E (N, nx, nx)."""

    dims: Dims
    K: np.ndarray
    W: np.ndarray
    P: np.ndarray
    E: np.ndarray
    closed_loop_identity_residual: float
    W_inv: np.ndarray

    def solve_W(self, k: int, rhs: np.ndarray) -> np.ndarray:
        """W_k^{-1} rhs, read from the W_inv stack."""
        return self.W_inv[k] @ np.asarray(rhs, dtype=float)


def backward_pass(qdp: QdpProblem) -> RiccatiSolution:
    """Run the cost-to-go recursion K_N = QN down to K_0.

    Every W_k must clear W_MIN_EIG times its largest |eigenvalue|; that is
    guaranteed for transformed problems and holds for the original one
    whenever the reduced curvature bound is positive. A W_k that clears it
    but whose sign rounding can flip (``_rounding_guard``, the count's rule
    in ``curvature``) raises ``UncertainInertia`` naming the stage. The recursion also
    records the worst per-entry residual of the closed-loop identity
    K_k = E_k' K_{k+1} E_k + [I P_k']' H_k [I; P_k] as a cheap invariant.
    """
    dims = qdp.dims
    nx = dims.nx
    blocks = qdp.blocks
    H = qdp.stage_hessians()
    AB = np.concatenate([blocks["A"], blocks["B"]], axis=2)
    F, K, X, stop, eigs = _sweep(H, AB, qdp.terminal_Q, _POSV)
    low = eigs[:, 0]
    floor = W_MIN_EIG * np.maximum(-low, eigs[:, -1])
    failed = low <= floor
    if stop is not None:
        failed[0] = True
    if failed.any():
        j = np.flatnonzero(failed)[-1]
        raise IndefiniteW((stop or 0) + int(j), float(low[j]), float(floor[j]))
    guard = _rounding_guard(low, blocks["R"], blocks["B"], K[1:], 0)
    if guard is not None:
        raise UncertainInertia(*guard)

    P, W = -X, symmetrize(F[:, nx:, nx:])
    E = blocks["A"] + blocks["B"] @ P
    basis = np.concatenate([np.broadcast_to(np.eye(nx), (dims.N, nx, nx)), P], axis=1)
    rebuilt = np.swapaxes(E, 1, 2) @ K[1:] @ E + np.swapaxes(basis, 1, 2) @ H @ basis
    worst = max(inf_norm(K[:-1] - rebuilt), asymmetry(K[:-1]))
    return RiccatiSolution(
        dims=dims,
        K=_freeze(K),
        W=_freeze(W),
        P=_freeze(P),
        E=_freeze(E),
        closed_loop_identity_residual=worst,
        W_inv=_freeze(np.linalg.inv(W)),
    )


def _influence_sweep(rs: RiccatiSolution, qdp: QdpProblem, lst: np.ndarray) -> tuple:
    """(s, CL, KCL) for direction blocks lst (N, nd, m): the accumulators s_0..s_N,
    shape (N + 1, nx, m), and the stacks C_k L_k and K_{k+1} C_k L_k, (N, nx, m)
    each, which the forward roll reuses. Only the adjoint is a loop."""
    blocks = qdp.blocks
    cl = blocks["C"] @ lst
    kcl = rs.K[1:] @ cl
    source = np.swapaxes(blocks["D1"] + blocks["D2"] @ rs.P, 1, 2) @ lst
    drive = -(np.swapaxes(rs.E, 1, 2) @ kcl + source)
    return _adjoint(rs.E, drive, np.zeros((qdp.dims.nx, lst.shape[2]))), cl, kcl


def forward_solve_block(rs: RiccatiSolution, qdp: QdpProblem, L: np.ndarray) -> np.ndarray:
    """Stacked minimizers (p_0; q_0; ...; p_N) for every row of L, shape (m, n_z).

    L holds one dense direction (l_{-1}; l_0; ...; l_{N-1}) per row. States
    come from rolling the closed loop under the optimal feedforward, so every
    row is feasible by construction; only the roll over the states is a loop.
    """
    dims = qdp.dims
    N, nx = dims.N, dims.nx
    m = L.shape[0]
    lst = np.ascontiguousarray(L[:, nx:].reshape(m, N, dims.nd).transpose(1, 2, 0))
    s, cl, kcl = _influence_sweep(rs, qdp, lst)
    B, D2 = qdp.blocks["B"], qdp.blocks["D2"]
    drive = np.swapaxes(B, 1, 2) @ (s[1:] - kcl) - np.swapaxes(D2, 1, 2) @ lst
    feedforward = rs.W_inv @ drive
    return _roll(rs.E, rs.P, feedforward, B @ feedforward + cl, L[:, :nx].T)


def forward_solve(rs: RiccatiSolution, qdp: QdpProblem, l) -> Trajectory:
    """Reconstruct the unique minimizer for direction l (the one-row block)."""
    l_minus1, l_stages = _direction_parts(l, qdp.dims)
    row = np.concatenate([l_minus1, l_stages.reshape(-1)])
    return Trajectory.from_stacked(qdp.dims, forward_solve_block(rs, qdp, row[None, :])[0])


@dataclass(frozen=True)
class CostToGo:
    """Tail-cost function J_k(p) = p' K p + linear . p + constant."""

    quadratic: np.ndarray
    linear: np.ndarray
    constant: float

    def value(self, p) -> float:
        p = np.asarray(p, dtype=float)
        return float(p @ self.quadratic @ p + self.linear @ p + self.constant)


def cost_to_go_terms(rs: RiccatiSolution, qdp: QdpProblem, l, k: int) -> CostToGo:
    """Coefficients of the tail cost from stage k for direction l.

    The linear term is -2 s_k from the influence sweep, and the constant term
    follows the backward recursion
    T_j = T_{j+1} + l_j' C_j' K_{j+1} C_j l_j - 2 s_{j+1} . C_j l_j
          - | (D2_j' + B_j' K_{j+1} C_j) l_j - B_j' s_{j+1} |^2_{W_j^{-1}},
    summed over the stacks, and vanishes whenever all direction blocks from
    stage k on are zero.
    """
    dims = qdp.dims
    if not 0 <= k <= dims.N:
        raise ValidationError(f"stage {k} outside [0, {dims.N}]")
    if k == dims.N:
        return CostToGo(rs.K[dims.N].copy(), np.zeros(dims.nx), 0.0)
    _, l_stages = _direction_parts(l, dims)
    lst = l_stages[:, :, None]
    s, cl, kcl = _influence_sweep(rs, qdp, lst)
    blocks = qdp.blocks
    s_next, cl, kcl = s[k + 1:], cl[k:], kcl[k:]
    v = (np.swapaxes(blocks["D2"][k:], 1, 2) @ lst[k:]
         + np.swapaxes(blocks["B"][k:], 1, 2) @ (kcl - s_next))
    terms = np.swapaxes(cl, 1, 2) @ (kcl - 2.0 * s_next) - np.swapaxes(v, 1, 2) @ rs.W_inv[k:] @ v
    return CostToGo(rs.K[k].copy(), -2.0 * s[k, :, 0], float(terms.sum()))


def cost_to_go(rs: RiccatiSolution, qdp: QdpProblem, l, k: int, p_k) -> float:
    """Optimal tail cost from stage k started at state p_k."""
    return cost_to_go_terms(rs, qdp, l, k).value(p_k)
