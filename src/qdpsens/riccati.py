"""Linear-time recursions: backward pass, batched forward reconstruction, cost-to-go.

The backward pass produces the cost-to-go matrices K_k together with the
control weights W_k = R_k + B_k' K_{k+1} B_k and feedback gains
P_k = -W_k^{-1} (B_k' K_{k+1} A_k + S_k) by one stage step that
``convexify`` shares; the closed-loop transitions E_k = A_k + B_k P_k,
which no later stage step needs, are formed after the loop over the block
stacks. Every function here does a fixed amount of work per stage; the
closed-form state maps that check these recursions are oracles and live in
``verify``.

Every direction shares that one factorization, and the minimizer is linear
in the direction, so a block of m directions (the columns of L_k, nd x m)
is reconstructed by one influence sweep and one forward roll over
(nx x m) and (nu x m) blocks. The influence sweep carries a single
accumulator for the later-stage direction blocks,

    s_N = 0,
    s_k = -(D1_k + D2_k P_k)' L_k + E_k' (s_{k+1} - K_{k+1} C_k L_k),

which equals sum_{i>=k} [(M_i^k)' l_i + (V_i^k)' C_i l_i] for the chains

    M_i^k = -(D1_i + D2_i P_i) E_{i-1} ... E_k,
    V_i^k = -K_{i+1} E_i ... E_k,

so memory and work stay linear in the horizon and -2 s_k is the linear
term of the tail cost from stage k. The optimal control law is

    q_k(p_k) = P_k p_k + W_k^{-1} [B_k' (s_{k+1} - K_{k+1} C_k L_k) - D2_k' L_k],

with one W_k solve per stage for the whole block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import SymSolve, asymmetry, inf_norm, symmetrize
from .exceptions import IndefiniteW, ValidationError
from .model import Dims, QdpProblem, Trajectory, _direction_parts

W_MIN_EIG = 1e-12


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-pass output; all lists are stage-indexed tuples."""

    dims: Dims
    K: tuple
    W: tuple
    P: tuple
    E: tuple
    closed_loop_identity_residual: float
    _W_solvers: tuple

    def solve_W(self, k: int, rhs: np.ndarray) -> np.ndarray:
        return self._W_solvers[k].solve(rhs)


def _stage_step(k: int, st, K_next: np.ndarray, check):
    """(fact, G, P, K): fact factorizes W = R + B' K_next B and goes to the
    caller's typed ``check(k, fact)`` before use; G = B' K_next A + S,
    P = -W^{-1} G, and K = sym(Q + A' K_next A + G' P) is the next matrix of
    both recursions (``convexify`` subtracts its shift from it)."""
    BK = st.B.T @ K_next
    fact = SymSolve(st.R + BK @ st.B)
    check(k, fact)
    G = BK @ st.A + st.S
    P = -fact.solve(G)
    return fact, G, P, symmetrize(st.Q + st.A.T @ K_next @ st.A + G.T @ P)


def backward_pass(qdp: QdpProblem) -> RiccatiSolution:
    """Run the cost-to-go recursion K_N = QN down to K_0.

    Every W_k must clear W_MIN_EIG times its largest |eigenvalue|; that is
    guaranteed for transformed problems and holds for the original one
    whenever the reduced curvature bound is positive. The recursion also
    records the worst per-entry residual of the closed-loop identity
    K_k = E_k' K_{k+1} E_k + [I P_k']' H_k [I; P_k] as a cheap invariant.
    """
    dims = qdp.dims
    K = [None] * (dims.N + 1)
    P, solvers = [None] * dims.N, [None] * dims.N
    K[dims.N] = qdp.terminal_Q.copy()

    def check_W(k: int, fact: SymSolve) -> None:
        if fact.min_eig <= W_MIN_EIG * fact.max_abs_eig:
            raise IndefiniteW(k, fact.min_eig)

    for k in range(dims.N - 1, -1, -1):
        solvers[k], _, P[k], K[k] = _stage_step(k, qdp.stages[k], K[k + 1], check_W)

    blocks = qdp.blocks
    P_stack, K_stack = np.array(P), np.array(K)
    E = blocks["A"] + blocks["B"] @ P_stack
    basis = np.concatenate([np.broadcast_to(np.eye(dims.nx), (dims.N, dims.nx, dims.nx)), P_stack], axis=1)
    rebuilt = (np.swapaxes(E, 1, 2) @ K_stack[1:] @ E
               + np.swapaxes(basis, 1, 2) @ qdp.stage_hessians() @ basis)
    worst = max(inf_norm(K_stack[:-1] - rebuilt), asymmetry(K_stack[:-1]))
    return RiccatiSolution(
        dims=dims,
        K=tuple(K),
        W=tuple(fact.mat for fact in solvers),
        P=tuple(P),
        E=tuple(E),
        closed_loop_identity_residual=worst,
        _W_solvers=tuple(solvers),
    )


def _influence_sweep(rs: RiccatiSolution, qdp: QdpProblem, lst: np.ndarray) -> tuple:
    """(s, CL, KCL) for direction blocks lst (N, nd, m): the accumulators s_0..s_N,
    shape (N + 1, nx, m), and the stacks C_k L_k and K_{k+1} C_k L_k, (N, nx, m)
    each, which the forward roll reuses. Only the accumulation is a loop."""
    dims = qdp.dims
    blocks = qdp.blocks
    cl = blocks["C"] @ lst
    kcl = np.array(rs.K[1:]) @ cl
    source = np.swapaxes(blocks["D1"] + blocks["D2"] @ np.array(rs.P), 1, 2) @ lst
    s = np.zeros((dims.N + 1, dims.nx, lst.shape[2]))
    for k in range(dims.N - 1, -1, -1):
        s[k] = rs.E[k].T @ (s[k + 1] - kcl[k]) - source[k]
    return s, cl, kcl


def forward_solve_block(rs: RiccatiSolution, qdp: QdpProblem, L: np.ndarray) -> np.ndarray:
    """Stacked minimizers (p_0; q_0; ...; p_N) for every row of L, shape (m, n_z).

    L holds one dense direction (l_{-1}; l_0; ...; l_{N-1}) per row. States
    come from rolling the dynamics under the optimal controls, so every row
    is feasible by construction. The control drives and their W_k solves are
    formed before the roll, which carries only the states.
    """
    dims = qdp.dims
    N, nx, nu = dims.N, dims.nx, dims.nu
    m = L.shape[0]
    lst = np.ascontiguousarray(L[:, nx:].reshape(m, N, dims.nd).transpose(1, 2, 0))
    s, cl, kcl = _influence_sweep(rs, qdp, lst)
    A, B, D2 = qdp.blocks["A"], qdp.blocks["B"], qdp.blocks["D2"]
    drive = np.swapaxes(B, 1, 2) @ (s[1:] - kcl) - np.swapaxes(D2, 1, 2) @ lst
    feedforward = [rs.solve_W(k, rhs) for k, rhs in enumerate(drive)]
    states = np.empty((N + 1, nx, m))
    controls = np.empty((N, nu, m))
    states[0] = L[:, :nx].T
    for k in range(N):
        controls[k] = rs.P[k] @ states[k] + feedforward[k]
        states[k + 1] = A[k] @ states[k] + B[k] @ controls[k] + cl[k]
    body = np.concatenate([states[:N], controls], axis=1).reshape(N * (nx + nu), m)
    return np.ascontiguousarray(np.concatenate([body, states[N]]).T)


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
          - | (D2_j' + B_j' K_{j+1} C_j) l_j - B_j' s_{j+1} |^2_{W_j^{-1}}
    and vanishes whenever all direction blocks from stage k on are zero.
    """
    dims = qdp.dims
    if not 0 <= k <= dims.N:
        raise ValidationError(f"stage {k} outside [0, {dims.N}]")
    if k == dims.N:
        return CostToGo(rs.K[dims.N].copy(), np.zeros(dims.nx), 0.0)
    _, l_stages = _direction_parts(l, dims)
    s = _influence_sweep(rs, qdp, l_stages[:, :, None])[0][:, :, 0]
    constant = 0.0
    for j in range(dims.N - 1, k - 1, -1):
        st = qdp.stages[j]
        lj = l_stages[j]
        cl = st.C @ lj
        tprime = constant + cl @ rs.K[j + 1] @ cl - 2.0 * s[j + 1] @ cl
        v = st.D2.T @ lj + st.B.T @ (rs.K[j + 1] @ cl) - st.B.T @ s[j + 1]
        constant = tprime - float(v @ rs.solve_W(j, v))
    return CostToGo(rs.K[k].copy(), -2.0 * s[k], constant)


def cost_to_go(rs: RiccatiSolution, qdp: QdpProblem, l, k: int, p_k) -> float:
    """Optimal tail cost from stage k started at state p_k."""
    return cost_to_go_terms(rs, qdp, l, k).value(p_k)
