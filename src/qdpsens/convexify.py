"""Constraint-preserving convexification of indefinite stagewise programs.

The transformation subtracts a quadratic x' Qbar_k x from each stage cost
and adds it back one stage later through the dynamics, which leaves the
constrained minimizer unchanged while reshaping the stage Hessians. The
backward recursion picks Qbar so every transformed control block Rt_k can
absorb all cross curvature, pinning the Schur complement of Rt_k inside the
transformed stage Hessian to delta * I:

    Qt_N = delta I,  Qbar_N = Q_N - delta I,
    and for k = N-1, ..., 0:
        Qhat_k  = Q_k  + A_k' Qbar_{k+1} A_k
        St_k    = S_k  + B_k' Qbar_{k+1} A_k
        Rt_k    = R_k  + B_k' Qbar_{k+1} B_k
        Dt1_k   = D1_k + C_k' Qbar_{k+1} A_k
        Dt2_k   = D2_k + C_k' Qbar_{k+1} B_k
        Qt_k    = St_k' Rt_k^{-1} St_k + delta I
        Qbar_k  = Qhat_k - Qt_k

For any shift delta strictly between zero and the reduced-curvature bound
gamma, every Rt_k and every transformed stage Hessian is positive definite.
The recursion is the stage kernel ``riccati._sweep`` run on the stage
Hessians with Q_k replaced by Q_k - delta I, from K_N = Q_N - delta I: Rt_k
is its W_k, St_k its G_k, Qbar_k its K_k, and Rt_k^{-1} St_k its X_k. The
solve is LAPACK ``sysv`` (symmetric indefinite), since at delta = 0 an
invertible but indefinite Rt_k is accepted. Invertibility and, for
delta > 0, definiteness are checked after the loop on the kernel's
eigenvalues. The Qt_k are formed from the St and X stacks after the loop.
The quadratic-in-l constant block produced by the update is not stored; it
moves no minimizer. Where a reported objective difference needs it (the
equivalence cross-check in ``verify``), ``direction_constant`` rebuilds it
from Qbar. The transformed program is stored once, as the ``QdpProblem``
that ``ConvexifiedQdp.as_qdp`` returns: Qt, Rt, St, Dt1, Dt2 in place of
Q, R, S, D1, D2, the source's A, B, C stacks, and delta I as terminal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy.linalg import lapack

from ._linalg import max_operator_norm, symmetrize
from .exceptions import (
    NonInvertibleRtilde,
    NotPositiveDefinite,
    ValidationError,
)
from .model import Dims, QdpProblem, _direction_parts, _freeze
from .riccati import _sweep

INVERTIBILITY_TOL = 1e-12

_SYSV = lapack.dsysv


@dataclass(frozen=True)
class ConvexifiedQdp:
    """Output of the shifting recursion: the transformed program, stored once as a
    ``QdpProblem`` (dynamics unchanged, terminal block delta I), plus the shifts
    Qbar_0..Qbar_N as one read-only (N + 1, nx, nx) stack."""

    dims: Dims
    delta: float
    Qbar: np.ndarray
    semidefinite: bool
    _qdp: QdpProblem

    def as_qdp(self) -> QdpProblem:
        """The transformed blocks as a plain stagewise program (dynamics unchanged)."""
        return self._qdp

    def direction_constant(self, l) -> float:
        """Quadratic-in-l constant dropped from the stored stage blocks.

        Equals sum_k l_k' C_k' Qbar_{k+1} C_k l_k, the corner block of the
        bordered update.
        """
        _, l_stages = _direction_parts(l, self.dims)
        v = self._qdp.blocks["C"] @ l_stages[:, :, None]
        return float(np.sum(np.swapaxes(v, 1, 2) @ self.Qbar[1:] @ v))

    def max_block_norm(self) -> float:
        """Largest spectral norm over transformed cost blocks."""
        blocks = self._qdp.blocks
        return max(max_operator_norm(stack) for stack in
                   [[self._qdp.terminal_Q], *(blocks[name] for name in ("Q", "R", "S", "D1", "D2"))])

    def to_json_dict(self) -> dict:
        data = self.as_qdp().to_json_dict()
        data["delta"] = float(self.delta)
        data["Qbar"] = [[list(map(float, r)) for r in np.asarray(q)] for q in self.Qbar]
        return data


def convexify(qdp: QdpProblem, delta: float) -> ConvexifiedQdp:
    """Run the shifting recursion with a fixed shift parameter.

    delta = 0 is allowed (the output Hessians are then only positive
    semidefinite and the result is flagged accordingly); any invertible
    (|eig|_min above INVERTIBILITY_TOL |eig|_max) but indefinite Rt_k at
    delta = 0 is tolerated, while for delta > 0 a negative Rt eigenvalue is
    an error because the positive-definiteness guarantee has been lost.
    """
    if delta < 0:
        raise ValidationError(f"shift parameter must be >= 0, got {delta}")
    dims = qdp.dims
    nx = dims.nx
    blocks = qdp.blocks
    shift = delta * np.eye(nx)
    H = qdp.stage_hessians()
    H[:, :nx, :nx] -= shift
    AB = np.concatenate([blocks["A"], blocks["B"]], axis=2)
    F, qbar, X, stop, eigs = _sweep(H, AB, qdp.terminal_Q - shift, _SYSV)
    magnitude = np.abs(eigs)
    min_abs = magnitude.min(axis=1)
    floor = INVERTIBILITY_TOL * magnitude.max(axis=1)
    singular = min_abs <= floor
    if stop is not None:
        singular[0] = True
    failed = np.flatnonzero(singular | ((delta > 0) & (eigs[:, 0] < 0)))
    if failed.size:
        j = failed[-1]
        k = (stop or 0) + int(j)
        if singular[j]:
            raise NonInvertibleRtilde(k, float(min_abs[j]), float(floor[j]))
        raise NotPositiveDefinite(k, float(eigs[j, 0]))

    St = F[:, nx:, :nx]
    Qt = symmetrize(np.swapaxes(St, 1, 2) @ X) + shift
    qbar = _freeze(qbar)
    C_qbar = np.swapaxes(blocks["C"], 1, 2) @ qbar[1:]
    Dt1 = blocks["D1"] + C_qbar @ blocks["A"]
    Dt2 = blocks["D2"] + C_qbar @ blocks["B"]
    conv_qdp = QdpProblem._from_stacks(dims, {**blocks, "Q": Qt, "R": F[:, nx:, nx:], "S": St,
                                               "D1": Dt1, "D2": Dt2}, shift)
    return ConvexifiedQdp(dims=dims, delta=float(delta), Qbar=qbar, semidefinite=(delta == 0.0), _qdp=conv_qdp)


def shifted_problem(qdp: QdpProblem, delta: float) -> QdpProblem:
    """Replace every state cost block, terminal included, by Q_k - delta I."""
    shift = delta * np.eye(qdp.dims.nx)
    blocks = qdp.blocks
    return QdpProblem._from_stacks(qdp.dims, {**blocks, "Q": blocks["Q"] - shift}, qdp.terminal_Q - shift)
