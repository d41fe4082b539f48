"""Constraint Jacobian assembly, orthonormal kernel bases, curvature bounds.

The equality constraints of a stagewise program stack into a staircase
Jacobian G acting on the stage-ordered vector (p_0; q_0; ...; p_N): the
first block row pins p_0 and block row k encodes
p_{k+1} - A_k p_k - B_k q_k = C_k l_k. The trailing identity in every block
row makes G full row rank by construction, so an orthonormal kernel basis Z
always exists and the reduced curvature bound gamma = lambda_min(Z' H Z) is
well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import inf_norm, sym_min_eig
from .exceptions import ValidationError
from .model import Dims, QdpProblem, _direction_parts, place_stage_blocks

RANK_TOL = 1e-10


def staircase_jacobian(dims: Dims, A_blocks, B_blocks) -> np.ndarray:
    """Dense constraint Jacobian from dynamics Jacobians (stacks or sequences of N blocks)."""
    nx, width = dims.nx, dims.nx + dims.nu
    G = np.zeros((dims.n_con, dims.n_z))
    place_stage_blocks(G, np.broadcast_to(np.eye(nx), (dims.N + 1, nx, nx)), nx, width)
    place_stage_blocks(G, -np.asarray(A_blocks, dtype=float), nx, width, row=nx)
    return place_stage_blocks(G, -np.asarray(B_blocks, dtype=float), nx, width, row=nx, col=nx)


@dataclass(frozen=True)
class ConstraintSystem:
    """Jacobian G and right-hand side y of G w = y for a fixed direction."""

    dims: Dims
    G: np.ndarray
    y: np.ndarray

    def residual(self, w) -> float:
        return inf_norm(self.G @ np.asarray(w, dtype=float) - self.y)


@dataclass(frozen=True)
class NullspaceBasis:
    """Orthonormal columns spanning the kernel of the constraint Jacobian."""

    Z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Z", np.asarray(self.Z, dtype=float))


def assemble_constraints(qdp: QdpProblem, l) -> ConstraintSystem:
    """Build G and the direction-dependent right-hand side y.

    y carries l_{-1} in the initial block and C_k l_k in block k. The full
    row rank implied by the staircase is checked where a kernel basis is
    built (``nullspace_basis``).
    """
    dims = qdp.dims
    G = staircase_jacobian(dims, qdp.blocks["A"], qdp.blocks["B"])
    l_minus1, l_stages = _direction_parts(l, dims)
    y = np.concatenate([l_minus1, (qdp.blocks["C"] @ l_stages[:, :, None]).reshape(-1)])
    return ConstraintSystem(dims=dims, G=G, y=y)


def nullspace_basis(cs: ConstraintSystem) -> NullspaceBasis:
    """Orthonormal kernel basis from a pivoted QR factorization of G'.

    The trailing orthogonal columns beyond the row space of G span the
    kernel exactly; rank deficiency cannot occur for staircase inputs and is
    reported as an error if the factorization disagrees.
    """
    G = cs.G
    m = G.shape[0]
    Qfac, Rfac, _ = scipy.linalg.qr(G.T, mode="full", pivoting=True)
    diag = np.abs(np.diag(Rfac[:m, :m]))
    if diag.min() <= RANK_TOL * max(1.0, diag.max()):
        raise ValidationError(
            "rank-revealing factorization found a deficient constraint Jacobian"
        )
    Z = Qfac[:, m:]
    basis = NullspaceBasis(Z=Z)
    gz = inf_norm(G @ Z)
    orth = inf_norm(Z.T @ Z - np.eye(Z.shape[1]))
    if gz > 1e-10 or orth > 1e-10:
        raise ValidationError(
            f"kernel basis failed residual checks (|GZ| = {gz:.3e}, "
            f"|Z'Z - I| = {orth:.3e})"
        )
    return basis


def reduced_hessian_gamma(qdp: QdpProblem) -> float:
    """Smallest eigenvalue of Z' H Z with orthonormal Z.

    A positive value certifies the second-order sufficient condition for
    this horizon; zero or negative values are valid diagnostics.
    """
    zero_dir = np.zeros(qdp.dims.n_dir)
    Z = nullspace_basis(assemble_constraints(qdp, zero_dir)).Z
    H = qdp.full_hessian()
    return sym_min_eig(Z.T @ H @ Z)
