"""Stagewise problem data: nonlinear models, quadratic stage blocks, trajectories.

A stagewise quadratic program ("QDP") over states p_0..p_N and controls
q_0..q_{N-1} is stored as dense per-stage blocks, kept as one read-only
stack over the stages per block name,

    cost   sum_k [p_k; q_k; l_k]' [[Q_k, S_k', D1_k'],
                                   [S_k, R_k, D2_k'],
                                   [D1_k, D2_k, 0  ]] [p_k; q_k; l_k]
           + p_N' QN p_N,
    s.t.   p_{k+1} = A_k p_k + B_k q_k + C_k l_k,      p_0 = l_{-1},

where l = (l_{-1}; l_0; ...; l_{N-1}) is an exogenous direction vector.
Blocks come either from user data or from linearizing a nonlinear model at a
base primal-dual point: Q, S, R and the cross blocks D1, D2 are second
derivatives of the stage Lagrangian, and A, B, C are dynamics Jacobians.

All containers are immutable after construction and every operation is a
pure function of its inputs, so concurrent use is safe.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from ._linalg import asymmetry, max_operator_norm, symmetrize
from .exceptions import MultiplierRecoveryError, ValidationError

SYMMETRY_TOL = 1e-10

Array = np.ndarray


def _freeze(arr: Array) -> Array:
    arr.setflags(write=False)
    return arr


def _as_float_array(value, name: str) -> Array:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a numeric array ({exc})") from exc


def as_matrix(value, rows: int, cols: int, name: str) -> Array:
    """Validate and copy a dense (rows, cols) float matrix."""
    mat = _as_float_array(value, name)
    if mat.shape != (rows, cols):
        raise ValidationError(
            f"{name}: expected shape {(rows, cols)}, got {mat.shape}"
        )
    if not np.all(np.isfinite(mat)):
        raise ValidationError(f"{name}: non-finite entries")
    return _freeze(mat)


def as_vector(value, size: int, name: str) -> Array:
    vec = _as_float_array(value, name).reshape(-1)
    if vec.shape != (size,):
        raise ValidationError(f"{name}: expected length {size}, got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name}: non-finite entries")
    return _freeze(vec)


def as_symmetric(value, size: int, name: str) -> Array:
    """Validate a square block that must be symmetric; symmetrize roundoff.

    Asymmetry beyond SYMMETRY_TOL signals a modeling bug and is rejected
    rather than silently averaged away.
    """
    mat = as_matrix(value, size, size, name)
    skew = asymmetry(mat)
    if skew > SYMMETRY_TOL:
        raise ValidationError(
            f"{name}: asymmetry {skew:.3e} exceeds tolerance {SYMMETRY_TOL:g}"
        )
    return _freeze(symmetrize(mat))


@dataclass(frozen=True)
class Dims:
    """Horizon length and per-stage dimensions."""

    N: int
    nx: int
    nu: int
    nd: int

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"N must be >= 1, got {self.N}")
        for name in ("nx", "nu", "nd"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")

    @property
    def n_z(self) -> int:
        """Length of the stage-ordered primal vector (p_0; q_0; ...; p_N)."""
        return (self.N + 1) * self.nx + self.N * self.nu

    @property
    def n_con(self) -> int:
        """Number of equality constraints (initial block plus dynamics)."""
        return (self.N + 1) * self.nx

    @property
    def n_dir(self) -> int:
        """Length of a direction vector (l_{-1}; l_0; ...; l_{N-1})."""
        return self.nx + self.N * self.nd


@dataclass(frozen=True)
class QdpStage:
    """Blocks of one stage: read-only views into the QdpProblem block stacks."""

    Q: Array
    R: Array
    S: Array
    D1: Array
    D2: Array
    A: Array
    B: Array
    C: Array


def _block_shapes(dims: Dims) -> dict:
    """Shape of every stage block, in validation order (also the field order of QdpStage)."""
    nx, nu, nd = dims.nx, dims.nu, dims.nd
    return {"Q": (nx, nx), "R": (nu, nu), "S": (nu, nx), "D1": (nd, nx), "D2": (nd, nu),
            "A": (nx, nx), "B": (nx, nu), "C": (nx, nd)}


_SYMMETRIC_BLOCKS = ("Q", "R")


def _raise_first_invalid(dims: Dims, stages) -> None:
    """Validate block by block, stage-major, so the error names the first bad block."""
    for k, blocks in enumerate(stages):
        for name, (rows, cols) in _block_shapes(dims).items():
            if name in _SYMMETRIC_BLOCKS:
                as_symmetric(blocks[name], rows, f"{name}[{k}]")
            else:
                as_matrix(blocks[name], rows, cols, f"{name}[{k}]")
    raise ValidationError("stage blocks failed validation")


def _stack_blocks(dims: Dims, stages) -> dict:
    """One read-only (N, rows, cols) stack per block name, validated and symmetrized at once."""
    shapes = _block_shapes(dims)
    try:
        stacks = {name: np.array([blocks[name] for blocks in stages], dtype=float)
                  for name in shapes}
        valid = (all(stacks[name].shape == (dims.N, *shape) and np.isfinite(stacks[name]).all()
                     for name, shape in shapes.items())
                 and all(asymmetry(stacks[name]) <= SYMMETRY_TOL for name in _SYMMETRIC_BLOCKS))
    except (KeyError, TypeError, ValueError):
        valid = False
    if not valid:
        _raise_first_invalid(dims, stages)
    for name in _SYMMETRIC_BLOCKS:
        stacks[name] = symmetrize(stacks[name])
    return {name: _freeze(stack) for name, stack in stacks.items()}


def place_stage_blocks(out: Array, blocks: Array, row_step: int, col_step: int,
                       row: int = 0, col: int = 0) -> Array:
    """Write block k of an (n, r, c) stack at out[row + k row_step:, col + k col_step:], all k at once.

    Every dense stagewise matrix is such strided stacks of stage blocks: the
    block-diagonal Hessian, the staircase Jacobian and the lifted cross term.
    Values are copied, never combined. Returns out.
    """
    n, r, c = blocks.shape
    k = np.arange(n)[:, None, None]
    out[row + k * row_step + np.arange(r)[:, None], col + k * col_step + np.arange(c)] = blocks
    return out


def stagewise_hessian(stage_hessians: Array, terminal_Q: Array) -> Array:
    """Hessian over (p_0, q_0, ..., p_N): the (N, nx + nu, nx + nu) stack on the diagonal, then terminal_Q."""
    N, width, _ = stage_hessians.shape
    body = N * width
    size = body + terminal_Q.shape[0]
    out = place_stage_blocks(np.zeros((size, size)), stage_hessians, width, width)
    out[body:, body:] = terminal_Q
    return out


def _stage_hessians(Q: Array, R: Array, S: Array) -> Array:
    """[[Q, S'], [S, R]] for one stage or, on stacks, for every stage at once."""
    nx = Q.shape[-1]
    width = nx + R.shape[-1]
    out = np.empty(Q.shape[:-2] + (width, width))
    out[..., :nx, :nx] = Q
    out[..., :nx, nx:] = np.swapaxes(S, -1, -2)
    out[..., nx:, :nx] = S
    out[..., nx:, nx:] = R
    return out


class QdpProblem:
    """Dense stagewise quadratic program data with enforced symmetry.

    Each block name is stored once as a read-only stack over the stages
    (``blocks``); ``stages[k]`` holds views into those stacks.
    """

    def __init__(self, dims: Dims, stages: Sequence, terminal_Q):
        if len(stages) != dims.N:
            raise ValidationError(
                f"expected {dims.N} stages, got {len(stages)}"
            )
        self.dims = dims
        stages = [blocks.__dict__ if isinstance(blocks, QdpStage) else blocks for blocks in stages]
        self._blocks = _stack_blocks(dims, stages)
        self.stages = tuple(map(QdpStage, *self._blocks.values()))
        self.terminal_Q = as_symmetric(terminal_Q, dims.nx, "terminal_Q")

    @classmethod
    def _from_stacks(cls, dims: Dims, stacks: dict, terminal_Q) -> "QdpProblem":
        """The same read-only, Q- and R-symmetrized stacks the constructor builds, from
        (N, rows, cols) stacks the package computed itself, without the per-stage round trip."""
        self = cls.__new__(cls)
        self.dims = dims
        blocks = {name: np.array(stacks[name], dtype=float) for name in _block_shapes(dims)}
        for name in _SYMMETRIC_BLOCKS:
            blocks[name] = symmetrize(blocks[name])
        self._blocks = {name: _freeze(stack) for name, stack in blocks.items()}
        self.stages = tuple(map(QdpStage, *self._blocks.values()))
        self.terminal_Q = as_symmetric(terminal_Q, dims.nx, "terminal_Q")
        return self

    @property
    def blocks(self) -> MappingProxyType:
        """Read-only mapping from block name (Q, R, S, D1, D2, A, B, C) to its (N, rows, cols) stack."""
        return MappingProxyType(self._blocks)

    @classmethod
    def constant(cls, dims: Dims, *, Q, R, S, D1, D2, A, B, C, terminal_Q) -> "QdpProblem":
        """Build a time-invariant problem from single blocks."""
        stage = {"Q": Q, "R": R, "S": S, "D1": D1, "D2": D2, "A": A, "B": B, "C": C}
        return cls(dims, [dict(stage) for _ in range(dims.N)], terminal_Q)

    def stage_hessians(self) -> Array:
        """Stage Hessians [[Q_k, S_k'], [S_k, R_k]] as one (N, nx + nu, nx + nu) stack."""
        return _stage_hessians(self._blocks["Q"], self._blocks["R"], self._blocks["S"])

    def stage_hessian(self, k: int) -> Array:
        if k == self.dims.N:
            return self.terminal_Q.copy()
        st = self.stages[k]
        return _stage_hessians(st.Q, st.R, st.S)

    def full_hessian(self) -> Array:
        """Block-diagonal Hessian over (p_0, q_0, ..., p_N), shape (n_z, n_z)."""
        return stagewise_hessian(self.stage_hessians(), self.terminal_Q)

    def lifted_cross(self) -> Array:
        """Cross-term matrix mapping the primal vector to stage directions.

        Row block k holds (D1_k, D2_k) on the (p_k, q_k) coordinates, so
        that l_stages . (lifted_cross() @ w) equals the stagewise cross term
        of the objective. The initial block of l has no cross term.
        """
        dims = self.dims
        width = dims.nx + dims.nu
        out = np.zeros((dims.N * dims.nd, dims.n_z))
        place_stage_blocks(out, self._blocks["D1"], dims.nd, width)
        return place_stage_blocks(out, self._blocks["D2"], dims.nd, width, col=dims.nx)

    def max_block_norm(self) -> float:
        """Largest spectral norm over all stored blocks (data bound)."""
        return max(max_operator_norm(stack) for stack in [[self.terminal_Q], *self._blocks.values()])

    def to_json_dict(self) -> dict:
        def rows(mat):
            return [list(map(float, r)) for r in np.asarray(mat)]

        return {
            "dims": {
                "N": self.dims.N,
                "nx": self.dims.nx,
                "nu": self.dims.nu,
                "nd": self.dims.nd,
            },
            "stages": [
                {
                    "Q": rows(st.Q),
                    "R": rows(st.R),
                    "S": rows(st.S),
                    "A": rows(st.A),
                    "B": rows(st.B),
                    "C": rows(st.C),
                    "D1": rows(st.D1),
                    "D2": rows(st.D2),
                }
                for st in self.stages
            ],
            "terminal_Q": rows(self.terminal_Q),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QdpProblem":
        try:
            dd = data["dims"]
            sizes = {name: dd[name] for name in ("N", "nx", "nu", "nd")}
            stages = data["stages"]
            terminal = data["terminal_Q"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed problem JSON: missing field {exc}") from exc
        return cls(Dims(**{name: _json_dim(name, size) for name, size in sizes.items()}), stages, terminal)


def _json_dim(name: str, value) -> int:
    """A dimension read from JSON: an int, or a float with no fractional part (3.0), never a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"dims: {name} is not an integer ({value!r})")


def save_qdp(qdp: QdpProblem, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(qdp.to_json_dict(), fh, indent=1)


def load_qdp(path) -> QdpProblem:
    import json

    with open(path) as fh:
        data = json.load(fh)
    return QdpProblem.from_json_dict(data)


@dataclass(frozen=True)
class Trajectory:
    """States p_0..p_N and controls q_0..q_{N-1}, stored row-per-stage."""

    states: Array
    controls: Array

    def __post_init__(self):
        states = np.array(self.states, dtype=float)
        controls = np.array(self.controls, dtype=float)
        if states.ndim != 2 or controls.ndim != 2:
            raise ValidationError("states and controls must be 2-D arrays")
        if states.shape[0] != controls.shape[0] + 1:
            raise ValidationError(
                f"got {states.shape[0]} states for {controls.shape[0]} controls"
            )
        object.__setattr__(self, "states", _freeze(states))
        object.__setattr__(self, "controls", _freeze(controls))

    @classmethod
    def zeros(cls, dims: Dims) -> "Trajectory":
        return cls(np.zeros((dims.N + 1, dims.nx)), np.zeros((dims.N, dims.nu)))

    @classmethod
    def from_stacked(cls, dims: Dims, w) -> "Trajectory":
        w = as_vector(w, dims.n_z, "stacked trajectory")
        body = w[:dims.N * (dims.nx + dims.nu)].reshape(dims.N, dims.nx + dims.nu)
        return cls(np.vstack([body[:, :dims.nx], w[None, -dims.nx:]]), body[:, dims.nx:])

    def stacked(self) -> Array:
        """Stage-ordered vector (p_0; q_0; ...; p_{N-1}; q_{N-1}; p_N)."""
        body = np.hstack([self.states[:-1], self.controls])
        return np.concatenate([body.reshape(-1), self.states[-1]])

    def state_norms(self) -> Array:
        return np.linalg.norm(self.states, axis=1)

    def control_norms(self) -> Array:
        return np.linalg.norm(self.controls, axis=1)


def _adjoint(E: Array, drive: Array, s_N: Array) -> Array:
    """The backward adjoint s_k = drive_k + E_k' s_{k+1} from s_N, as the (N + 1, ...) stack
    s_0, ..., s_N; s_N is one vector or one block of columns."""
    s = [s_N]
    for E_t_k, drive_k in zip(np.swapaxes(E, 1, 2)[::-1], drive[::-1]):
        s.append(drive_k + E_t_k @ s[-1])
    return np.array(s[::-1])


def _roll(E: Array, P: Array, feedforward: Array, push: Array, p_0: Array) -> Array:
    """The roll p_{k+1} = E_k p_k + push_k from p_0, with q_k = P_k p_k + feedforward_k
    formed after the loop: the stacked (p_0; q_0; ...; p_N) of every column of a
    block p_0 as the rows of an (m, n_z) array, or one vector for a vector p_0."""
    (N, nu, nx), columns = P.shape, np.shape(p_0)[1:]
    p = [p_0]
    for E_k, push_k in zip(E, push):
        p.append(E_k @ p[-1] + push_k)
    m = columns[0] if columns else 1
    p = np.array(p).reshape(N + 1, nx, m)
    q = P @ p[:N] + feedforward.reshape(N, nu, m)
    body = np.concatenate([p[:N], q], axis=1).reshape(N * (nx + nu), m)
    rows = np.ascontiguousarray(np.concatenate([body, p[N]]).T)
    return rows if columns else rows[0]


def eval_qdp_objective(qdp: QdpProblem, l, w: Trajectory) -> float:
    """Stagewise objective value at trajectory w for direction l.

    The direction's own quadratic block is zero by convention, so the value
    equals the dense form w' H w + 2 l' D w.
    """
    dims = qdp.dims
    if w.states.shape != (dims.N + 1, dims.nx) or w.controls.shape != (dims.N, dims.nu):
        raise ValidationError("trajectory shape inconsistent with problem dims")
    l_stages = _direction_parts(l, dims)[1]
    total = 0.0
    for k, st in enumerate(qdp.stages):
        p, q, lk = w.states[k], w.controls[k], l_stages[k]
        total += p @ st.Q @ p + q @ st.R @ q + 2.0 * (q @ st.S @ p)
        total += 2.0 * (lk @ st.D1 @ p) + 2.0 * (lk @ st.D2 @ q)
    pN = w.states[dims.N]
    return float(total + pN @ qdp.terminal_Q @ pN)


def rollout_dynamics(qdp: QdpProblem, l, controls) -> Trajectory:
    """Propagate p_0 = l_{-1}, p_{k+1} = A_k p_k + B_k q_k + C_k l_k."""
    dims = qdp.dims
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (dims.N, dims.nu):
        raise ValidationError(
            f"controls: expected shape {(dims.N, dims.nu)}, got {controls.shape}"
        )
    l_minus1, l_stages = _direction_parts(l, dims)
    states = np.empty((dims.N + 1, dims.nx))
    states[0] = l_minus1
    for k, st in enumerate(qdp.stages):
        states[k + 1] = st.A @ states[k] + st.B @ controls[k] + st.C @ l_stages[k]
    return Trajectory(states, controls)


def _direction_parts(l, dims: Dims):
    """Accept a PerturbationDirection or a dense (nx + N*nd,) vector."""
    if hasattr(l, "l_minus1") and hasattr(l, "l_stages"):
        return (as_vector(l.l_minus1, dims.nx, "direction block l_minus1"),
                as_matrix(l.l_stages, dims.N, dims.nd, "direction block l_stages"))
    vec = as_vector(l, dims.n_dir, "direction")
    return vec[:dims.nx], vec[dims.nx:].reshape(dims.N, dims.nd)


@dataclass(frozen=True)
class NldpModel:
    """A nonlinear stagewise program with user-supplied derivative evaluators.

    Evaluators receive plain 1-D arrays. ``lagrangian_hessian`` must return
    the second-derivative blocks (Q, S, R, D1, D2) of
    ``stage_cost(k, x, u, d) - lam_k . dynamics(k, x, u, d)`` with respect to
    (x, u, d); the terms linear in neighboring states contribute nothing.
    Models lacking analytic derivatives can be built with the
    finite-difference constructor in :mod:`qdpsens.verify`.
    """

    dims: Dims
    stage_cost: Callable
    terminal_cost: Callable
    dynamics: Callable
    stage_cost_grad: Callable
    terminal_cost_grad: Callable
    dynamics_jacobians: Callable
    lagrangian_hessian: Callable
    terminal_hessian: Callable
    d0: Array
    x0: Array
    u0: Array
    multipliers: Array | None = None

    def __post_init__(self):
        dims = self.dims
        object.__setattr__(self, "d0", as_vector(self.d0, dims.n_dir, "d0"))
        x0 = np.array(self.x0, dtype=float)
        u0 = np.array(self.u0, dtype=float)
        if x0.shape != (dims.N + 1, dims.nx):
            raise ValidationError(f"x0: expected {(dims.N + 1, dims.nx)}, got {x0.shape}")
        if u0.shape != (dims.N, dims.nu):
            raise ValidationError(f"u0: expected {(dims.N, dims.nu)}, got {u0.shape}")
        object.__setattr__(self, "x0", _freeze(x0))
        object.__setattr__(self, "u0", _freeze(u0))
        if self.multipliers is not None:
            lam = np.array(self.multipliers, dtype=float)
            if lam.shape != (dims.N + 1, dims.nx):
                raise ValidationError(
                    f"multipliers: expected {(dims.N + 1, dims.nx)}, got {lam.shape}"
                )
            object.__setattr__(self, "multipliers", _freeze(lam))

    def d_stage(self, k: int, d: Array | None = None) -> Array:
        d = self.d0 if d is None else d
        nx, nd = self.dims.nx, self.dims.nd
        return d[nx + k * nd: nx + (k + 1) * nd]

    def d_stages(self, d: Array | None = None) -> Array:
        """Every stage reference d_0, ..., d_{N-1} as the rows of one (N, nd) reshape."""
        d = self.d0 if d is None else d
        return d[self.dims.nx:].reshape(self.dims.N, self.dims.nd)

    def base_trajectory(self) -> Trajectory:
        return Trajectory(self.x0, self.u0)

    def with_reference(self, d_new) -> "NldpModel":
        """Same model with a replaced reference vector."""
        from dataclasses import replace

        return replace(self, d0=as_vector(d_new, self.dims.n_dir, "d0"))


def cost_gradient_vector(model: NldpModel, x: Array, u: Array, d: Array) -> Array:
    """Stage-ordered gradient of the summed cost at (x, u) for reference d."""
    dims = model.dims
    grads = [model.stage_cost_grad(k, x[k], u[k], d_k) for k, d_k in enumerate(model.d_stages(d))]
    gx, gu = (np.array(parts, dtype=float).reshape(dims.N, -1) for parts in zip(*grads))
    terminal = np.asarray(model.terminal_cost_grad(x[dims.N]), dtype=float).reshape(-1)
    return np.concatenate([np.concatenate([gx, gu], axis=1).reshape(-1), terminal])


def _jacobian_stacks(model: NldpModel, x: Array, u: Array, d: Array) -> tuple:
    """Dynamics Jacobians (A, B, C) at (x, u; d) as three (N, nx, ·) stacks."""
    jacs = [model.dynamics_jacobians(k, x[k], u[k], d_k) for k, d_k in enumerate(model.d_stages(d))]
    return tuple(np.array(blocks, dtype=float) for blocks in zip(*jacs))


def recover_multipliers(model: NldpModel) -> Array:
    """Multipliers from stationarity at the base point, by the adjoint recursion.

    The state rows of G' lam + grad_cost = 0 give lam_N = -g_{x_N} and
    lam_k = A_k' lam_{k+1} - g_{x_k} for k = N-1, ..., 0. The control rows
    g_{u_k} - B_k' lam_{k+1} are then what is left; a residual above 1e-6
    there means the base point is not a stationary point of the model.
    """
    dims = model.dims
    N, nx = dims.N, dims.nx
    A, B, _ = _jacobian_stacks(model, model.x0, model.u0, model.d0)
    grad = cost_gradient_vector(model, model.x0, model.u0, model.d0)
    body = grad[:-nx].reshape(N, nx + dims.nu)
    lam = _adjoint(A, -body[:, :nx], -grad[-nx:])
    residual = float(np.max(np.abs(body[:, nx:] - np.einsum("kij,ki->kj", B, lam[1:]))))
    if residual > 1e-6:
        raise MultiplierRecoveryError(residual)
    return lam


def assemble_qdp_from_nldp(model: NldpModel) -> QdpProblem:
    """Linearize a nonlinear model at its base primal-dual point.

    The blocks are the exact second derivatives of the stage Lagrangians and
    the dynamics Jacobians, all evaluated at (x0, u0, multipliers; d0). When
    multipliers are not supplied they are recovered from stationarity
    (``recover_multipliers``).
    """
    dims = model.dims
    lam = model.multipliers
    if lam is None:
        lam = recover_multipliers(model)
    stages = []
    for k in range(dims.N):
        x, u, d = model.x0[k], model.u0[k], model.d_stage(k)
        Q, S, R, D1, D2 = model.lagrangian_hessian(k, x, u, d, lam[k + 1])
        A, B, C = model.dynamics_jacobians(k, x, u, d)
        stages.append({"Q": Q, "S": S, "R": R, "D1": D1, "D2": D2, "A": A, "B": B, "C": C})
    terminal_Q = model.terminal_hessian(model.x0[dims.N])
    return QdpProblem(dims, stages, terminal_Q)
