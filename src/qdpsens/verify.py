"""Independent oracles: dense saddle solves, the equivalence check, closed-form
state maps, explicit reachability windows, Newton iteration, derivative checks.

Everything here trades speed for transparency: saddle systems are assembled
densely and LU-factorized by one shared solve, state maps and reachability
windows are explicit products, Newton takes full steps with no
globalization, and derivative checks run central differences. Nothing here
imports the recursions it cross-checks; their results come in as arguments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import inf_norm, operator_norm, symmetrize
from .exceptions import SingularKkt, SolverDiverged, ValidationError
from .model import (
    Dims,
    NldpModel,
    QdpProblem,
    Trajectory,
    _direction_parts,
    _jacobian_stacks,
    _stage_hessians,
    cost_gradient_vector,
    eval_qdp_objective,
    recover_multipliers,
    stagewise_hessian,
)
from .nullspace import assemble_constraints, staircase_jacobian

STATIONARITY_TOL = 1e-8
FEASIBILITY_TOL = 1e-10

# First differences keep the classic 1e-5 scaled step. Second differences
# use a larger one: their roundoff grows like eps / h^2 (~1e-7 at h = 1e-5),
# while the truncation term vanishes for polynomials through cubic order, so
# 5e-4 buys ~1e-10 roundoff at no accuracy cost on smooth models.
FD_STEP = 1e-5
FD_HESS_STEP = 5e-4


def _saddle_solve(H: np.ndarray, G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve [[H, G'], [G, 0]] x = rhs by one dense LU factorization.

    A failed factorization, non-finite data and non-finite output all raise
    SingularKkt.
    """
    n, m = H.shape[0], G.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = H
    kkt[:n, n:] = G.T
    kkt[n:, :n] = G
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(kkt)
            sol = scipy.linalg.lu_solve((lu, piv), rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularKkt(f"saddle factorization failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularKkt("saddle solve produced non-finite values")
    return sol


@dataclass(frozen=True)
class KktSolution:
    """Primal-dual solution of the dense saddle system with its residuals."""

    trajectory: Trajectory
    multipliers: np.ndarray
    stationarity_residual: float
    feasibility_residual: float


def dense_kkt_solve(qdp: QdpProblem, l) -> KktSolution:
    """Solve the direction QP through one dense factorization.

    The system is [[2H, G'], [G, 0]] [w; lam] = [-2 Dlift' l; y] with H the
    block-diagonal stage Hessian and Dlift the stage cross blocks on primal
    coordinates (the initial direction block has no cross term). Works for
    indefinite H as long as the reduced Hessian is nonsingular.
    """
    dims = qdp.dims
    H = qdp.full_hessian()
    cs = assemble_constraints(qdp, l)
    _, l_stages = _direction_parts(l, dims)
    dlift = qdp.lifted_cross()
    lin = 2.0 * (dlift.T @ l_stages.reshape(-1))
    sol = _saddle_solve(2.0 * H, cs.G, np.concatenate([-lin, cs.y]))
    n = dims.n_z
    w, lam = sol[:n], sol[n:]
    stat_terms = 2.0 * (H @ w)
    stat = stat_terms + lin + cs.G.T @ lam
    stat_scale = 1.0 + inf_norm(stat_terms) + inf_norm(lin) + inf_norm(cs.G.T @ lam)
    stat_res = inf_norm(stat)
    feas_res = cs.residual(w)
    if stat_res > STATIONARITY_TOL * stat_scale or feas_res > FEASIBILITY_TOL * (1.0 + inf_norm(cs.y)):
        raise SingularKkt(
            f"saddle solve residuals too large (stationarity {stat_res:.3e}, "
            f"feasibility {feas_res:.3e}); reduced curvature likely singular"
        )
    return KktSolution(
        trajectory=Trajectory.from_stacked(dims, w),
        multipliers=lam,
        stationarity_residual=stat_res,
        feasibility_residual=feas_res,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Cross-check of the transformed problem against the original one."""

    primal_gap: float
    objective_offset: float
    expected_offset: float
    offset_error: float
    passed: bool


def verify_equivalence(fac, l) -> EquivalenceReport:
    """Check one ``sensitivity.Factorization`` against the dense oracle along l.

    The original indefinite program goes through the dense saddle-point
    oracle; the transformed one is read from the factorization (its
    trajectory from ``fac.trajectory(l)``, its shifts from ``fac.convexified``),
    so no recursion runs here. The two minimizers must agree, and the
    objective difference (with the dropped l-quadratic constant restored)
    must equal -l_{-1}' Qbar_0 l_{-1}.
    """
    qdp, conv = fac.problem, fac.convexified
    kkt = dense_kkt_solve(qdp, l)
    traj = fac.trajectory(l)

    w_kkt = kkt.trajectory.stacked()
    w_ric = traj.stacked()
    scale = max(1.0, inf_norm(w_kkt))
    primal_gap = inf_norm(w_ric - w_kkt) / scale

    obj_orig = eval_qdp_objective(qdp, l, kkt.trajectory)
    obj_conv = eval_qdp_objective(conv.as_qdp(), l, traj) + conv.direction_constant(l)
    offset = obj_conv - obj_orig

    l_minus1, _ = _direction_parts(l, qdp.dims)
    expected = -float(l_minus1 @ conv.Qbar[0] @ l_minus1)
    offset_scale = max(1.0, abs(obj_orig), abs(obj_conv))
    offset_error = abs(offset - expected) / offset_scale
    return EquivalenceReport(
        primal_gap=primal_gap,
        objective_offset=offset,
        expected_offset=expected,
        offset_error=offset_error,
        passed=bool(primal_gap <= 1e-8 and offset_error <= 1e-8),
    )


def _closed_loop_table(rs):
    """prod[a][b] = E_b E_{b-1} ... E_a for 0 <= a <= b <= N-1."""
    N = rs.dims.N
    nx = rs.dims.nx
    prod = [[None] * N for _ in range(N)]
    for a in range(N):
        acc = np.eye(nx)
        for b in range(a, N):
            acc = rs.E[b] @ acc
            prod[a][b] = acc
    return prod


def _product(prod, a: int, b: int, nx: int) -> np.ndarray:
    """E_b ... E_a with the empty-range convention of the identity."""
    if a > b:
        return np.eye(nx)
    return prod[a][b]


def materialize_influence(rs, qdp: QdpProblem, i: int):
    """Explicit state-influence matrices (U_i^k, F_i^k) for one source stage.

    rs is qdp's ``RiccatiSolution``, O_s = B_s W_s^{-1} B_s'. For all k in [0, N]:
        U_i^k = sum_{s < min(i,k)} (E_{k-1}..E_{s+1}) O_s (M_i^{s+1})'
                - (E_{k-1}..E_{i+1}) B_i W_i^{-1} D2_i'   [if i < k]
        F_i^k = sum_{s < min(i,k)} (E_{k-1}..E_{s+1}) O_s (V_i^{s+1})'
                + (E_{k-1}..E_{i+1}) (I - O_i K_{i+1})    [if i < k]
    """
    dims = qdp.dims
    if not 0 <= i <= dims.N - 1:
        raise ValidationError(f"source stage {i} outside [0, {dims.N - 1}]")
    nx = dims.nx
    prod = _closed_loop_table(rs)
    st_i = qdp.stages[i]
    O = [symmetrize(st.B @ rs.solve_W(s, st.B.T)) for s, st in enumerate(qdp.stages[:i + 1])]
    m_head = -(st_i.D1 + st_i.D2 @ rs.P[i])
    bw_d2 = st_i.B @ rs.solve_W(i, st_i.D2.T)
    tail_f = np.eye(nx) - O[i] @ rs.K[i + 1]
    U = np.zeros((dims.N + 1, nx, dims.nd))
    F = np.zeros((dims.N + 1, nx, nx))
    for k in range(dims.N + 1):
        u_acc = np.zeros((nx, dims.nd))
        f_acc = np.zeros((nx, nx))
        for s in range(min(i, k)):
            left = _product(prod, s + 1, k - 1, nx)
            m_is1 = m_head @ _product(prod, s + 1, i - 1, nx)
            v_is1 = -rs.K[i + 1] @ _product(prod, s + 1, i, nx)
            u_acc += left @ O[s] @ m_is1.T
            f_acc += left @ O[s] @ v_is1.T
        if i + 1 <= k:
            left = _product(prod, i + 1, k - 1, nx)
            u_acc -= left @ bw_d2
            f_acc += left @ tail_f
        U[k] = u_acc
        F[k] = f_acc
    return U, F


def closed_form_p(rs, qdp: QdpProblem, l) -> np.ndarray:
    """Optimal states as an explicit linear map of the direction blocks.

    p_k = (E_{k-1}..E_0) l_{-1} + sum_i [U_i^k l_i + F_i^k C_i l_i], with the
    sum taken over the support of l. Matches the forward reconstruction.
    """
    dims = qdp.dims
    l_minus1, l_stages = _direction_parts(l, dims)
    prod = _closed_loop_table(rs)
    states = np.zeros((dims.N + 1, dims.nx))
    for k in range(dims.N + 1):
        states[k] = _product(prod, 0, k - 1, dims.nx) @ l_minus1
    for i in range(dims.N):
        li = l_stages[i]
        if not np.any(li):
            continue
        U, F = materialize_influence(rs, qdp, i)
        ci_li = qdp.stages[i].C @ li
        for k in range(dims.N + 1):
            states[k] += U[k] @ li + F[k] @ ci_li
    return states


def closed_loop_product_norm(rs, i: int, j: int) -> float:
    """Spectral norm of the closed-loop product E_j E_{j-1} ... E_i."""
    if not 0 <= i <= j <= rs.dims.N - 1:
        raise ValidationError(f"need 0 <= i <= j <= N-1, got i={i}, j={j}")
    acc = np.eye(rs.dims.nx)
    for idx in range(i, j + 1):
        acc = rs.E[idx] @ acc
    return operator_norm(acc)


def reachability_matrix(qdp: QdpProblem, k: int, t: int) -> np.ndarray:
    """Stacked reachability blocks [B_{k+t-1}, A_{k+t-1} B_{k+t-2}, ...]."""
    dims = qdp.dims
    if t < 1 or k < 0 or k + t > dims.N:
        raise ValidationError(f"window [k, k+t-1] = [{k}, {k + t - 1}] outside [0, {dims.N - 1}]")
    blocks = []
    prefix = np.eye(dims.nx)
    for j in range(t - 1, -1, -1):
        blocks.append(prefix @ qdp.stages[k + j].B)
        prefix = prefix @ qdp.stages[k + j].A
    return np.hstack(blocks)


@dataclass(frozen=True)
class NewtonResult:
    trajectory: Trajectory
    multipliers: np.ndarray
    iterations: int
    stationarity_residual: float
    feasibility_residual: float


def _model_state(model: NldpModel, d: np.ndarray, traj: Trajectory):
    """Constraint Jacobian, cost gradient and constraint residuals at a point."""
    dims = model.dims
    x, u = traj.states, traj.controls
    A, B, _ = _jacobian_stacks(model, x, u, d)
    f = np.array([model.dynamics(k, x[k], u[k], d_k) for k, d_k in enumerate(model.d_stages(d))],
                 dtype=float)
    cons = np.concatenate([x[0] - d[:dims.nx], (x[1:] - f.reshape(dims.N, dims.nx)).reshape(-1)])
    grad = cost_gradient_vector(model, x, u, d)
    return staircase_jacobian(dims, A, B), grad, cons


def _hessian_blocks(model: NldpModel, d, traj, lam):
    """Stage Lagrangian Hessians as one (N, nx + nu, nx + nu) stack, and the terminal Hessian."""
    dims = model.dims
    lam_stages = lam[dims.nx:].reshape(dims.N, dims.nx)
    blocks = [model.lagrangian_hessian(k, traj.states[k], traj.controls[k], d_k, lam_k)
              for k, (d_k, lam_k) in enumerate(zip(model.d_stages(d), lam_stages))]
    Q, S, R = (np.array(stack, dtype=float) for stack in list(zip(*blocks))[:3])
    QN = np.asarray(model.terminal_hessian(traj.states[dims.N]), dtype=float)
    return _stage_hessians(Q, R, S), QN


def _step_system(dims: Dims, hessians, QN, G, grad, cons):
    """Solve the plain Newton step saddle system."""
    H = stagewise_hessian(hessians, QN)
    sol = _saddle_solve(H, G, np.concatenate([-grad, -cons]))
    return sol[:dims.n_z], sol[dims.n_z:]


def newton_equality_solve(
    model: NldpModel,
    d,
    init: Trajectory,
    max_iterations: int = 100,
    tol: float = 1e-10,
) -> NewtonResult:
    """Full-step Lagrange-Newton iteration on the stationarity system.

    Each step solves the dense saddle system built from the current
    Lagrangian Hessian blocks. Those blocks may be indefinite: the step is
    well defined whenever the reduced Hessian is nonsingular, and a singular
    system raises SingularKkt. Convergence requires both the stationarity and
    constraint residuals to drop to the absolute tolerance; there is no
    globalization, so starting points must be reasonable.
    """
    dims = model.dims
    d = np.asarray(d, dtype=float).reshape(-1)
    traj = Trajectory(init.states, init.controls)
    lam = np.zeros(dims.n_con)
    G, grad, cons = _model_state(model, d, traj)
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        hessians, QN = _hessian_blocks(model, d, traj, lam)
        dz, lam = _step_system(dims, hessians, QN, G, grad, cons)
        step = Trajectory.from_stacked(dims, dz)
        traj = Trajectory(traj.states + step.states, traj.controls + step.controls)
        G, grad, cons = _model_state(model, d, traj)
        stat = inf_norm(grad + G.T @ lam)
        feas = inf_norm(cons)
        residual = max(stat, feas)
        if residual <= tol:
            return NewtonResult(
                trajectory=traj,
                multipliers=lam,
                iterations=iteration,
                stationarity_residual=stat,
                feasibility_residual=feas,
            )
    raise SolverDiverged(max_iterations, residual)


@dataclass(frozen=True)
class DerivativeCheckReport:
    block_errors: dict
    max_relative_error: float
    passed: bool


def _central_hessian(fun, point: np.ndarray, steps: np.ndarray) -> np.ndarray:
    n = point.size
    out = np.empty((n, n))
    for a in range(n):
        for b in range(a, n):
            ea = np.zeros(n)
            eb = np.zeros(n)
            ea[a] = steps[a]
            eb[b] = steps[b]
            val = (
                fun(point + ea + eb)
                - fun(point + ea - eb)
                - fun(point - ea + eb)
                + fun(point - ea - eb)
            ) / (4.0 * steps[a] * steps[b])
            out[a, b] = val
            out[b, a] = val
    return out


def _central_jacobian(fun, point: np.ndarray, steps: np.ndarray) -> np.ndarray:
    cols = []
    for a in range(point.size):
        ea = np.zeros(point.size)
        ea[a] = steps[a]
        cols.append((fun(point + ea) - fun(point - ea)) / (2.0 * steps[a]))
    return np.column_stack(cols)


def _fd_steps(point: np.ndarray, scale: float = FD_STEP) -> np.ndarray:
    return scale * (1.0 + np.abs(point))


def finite_diff_hessian_check(model: NldpModel) -> DerivativeCheckReport:
    """Compare analytic blocks against central differences at the base point.

    Checks the Lagrangian Hessian blocks Q, S, R, D1, D2, the dynamics
    Jacobians A, B, C, and the terminal Hessian; reports the worst relative
    error per family. Report-only: never raises.
    """
    dims = model.dims
    lam = model.multipliers
    if lam is None:
        lam = recover_multipliers(model)
    nx, nu, nd = dims.nx, dims.nu, dims.nd
    errors = {name: 0.0 for name in ("Q", "S", "R", "D1", "D2", "A", "B", "C", "terminal_Q")}

    def rel_err(analytic, numeric):
        analytic = np.atleast_2d(np.asarray(analytic, dtype=float))
        numeric = np.atleast_2d(numeric)
        scale = max(1.0, float(np.max(np.abs(analytic))))
        return float(np.max(np.abs(analytic - numeric))) / scale

    for k in range(dims.N):
        x, u, dk = model.x0[k], model.u0[k], model.d_stage(k)
        lam_k = lam[k + 1]

        def stage_lagrangian(point):
            xs, us, ds = point[:nx], point[nx:nx + nu], point[nx + nu:]
            g = model.stage_cost(k, xs, us, ds)
            f = np.asarray(model.dynamics(k, xs, us, ds), dtype=float).reshape(-1)
            return float(g - lam_k @ f)

        point = np.concatenate([x, u, dk])
        hess = _central_hessian(stage_lagrangian, point, _fd_steps(point, FD_HESS_STEP))
        steps = _fd_steps(point)
        Q, S, R, D1, D2 = model.lagrangian_hessian(k, x, u, dk, lam_k)
        errors["Q"] = max(errors["Q"], rel_err(Q, hess[:nx, :nx]))
        errors["S"] = max(errors["S"], rel_err(S, hess[nx:nx + nu, :nx]))
        errors["R"] = max(errors["R"], rel_err(R, hess[nx:nx + nu, nx:nx + nu]))
        errors["D1"] = max(errors["D1"], rel_err(D1, hess[nx + nu:, :nx]))
        errors["D2"] = max(errors["D2"], rel_err(D2, hess[nx + nu:, nx:nx + nu]))

        def stage_dynamics(point):
            return np.asarray(
                model.dynamics(k, point[:nx], point[nx:nx + nu], point[nx + nu:]),
                dtype=float,
            ).reshape(-1)

        jac = _central_jacobian(stage_dynamics, point, steps)
        A, B, C = model.dynamics_jacobians(k, x, u, dk)
        errors["A"] = max(errors["A"], rel_err(A, jac[:, :nx]))
        errors["B"] = max(errors["B"], rel_err(B, jac[:, nx:nx + nu]))
        errors["C"] = max(errors["C"], rel_err(C, jac[:, nx + nu:]))

    xN = model.x0[dims.N]
    hessN = _central_hessian(lambda p: float(model.terminal_cost(p)), xN, _fd_steps(xN, FD_HESS_STEP))
    errors["terminal_Q"] = rel_err(model.terminal_hessian(xN), hessN)

    worst = max(errors.values())
    return DerivativeCheckReport(block_errors=errors, max_relative_error=worst, passed=worst <= 1e-5)


def model_with_fd_derivatives(
    dims: Dims,
    stage_cost,
    terminal_cost,
    dynamics,
    d0,
    x0,
    u0,
    multipliers=None,
) -> NldpModel:
    """Wrap plain cost/dynamics callables with central-difference derivatives.

    Fallback for models without analytic derivatives; steps scale as
    1e-5 * (1 + |value|) per coordinate.
    """
    nx, nu, nd = dims.nx, dims.nu, dims.nd

    def stage_cost_grad(k, x, u, d):
        point = np.concatenate([np.asarray(x, float), np.asarray(u, float), np.asarray(d, float)])
        steps = _fd_steps(point)
        grad = np.empty(nx + nu)
        for a in range(nx + nu):
            ea = np.zeros(point.size)
            ea[a] = steps[a]
            grad[a] = (
                stage_cost(k, *(np.split(point + ea, [nx, nx + nu])))
                - stage_cost(k, *(np.split(point - ea, [nx, nx + nu])))
            ) / (2.0 * steps[a])
        return grad[:nx], grad[nx:]

    def terminal_cost_grad(x):
        x = np.asarray(x, dtype=float)
        steps = _fd_steps(x)
        grad = np.empty(nx)
        for a in range(nx):
            ea = np.zeros(nx)
            ea[a] = steps[a]
            grad[a] = (terminal_cost(x + ea) - terminal_cost(x - ea)) / (2.0 * steps[a])
        return grad

    def dynamics_jacobians(k, x, u, d):
        point = np.concatenate([np.asarray(x, float), np.asarray(u, float), np.asarray(d, float)])
        steps = _fd_steps(point)

        def fun(pt):
            xs, us, ds = np.split(pt, [nx, nx + nu])
            return np.asarray(dynamics(k, xs, us, ds), dtype=float).reshape(-1)

        jac = _central_jacobian(fun, point, steps)
        return jac[:, :nx], jac[:, nx:nx + nu], jac[:, nx + nu:]

    def lagrangian_hessian(k, x, u, d, lam_k):
        point = np.concatenate([np.asarray(x, float), np.asarray(u, float), np.asarray(d, float)])
        steps = _fd_steps(point, FD_HESS_STEP)
        lam_k = np.asarray(lam_k, dtype=float)

        def fun(pt):
            xs, us, ds = np.split(pt, [nx, nx + nu])
            f = np.asarray(dynamics(k, xs, us, ds), dtype=float).reshape(-1)
            return float(stage_cost(k, xs, us, ds) - lam_k @ f)

        hess = _central_hessian(fun, point, steps)
        return (
            hess[:nx, :nx],
            hess[nx:nx + nu, :nx],
            hess[nx:nx + nu, nx:nx + nu],
            hess[nx + nu:, :nx],
            hess[nx + nu:, nx:nx + nu],
        )

    def terminal_hessian(x):
        x = np.asarray(x, dtype=float)
        return _central_hessian(lambda p: float(terminal_cost(p)), x, _fd_steps(x, FD_HESS_STEP))

    return NldpModel(
        dims=dims,
        stage_cost=stage_cost,
        terminal_cost=terminal_cost,
        dynamics=dynamics,
        stage_cost_grad=stage_cost_grad,
        terminal_cost_grad=terminal_cost_grad,
        dynamics_jacobians=dynamics_jacobians,
        lagrangian_hessian=lagrangian_hessian,
        terminal_hessian=terminal_hessian,
        d0=d0,
        x0=x0,
        u0=u0,
        multipliers=multipliers,
    )


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.standard_normal((n, n))
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diag(r))


def random_sosc_qdp(
    seed: int,
    N: int | None = None,
    nx: int | None = None,
    nu: int | None = None,
    nd: int | None = None,
    gamma_target: float = 0.5,
    square_controls: bool = False,
) -> QdpProblem:
    """Random stagewise program with indefinite R blocks but certified SOSC.

    Dynamics and cross blocks are drawn uniformly in [-1, 1]; control
    curvature R_k gets at least one eigenvalue forced negative; state
    curvature is then inflated until the reduced Hessian provably dominates
    gamma_target. The inflation level comes from bounding the kernel
    parametrization: B_k keeps smallest singular value >= 0.5, so on the
    kernel |q| <= kappa^(1/2) |p| with kappa = 2 (1 + max|A|^2) / 0.5^2, and

        Q >= (gamma + 2 max|S| sqrt(kappa) + (max|R| + gamma) kappa) I

    makes w' H w >= gamma |w|^2 for every kernel vector. With
    square_controls the generator keeps nu = nx so that one-step
    reachability holds at every stage and the uniform-controllability
    assumption can pass.
    """
    rng = np.random.default_rng(seed)
    if N is None:
        N = int(rng.integers(3, 21))
    if nx is None:
        nx = int(rng.integers(1, 5))
    if nu is None:
        nu = nx if square_controls else int(rng.integers(1, nx + 1))
    if square_controls:
        nu = nx
    if nd is None:
        nd = int(rng.integers(1, 5))
    dims = Dims(N=N, nx=nx, nu=nu, nd=nd)

    def sampled_B():
        raw = rng.uniform(-1.0, 1.0, size=(nx, nu))
        u_svd, s, vt = np.linalg.svd(raw, full_matrices=False)
        return u_svd @ np.diag(np.maximum(s, 0.5)) @ vt

    def indefinite_R():
        eigs = rng.uniform(-1.0, 1.0, size=nu)
        eigs[0] = -abs(eigs[0]) - 0.1
        basis = _random_orthogonal(rng, nu)
        return basis @ np.diag(eigs) @ basis.T

    A_blocks = [rng.uniform(-1.0, 1.0, size=(nx, nx)) for _ in range(N)]
    B_blocks = [sampled_B() for _ in range(N)]
    S_blocks = [rng.uniform(-1.0, 1.0, size=(nu, nx)) for _ in range(N)]
    R_blocks = [indefinite_R() for _ in range(N)]

    max_a = max(operator_norm(A) for A in A_blocks)
    max_s = max(operator_norm(S) for S in S_blocks)
    max_r = max(operator_norm(R) for R in R_blocks)
    kappa = 2.0 * (1.0 + max_a ** 2) / 0.25
    q_floor = gamma_target + 2.0 * max_s * np.sqrt(kappa) + (max_r + gamma_target) * kappa

    def stiff_Q():
        bump = rng.uniform(-1.0, 1.0, size=(nx, nx))
        return q_floor * np.eye(nx) + 0.1 * (bump @ bump.T)

    stages = [
        {
            "Q": stiff_Q(),
            "R": R_blocks[k],
            "S": S_blocks[k],
            "D1": rng.uniform(-1.0, 1.0, size=(nd, nx)),
            "D2": rng.uniform(-1.0, 1.0, size=(nd, nu)),
            "A": A_blocks[k],
            "B": B_blocks[k],
            "C": rng.uniform(-1.0, 1.0, size=(nx, nd)),
        }
        for k in range(N)
    ]
    return QdpProblem(dims, stages, stiff_Q())
