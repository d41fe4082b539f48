"""Oracle-layer tests: dense saddle solves, Newton iteration, generators."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

import qdpsens as qs
from qdpsens.model import stagewise_hessian
from qdpsens.verify import _hessian_blocks, _model_state

from conftest import random_direction


class TestDenseKktSolve:
    def test_one_step_hand_minimization(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        sol = qs.dense_kkt_solve(qdp, qs.unit_direction(dims, -1, 1))
        assert sol.trajectory.stacked() == pytest.approx([1.0, -0.5, 0.5], abs=1e-12)

    def test_zero_direction(self, small_pool):
        qdp = small_pool[0]
        sol = qs.dense_kkt_solve(qdp, qs.PerturbationDirection.zero(qdp.dims))
        assert np.max(np.abs(sol.trajectory.stacked())) <= 1e-12
        assert np.max(np.abs(sol.multipliers)) <= 1e-12

    def test_residual_invariants(self, small_pool):
        rng = np.random.default_rng(2)
        for qdp in small_pool:
            sol = qs.dense_kkt_solve(qdp, random_direction(qdp, rng))
            assert sol.feasibility_residual <= 1e-10

    def test_agreement_with_pipeline_on_indefinite_instances(self):
        rng = np.random.default_rng(0)
        for idx in range(25):
            qdp = qs.random_sosc_qdp(800 + idx, N=int(rng.integers(2, 14)))
            assert any(np.linalg.eigvalsh(st.R)[0] < 0 for st in qdp.stages)
            l = random_direction(qdp, rng)
            ref = qs.dense_kkt_solve(qdp, l).trajectory.stacked()
            got = qs.solve_sensitivity(qdp, l).trajectory.stacked()
            assert np.max(np.abs(got - ref)) / max(1.0, np.max(np.abs(ref))) <= 1e-8

    def test_singular_reduced_hessian_detected(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[0.0]], R=[[0.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[0.0]])
        with pytest.raises(qs.SingularKkt):
            qs.dense_kkt_solve(qdp, qs.unit_direction(dims, -1, 1))


class TestNewtonSolve:
    def test_base_point_converges_in_one_iteration(self, tracking_linear_model):
        model = tracking_linear_model
        sol = qs.newton_equality_solve(model, model.d0, model.base_trajectory())
        assert sol.iterations == 1
        assert np.max(np.abs(sol.trajectory.stacked())) <= 1e-12

    def test_linear_quadratic_one_step_from_any_start(self):
        """Quadratic objective and affine constraints: one exact step."""
        rng = np.random.default_rng(5)
        model = _affine_quadratic_model(seed=1)
        wild = qs.Trajectory(rng.standard_normal((model.dims.N + 1, model.dims.nx)),
                             rng.standard_normal((model.dims.N, model.dims.nu)))
        sol = qs.newton_equality_solve(model, model.d0, wild)
        assert sol.iterations == 1

    def test_indefinite_tracking_problem_plain_step(self, tracking_exp_model):
        """The tracking toy problem has indefinite stage Hessians; the plain
        saddle step is still the exact step, since its reduced Hessian is
        positive definite."""
        model = tracking_exp_model
        d = model.d0.copy()
        d[1 + 20] = 0.01
        sol = qs.newton_equality_solve(model, d, model.base_trajectory())
        assert sol.iterations == 1
        # elimination oracle: substitute u_k = x_{k+1} - f(d_k) and solve the
        # decoupled per-state stationarity conditions
        mu1, mu2 = 10.0, 1.0
        f = lambda v: np.exp(v) - 1.0
        N = model.dims.N
        expected = np.zeros(N + 1)
        for j in range(1, N + 1):
            prev = d[1 + (j - 1)]
            here = d[1 + j] if j <= N - 1 else 0.0
            tracking = mu2 * here if j <= N - 1 else 0.0
            expected[j] = (mu1 * (f(prev) + prev) - tracking) / (mu1 - mu2)
        assert np.max(np.abs(sol.trajectory.states[:, 0] - expected)) <= 1e-8
        u_expected = expected[1:] - f(d[1:1 + N])
        assert np.max(np.abs(sol.trajectory.controls[:, 0] - u_expected)) <= 1e-8

    def test_non_finite_hessian_raises_singular_kkt(self):
        """A NaN in the Lagrangian Hessian is a typed solver error, not a raw ValueError."""
        model = qs.tracking_toy_model(6, 10.0, 1.0, "linear")

        def nan_hessian(k, x, u, d, lam_k):
            Q, S, R, D1, D2 = model.lagrangian_hessian(k, x, u, d, lam_k)
            return np.full_like(np.asarray(Q, dtype=float), np.nan), S, R, D1, D2

        bad = dataclasses.replace(model, lagrangian_hessian=nan_hessian)
        with pytest.raises(qs.SingularKkt):
            qs.newton_equality_solve(bad, bad.d0, bad.base_trajectory())

    def test_step_system_placed_equals_stage_loop(self, tracking_linear_model, tracking_exp_model):
        """The Newton step Hessian and Jacobian are placed from stage stacks; the
        per-stage constructions they replace give the same bits."""
        rng = np.random.default_rng(3)
        models = [tracking_linear_model, tracking_exp_model, _affine_quadratic_model(2),
                  _smooth_fd_model(N=1, nx=3, nu=1, nd=2), _smooth_fd_model(N=5, nx=4, nu=2, nd=3)]
        for model in models:
            dims = model.dims
            traj = qs.Trajectory(rng.standard_normal((dims.N + 1, dims.nx)),
                                 rng.standard_normal((dims.N, dims.nu)))
            d = rng.standard_normal(dims.n_dir)
            lam = rng.standard_normal(dims.n_con)
            hessians, jacobians, cons = [], [], [traj.states[0] - d[:dims.nx]]
            for k in range(dims.N):
                x, u, dk = traj.states[k], traj.controls[k], model.d_stage(k, d)
                Q, S, R, _, _ = map(np.asarray, model.lagrangian_hessian(
                    k, x, u, dk, lam[(k + 1) * dims.nx:(k + 2) * dims.nx]))
                hessians.append(np.block([[Q, S.T], [S, R]]))
                jacobians.append(model.dynamics_jacobians(k, x, u, dk))
                cons.append(traj.states[k + 1] - np.asarray(model.dynamics(k, x, u, dk)).reshape(-1))
            H = scipy.linalg.block_diag(*hessians, model.terminal_hessian(traj.states[dims.N]))
            G = qs.staircase_jacobian(dims, [j[0] for j in jacobians], [j[1] for j in jacobians])
            stacks, QN = _hessian_blocks(model, d, traj, lam)
            assert np.array_equal(stagewise_hessian(stacks, QN), H)
            G_placed, _, cons_placed = _model_state(model, d, traj)
            assert np.array_equal(G_placed, G) and np.array_equal(cons_placed, np.concatenate(cons))

    def test_divergence_reported(self):
        """A problem whose stationary point flees the quadratic model."""
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)

        def stage_cost(k, x, u, d):
            return float(np.exp(u[0]) - 2.0 * u[0])

        model = qs.model_with_fd_derivatives(
            dims,
            stage_cost,
            lambda x: float(x[0] ** 2),
            lambda k, x, u, d: np.array([u[0]]),
            d0=np.zeros(2),
            x0=np.zeros((2, 1)),
            u0=np.full((1, 1), 30.0),
            multipliers=np.zeros((2, 1)),
        )
        with pytest.raises((qs.SolverDiverged, OverflowError)):
            qs.newton_equality_solve(model, model.d0, model.base_trajectory(),
                                     max_iterations=8)


class TestFdFallbackModel:
    def test_fd_model_matches_analytic_blocks(self, tracking_exp_model):
        analytic = tracking_exp_model
        fd = qs.model_with_fd_derivatives(
            analytic.dims,
            analytic.stage_cost,
            analytic.terminal_cost,
            analytic.dynamics,
            d0=analytic.d0,
            x0=analytic.x0,
            u0=analytic.u0,
            multipliers=analytic.multipliers,
        )
        qdp_fd = qs.assemble_qdp_from_nldp(fd)
        qdp_an = qs.assemble_qdp_from_nldp(analytic)
        for k in range(analytic.dims.N):
            for name in ("Q", "R", "S", "D1", "D2", "A", "B", "C"):
                got = getattr(qdp_fd.stages[k], name)
                want = getattr(qdp_an.stages[k], name)
                assert np.max(np.abs(got - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


class TestGenerator:
    def test_certified_curvature_and_indefiniteness(self):
        for seed in range(12):
            qdp = qs.random_sosc_qdp(seed)
            assert qs.reduced_hessian_gamma(qdp) > 0.0
            assert any(np.linalg.eigvalsh(st.R)[0] < 0 for st in qdp.stages)

    def test_square_controls_pass_reachability(self):
        for seed in range(6):
            qdp = qs.random_sosc_qdp(40_000 + seed, square_controls=True)
            rep = qs.auto_controllability(qdp)
            assert rep.passed

    def test_deterministic(self):
        a = qs.random_sosc_qdp(7, N=5)
        b = qs.random_sosc_qdp(7, N=5)
        assert np.array_equal(a.stages[0].Q, b.stages[0].Q)
        assert np.array_equal(a.stages[-1].C, b.stages[-1].C)


def _affine_quadratic_model(seed: int) -> qs.NldpModel:
    rng = np.random.default_rng(seed)
    dims = qs.Dims(N=4, nx=2, nu=2, nd=1)
    Q0 = np.eye(2) * 2.0
    R0 = np.eye(2)
    A0 = 0.5 * rng.standard_normal((2, 2))
    B0 = np.eye(2)
    C0 = rng.standard_normal((2, 1))
    xref = rng.standard_normal(2)

    def stage_cost(k, x, u, d):
        return float(0.5 * (x - xref) @ Q0 @ (x - xref) + 0.5 * u @ R0 @ u)

    def terminal_cost(x):
        return float(0.5 * (x - xref) @ Q0 @ (x - xref))

    def dynamics(k, x, u, d):
        return A0 @ x + B0 @ u + C0 @ d

    return qs.NldpModel(
        dims=dims,
        stage_cost=stage_cost,
        terminal_cost=terminal_cost,
        dynamics=dynamics,
        stage_cost_grad=lambda k, x, u, d: (Q0 @ (x - xref), R0 @ u),
        terminal_cost_grad=lambda x: Q0 @ (x - xref),
        dynamics_jacobians=lambda k, x, u, d: (A0, B0, C0),
        lagrangian_hessian=lambda k, x, u, d, lam: (
            Q0, np.zeros((2, 2)), R0, np.zeros((1, 2)), np.zeros((1, 2))),
        terminal_hessian=lambda x: Q0,
        d0=np.zeros(dims.n_dir),
        x0=np.zeros((5, 2)),
        u0=np.zeros((4, 2)),
        multipliers=None,
    )


def _smooth_fd_model(N: int, nx: int, nu: int, nd: int, seed: int = 0) -> qs.NldpModel:
    """Nonlinear model with finite-difference derivatives and arbitrary block shapes."""
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.standard_normal((nx, nx))
    B = rng.standard_normal((nx, nu))
    C = rng.standard_normal((nx, nd))

    def stage_cost(k, x, u, d):
        return float(x @ x + (k + 1) * (u @ u) + np.sin(x).sum() * u.sum() + (d @ d) * x[0])

    def dynamics(k, x, u, d):
        return A @ x + B @ u + C @ d + 0.1 * np.sin(x)

    return qs.model_with_fd_derivatives(
        qs.Dims(N=N, nx=nx, nu=nu, nd=nd), stage_cost, lambda x: float(x @ x + x[0] ** 3), dynamics,
        d0=np.zeros(nx + N * nd), x0=np.zeros((N + 1, nx)), u0=np.zeros((N, nu)),
        multipliers=np.zeros((N + 1, nx)))
