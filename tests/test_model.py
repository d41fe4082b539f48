"""Model-layer tests: linearization, objective evaluation, dynamics rollout."""

import json
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qdpsens as qs
from qdpsens.model import _direction_parts

from conftest import random_direction


def dense_objective_oracle(qdp, l, w):
    """Independent dense evaluation w' H w + 2 l' D w."""
    H = qdp.full_hessian()
    dlift = qdp.lifted_cross()
    _, l_stages = _direction_parts(l, qdp.dims)
    wv = w.stacked()
    return float(wv @ H @ wv + 2.0 * (l_stages.reshape(-1) @ dlift @ wv))


class TestDims:
    def test_sizes(self):
        dims = qs.Dims(N=3, nx=2, nu=1, nd=2)
        assert dims.n_z == 4 * 2 + 3 * 1
        assert dims.n_con == 4 * 2
        assert dims.n_dir == 2 + 3 * 2

    @pytest.mark.parametrize("bad", [dict(N=0, nx=1, nu=1, nd=1),
                                     dict(N=1, nx=0, nu=1, nd=1),
                                     dict(N=1, nx=1, nu=1, nd=0)])
    def test_rejects_degenerate(self, bad):
        with pytest.raises(qs.ValidationError):
            qs.Dims(**bad)


class TestQdpProblem:
    def test_symmetry_enforced(self):
        dims = qs.Dims(N=1, nx=2, nu=1, nd=1)
        blocks = dict(Q=np.eye(2), R=[[1.0]], S=np.zeros((1, 2)),
                      D1=np.zeros((1, 2)), D2=np.zeros((1, 1)),
                      A=np.eye(2), B=np.ones((2, 1)), C=np.ones((2, 1)))
        bad = dict(blocks)
        bad["Q"] = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(qs.ValidationError, match="asymmetry"):
            qs.QdpProblem(dims, [bad], np.eye(2))
        # roundoff-level asymmetry is symmetrized away
        ok = dict(blocks)
        ok["Q"] = np.array([[1.0, 1e-12], [0.0, 1.0]])
        qdp = qs.QdpProblem(dims, [ok], np.eye(2))
        assert np.allclose(qdp.stages[0].Q, qdp.stages[0].Q.T)

    def test_rejects_nonfinite(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        blocks = dict(Q=[[np.nan]], R=[[1.0]], S=[[0.0]], D1=[[0.0]],
                      D2=[[0.0]], A=[[0.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(qs.ValidationError, match="non-finite"):
            qs.QdpProblem(dims, [blocks], [[1.0]])

    def test_json_round_trip_bit_exact(self, tmp_path):
        qdp = qs.random_sosc_qdp(5, N=4)
        path = tmp_path / "problem.json"
        qs.save_qdp(qdp, path)
        loaded = qs.load_qdp(path)
        qs.save_qdp(loaded, tmp_path / "problem2.json")
        reloaded = qs.load_qdp(tmp_path / "problem2.json")
        for k in range(qdp.dims.N):
            for name in ("Q", "R", "S", "D1", "D2", "A", "B", "C"):
                orig = getattr(qdp.stages[k], name)
                twice = getattr(reloaded.stages[k], name)
                assert np.array_equal(orig, twice)
        assert np.array_equal(qdp.terminal_Q, reloaded.terminal_Q)

    @pytest.mark.parametrize("value, shown", [(3.5, "3.5"), (2.9, "2.9"), (True, "True"), ("3", "'3'")])
    def test_json_dims_must_be_integers(self, value, shown):
        data = qs.random_sosc_qdp(5, N=3).to_json_dict()
        data["dims"]["N"] = value
        data["dims"]["nx"] = 2.7
        with pytest.raises(qs.ValidationError, match=re.escape(f"dims: N is not an integer ({shown})")):
            qs.QdpProblem.from_json_dict(data)

    def test_json_dims_accept_integral_floats(self):
        qdp = qs.random_sosc_qdp(5, N=3)
        data = qdp.to_json_dict()
        data["dims"] = {name: float(size) for name, size in data["dims"].items()}
        loaded = qs.QdpProblem.from_json_dict(data)
        assert loaded.dims == qdp.dims and type(loaded.dims.N) is int

    def test_immutable_blocks(self):
        qdp = qs.random_sosc_qdp(1, N=3)
        with pytest.raises(ValueError):
            qdp.stages[0].Q[0, 0] = 5.0


class TestTrackingToyLinearization:
    """Hand-differentiated blocks of the scalar tracking problem."""

    def test_blocks_mu_10_1(self, tracking_linear_qdp):
        qdp = tracking_linear_qdp
        for st_ in qdp.stages:
            assert st_.Q[0, 0] == pytest.approx(-2.0)
            assert st_.R[0, 0] == pytest.approx(20.0)
            assert st_.S[0, 0] == 0.0
            assert st_.A[0, 0] == 0.0
            assert st_.B[0, 0] == 1.0
            assert st_.C[0, 0] == 1.0
            assert st_.D1[0, 0] == pytest.approx(2.0)
            assert st_.D2[0, 0] == pytest.approx(-20.0)
        assert qdp.terminal_Q[0, 0] == pytest.approx(-2.0)

    def test_blocks_match_fd_oracle(self, tracking_linear_model, tracking_exp_model):
        for model in (tracking_linear_model, tracking_exp_model):
            report = qs.finite_diff_hessian_check(model)
            assert report.passed
            assert report.max_relative_error <= 1e-6

    def test_zero_cost_model(self):
        dims = qs.Dims(N=3, nx=2, nu=2, nd=1)
        A = np.array([[0.0, 1.0], [0.2, 0.1]])
        B = np.eye(2)
        C = np.array([[1.0], [0.5]])

        model = qs.NldpModel(
            dims=dims,
            stage_cost=lambda k, x, u, d: 0.0,
            terminal_cost=lambda x: 0.0,
            dynamics=lambda k, x, u, d: A @ x + B @ u + C @ d,
            stage_cost_grad=lambda k, x, u, d: (np.zeros(2), np.zeros(2)),
            terminal_cost_grad=lambda x: np.zeros(2),
            dynamics_jacobians=lambda k, x, u, d: (A, B, C),
            lagrangian_hessian=lambda k, x, u, d, lam: (
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                np.zeros((1, 2)), np.zeros((1, 2))),
            terminal_hessian=lambda x: np.zeros((2, 2)),
            d0=np.zeros(dims.n_dir),
            x0=np.zeros((4, 2)),
            u0=np.zeros((3, 2)),
            multipliers=np.zeros((4, 2)),
        )
        qdp = qs.assemble_qdp_from_nldp(model)
        for st_ in qdp.stages:
            assert np.all(st_.Q == 0) and np.all(st_.R == 0) and np.all(st_.S == 0)
            assert np.all(st_.D1 == 0) and np.all(st_.D2 == 0)
            assert np.array_equal(st_.A, A)
            assert np.array_equal(st_.B, B)
            assert np.array_equal(st_.C, C)

    def test_multiplier_recovery_zero_at_stationary_base(self):
        model = qs.tracking_toy_model(6, 10.0, 1.0, "exp")
        model = qs.NldpModel(**{**model.__dict__, "multipliers": None})
        lam = qs.recover_multipliers(model)
        assert np.max(np.abs(lam)) <= 1e-12
        qdp = qs.assemble_qdp_from_nldp(model)
        assert qdp.stages[0].R[0, 0] == pytest.approx(20.0)

    def test_linear_toy_jacobians_are_prebuilt(self):
        """The linear kind's dynamics Jacobians are built once per model, read-only."""
        model = qs.tracking_toy_model(4, 10.0, 1.0, "linear")
        first = model.dynamics_jacobians(0, np.zeros(1), np.zeros(1), np.array([0.3]))
        again = model.dynamics_jacobians(3, np.ones(1), np.ones(1), np.array([-2.0]))
        assert all(a is b for a, b in zip(first, again))
        assert [block.tolist() for block in first] == [[[0.0]], [[1.0]], [[1.0]]]
        assert not any(block.flags.writeable for block in first)
        exp = qs.tracking_toy_model(4, 10.0, 1.0, "exp")
        assert exp.dynamics_jacobians(0, np.zeros(1), np.zeros(1), np.array([0.3]))[2][0, 0] == np.exp(0.3)

    def test_stage_references_are_one_reshape(self):
        model = qs.tracking_toy_model(4, 10.0, 1.0, "linear")
        d = np.arange(model.dims.n_dir, dtype=float)
        refs = model.d_stages(d)
        assert refs.shape == (4, 1)
        assert all(np.array_equal(refs[k], model.d_stage(k, d)) for k in range(4))
        assert np.shares_memory(refs, d)

    def test_with_reference_swaps_vector(self):
        model = qs.tracking_toy_model(4, 10.0, 1.0, "linear")
        d_new = np.arange(model.dims.n_dir, dtype=float)
        moved = model.with_reference(d_new)
        assert np.array_equal(moved.d0, d_new)
        assert np.array_equal(model.d0, np.zeros(model.dims.n_dir))
        assert moved.d_stage(1)[0] == 2.0

    def test_multiplier_recovery_matches_newton_off_the_base_point(self):
        """At a Newton-solved, perturbed reference the multipliers are nonzero, and the
        adjoint recursion reproduces the Newton multipliers."""
        base = qs.tracking_toy_model(40, 10.0, 1.0, "exp")
        d = base.d0 + 0.1 * np.random.default_rng(5).standard_normal(base.dims.n_dir)
        sol = qs.newton_equality_solve(base, d, base.base_trajectory())
        model = qs.NldpModel(**{**base.__dict__, "d0": d, "x0": sol.trajectory.states,
                                "u0": sol.trajectory.controls, "multipliers": None})
        lam = qs.recover_multipliers(model)
        want = sol.multipliers.reshape(lam.shape)
        assert np.max(np.abs(want)) >= 0.5
        assert np.max(np.abs(lam - want)) <= 1e-12

    def test_multiplier_recovery_rejects_nonstationary_base(self):
        model = qs.tracking_toy_model(4, 10.0, 1.0, "linear")
        fields = dict(model.__dict__)
        fields["multipliers"] = None
        fields["x0"] = np.ones((5, 1))  # not a stationary point
        model = qs.NldpModel(**fields)
        with pytest.raises(qs.MultiplierRecoveryError):
            qs.recover_multipliers(model)


class TestCubicModel:
    """Analytic cubic model with nonzero multipliers versus differencing."""

    def test_blocks_match_fd(self):
        model = build_cubic_model(seed=11)
        report = qs.finite_diff_hessian_check(model)
        assert report.passed, report.block_errors
        assert report.max_relative_error <= 1e-6
        qdp = qs.assemble_qdp_from_nldp(model)
        assert qdp.dims.N == 5

    def test_injected_fault_detected_in_S(self):
        model = build_cubic_model(seed=11)
        fields = dict(model.__dict__)
        true_hess = model.lagrangian_hessian

        def wrong_hessian(k, x, u, d, lam):
            Q, S, R, D1, D2 = true_hess(k, x, u, d, lam)
            return Q, S + 0.05, R, D1, D2

        fields["lagrangian_hessian"] = wrong_hessian
        broken = qs.NldpModel(**fields)
        report = qs.finite_diff_hessian_check(broken)
        assert not report.passed
        worst_block = max(report.block_errors, key=report.block_errors.get)
        assert worst_block == "S"

    def test_quadratic_model_fd_near_exact(self):
        model = build_cubic_model(seed=4, cubic_scale=0.0)
        report = qs.finite_diff_hessian_check(model)
        assert report.max_relative_error <= 1e-9


def build_cubic_model(seed: int, cubic_scale: float = 0.3) -> qs.NldpModel:
    """Cubic costs and quadratic dynamics with a nonzero multiplier base."""
    rng = np.random.default_rng(seed)
    dims = qs.Dims(N=5, nx=2, nu=2, nd=2)
    nx, nu, nd = dims.nx, dims.nu, dims.nd
    Q0 = np.eye(nx) + 0.1 * _sym(rng, nx)
    R0 = np.eye(nu) + 0.1 * _sym(rng, nu)
    S0 = 0.2 * rng.standard_normal((nu, nx))
    D10 = 0.2 * rng.standard_normal((nd, nx))
    D20 = 0.2 * rng.standard_normal((nd, nu))
    A0 = 0.4 * rng.standard_normal((nx, nx))
    B0 = np.eye(nx) + 0.2 * rng.standard_normal((nx, nu))
    C0 = 0.5 * rng.standard_normal((nx, nd))
    a = rng.standard_normal(nx)
    b = rng.standard_normal(nu)
    c = rng.standard_normal(nd)
    alpha = cubic_scale
    beta = 0.7 * cubic_scale
    xi = 0.5 * cubic_scale * rng.standard_normal(nx)
    eta = 0.4 * cubic_scale * rng.standard_normal(nx)
    QN = np.eye(nx) + 0.1 * _sym(rng, nx)
    gN = cubic_scale * rng.standard_normal(nx)

    def stage_cost(k, x, u, d):
        quad = 0.5 * x @ Q0 @ x + 0.5 * u @ R0 @ u + u @ S0 @ x
        cross = d @ D10 @ x + d @ D20 @ u
        cubic = alpha * (a @ x) ** 2 * (b @ u) + beta * (c @ d) * (a @ x) * (b @ u)
        return float(quad + cross + cubic)

    def stage_cost_grad(k, x, u, d):
        gx = Q0 @ x + S0.T @ u + D10.T @ d
        gu = R0 @ u + S0 @ x + D20.T @ d
        gx = gx + 2 * alpha * (a @ x) * (b @ u) * a + beta * (c @ d) * (b @ u) * a
        gu = gu + alpha * (a @ x) ** 2 * b + beta * (c @ d) * (a @ x) * b
        return gx, gu

    def terminal_cost(x):
        return float(0.5 * x @ QN @ x + (gN @ x) ** 3 / 3.0)

    def terminal_cost_grad(x):
        return QN @ x + (gN @ x) ** 2 * gN

    def terminal_hessian(x):
        return QN + 2.0 * (gN @ x) * np.outer(gN, gN)

    def dynamics(k, x, u, d):
        return A0 @ x + B0 @ u + C0 @ d + xi * (a @ x) ** 2 + eta * (a @ x) * (b @ u)

    def dynamics_jacobians(k, x, u, d):
        A = A0 + np.outer(2.0 * (a @ x) * xi + (b @ u) * eta, a)
        B = B0 + np.outer((a @ x) * eta, b)
        return A, B, C0.copy()

    def lagrangian_hessian(k, x, u, d, lam):
        lam = np.asarray(lam, dtype=float)
        Q = Q0 + 2 * alpha * (b @ u) * np.outer(a, a) - 2.0 * (lam @ xi) * np.outer(a, a)
        S = S0 + (2 * alpha * (a @ x) + beta * (c @ d)) * np.outer(b, a) \
            - (lam @ eta) * np.outer(b, a)
        R = R0.copy()
        D1 = D10 + beta * (b @ u) * np.outer(c, a)
        D2 = D20 + beta * (a @ x) * np.outer(c, b)
        return Q, S, R, D1, D2

    return qs.NldpModel(
        dims=dims,
        stage_cost=stage_cost,
        terminal_cost=terminal_cost,
        dynamics=dynamics,
        stage_cost_grad=stage_cost_grad,
        terminal_cost_grad=terminal_cost_grad,
        dynamics_jacobians=dynamics_jacobians,
        lagrangian_hessian=lagrangian_hessian,
        terminal_hessian=terminal_hessian,
        d0=0.3 * rng.standard_normal(dims.n_dir),
        x0=0.3 * rng.standard_normal((dims.N + 1, nx)),
        u0=0.3 * rng.standard_normal((dims.N, nu)),
        multipliers=0.5 * rng.standard_normal((dims.N + 1, nx)),
    )


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


class TestObjective:
    def test_zero_trajectory_is_zero(self):
        qdp = qs.random_sosc_qdp(2, N=4)
        l = random_direction(qdp, np.random.default_rng(0))
        assert qs.eval_qdp_objective(qdp, l, qs.Trajectory.zeros(qdp.dims)) == 0.0

    def test_scalar_hand_value(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        w = qs.Trajectory(states=[[1.0], [0.5]], controls=[[-0.5]])
        l = qs.PerturbationDirection.zero(dims)
        assert qs.eval_qdp_objective(qdp, l, w) == pytest.approx(1.5, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), dir_seed=st.integers(0, 10_000))
    def test_matches_dense_assembly(self, seed, dir_seed):
        qdp = qs.random_sosc_qdp(seed, N=int(3 + seed % 5))
        rng = np.random.default_rng(dir_seed)
        l = random_direction(qdp, rng)
        w = qs.Trajectory.from_stacked(qdp.dims, rng.standard_normal(qdp.dims.n_z))
        got = qs.eval_qdp_objective(qdp, l, w)
        want = dense_objective_oracle(qdp, l, w)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestRollout:
    def test_zero_inputs_zero_trajectory(self):
        qdp = qs.random_sosc_qdp(3, N=5)
        l = qs.PerturbationDirection.zero(qdp.dims)
        traj = qs.rollout_dynamics(qdp, l, np.zeros((5, qdp.dims.nu)))
        assert np.all(traj.states == 0.0)

    def test_scalar_hand_rollout(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        l = qs.unit_direction(dims, -1, 1)
        traj = qs.rollout_dynamics(qdp, l, [[-0.5]])
        assert traj.states[:, 0] == pytest.approx([1.0, 0.5])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_feasible_for_constraint_system(self, seed):
        qdp = qs.random_sosc_qdp(seed, N=int(2 + seed % 7))
        rng = np.random.default_rng(seed + 1)
        l = random_direction(qdp, rng)
        controls = rng.standard_normal((qdp.dims.N, qdp.dims.nu))
        traj = qs.rollout_dynamics(qdp, l, controls)
        cs = qs.assemble_constraints(qdp, l)
        assert cs.residual(traj.stacked()) <= 1e-12


class TestTrajectory:
    def test_stack_round_trip(self):
        dims = qs.Dims(N=3, nx=2, nu=1, nd=1)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(dims.n_z)
        traj = qs.Trajectory.from_stacked(dims, w)
        assert np.allclose(traj.stacked(), w)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(qs.ValidationError):
            qs.Trajectory(states=np.zeros((3, 1)), controls=np.zeros((3, 1)))


class TestDirectionShapes:
    @pytest.mark.parametrize("block", ["l_minus1", "l_stages"])
    def test_mis_shaped_block_rejected(self, block):
        """One row or entry too many is named, not dropped or left to numpy."""
        qdp = qs.random_sosc_qdp(3, N=6, nx=2, nu=2, nd=2)
        dims = qdp.dims
        parts = {"l_minus1": np.zeros(dims.nx), "l_stages": np.zeros((dims.N, dims.nd))}
        parts[block] = np.ones((dims.N + 1, dims.nd)) if block == "l_stages" else np.ones(dims.nx + 1)
        l = qs.PerturbationDirection(**parts)
        fac = qs.factorize(qdp)
        entry_points = [
            lambda: qs.eval_qdp_objective(qdp, l, qs.Trajectory.zeros(dims)),
            lambda: fac.convexified.direction_constant(l),
            lambda: qs.rollout_dynamics(qdp, l, np.zeros((dims.N, dims.nu))),
            lambda: fac.solve(l),
            lambda: qs.dense_kkt_solve(qdp, l),
        ]
        for call in entry_points:
            with pytest.raises(qs.ValidationError, match=block):
                call()


BLOCKS = ("Q", "R", "S", "D1", "D2", "A", "B", "C")


def stage_dicts(qdp):
    return [{name: np.array(getattr(st, name)) for name in BLOCKS} for st in qdp.stages]


class TestStackedBlocks:
    """Blocks are stacked and validated once; errors still name block and stage."""

    @staticmethod
    def base():
        qdp = qs.random_sosc_qdp(4, N=5, nx=3, nu=2, nd=2)
        return qdp, stage_dicts(qdp)

    @pytest.mark.parametrize("name", BLOCKS)
    @pytest.mark.parametrize("fault, message", [
        ("shape", "expected shape"),
        ("non-finite", "non-finite entries"),
        ("text", "not a numeric array"),
    ])
    def test_error_names_block_and_stage(self, name, fault, message):
        qdp, stages = self.base()
        block = stages[3][name]
        if fault == "shape":
            stages[3][name] = np.zeros((block.shape[0] + 1, block.shape[1]))
        elif fault == "non-finite":
            block[0, 0] = np.inf
        else:
            stages[3][name] = block.tolist()
            stages[3][name][0][0] = "a"
        with pytest.raises(qs.ValidationError, match=re.escape(f"{name}[3]: {message}")):
            qs.QdpProblem(qdp.dims, stages, qdp.terminal_Q)

    @pytest.mark.parametrize("name", ["Q", "R"])
    def test_asymmetry_names_block_and_stage(self, name):
        qdp, stages = self.base()
        stages[3][name][0, 1] += 1e-8
        with pytest.raises(qs.ValidationError, match=re.escape(f"{name}[3]: asymmetry")):
            qs.QdpProblem(qdp.dims, stages, qdp.terminal_Q)

    def test_first_bad_block_in_stage_order(self):
        qdp, stages = self.base()
        stages[4]["Q"][0, 0] = np.nan
        stages[3]["C"] = np.zeros((1, 1))
        with pytest.raises(qs.ValidationError, match=re.escape("C[3]:")):
            qs.QdpProblem(qdp.dims, stages, qdp.terminal_Q)

    def test_roundoff_symmetrized_at_every_stage(self):
        qdp, stages = self.base()
        for blocks in stages:
            for name in ("Q", "R"):
                blocks[name][-1, 0] += 1e-12
        sym = qs.QdpProblem(qdp.dims, stages, qdp.terminal_Q)
        for k, st in enumerate(sym.stages):
            for name in ("Q", "R"):
                given = stages[k][name]
                assert np.array_equal(getattr(st, name), 0.5 * (given + given.T))
                assert np.array_equal(getattr(st, name), getattr(st, name).T)

    def test_stages_are_read_only_views_of_the_stacks(self):
        qdp, _ = self.base()
        for name in BLOCKS:
            stack = qdp.blocks[name]
            assert stack.shape[0] == qdp.dims.N and not stack.flags.writeable
            for k, st in enumerate(qdp.stages):
                assert np.shares_memory(getattr(st, name), stack)
                assert np.array_equal(getattr(st, name), stack[k])
        with pytest.raises(ValueError):
            qdp.stages[2].Q[0, 0] = 1.0
        with pytest.raises(ValueError):
            qdp.blocks["A"][0, 0, 0] = 1.0
        with pytest.raises(TypeError):
            qdp.blocks["A"] = np.zeros_like(qdp.blocks["A"])

    def test_caller_arrays_are_copied(self):
        qdp, stages = self.base()
        terminal = np.array(qdp.terminal_Q)
        built = qs.QdpProblem(qdp.dims, stages, terminal)
        for blocks in stages:
            for block in blocks.values():
                block[...] = np.nan
        terminal[...] = np.nan
        for name in BLOCKS:
            assert np.array_equal(built.blocks[name], qdp.blocks[name])
        assert np.array_equal(built.terminal_Q, qdp.terminal_Q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_hessian_is_block_diagonal_of_stage_hessians(self, seed):
        qdp = qs.random_sosc_qdp(seed)
        blocks = [qdp.stage_hessian(k) for k in range(qdp.dims.N + 1)]
        assert np.array_equal(qdp.full_hessian(), scipy.linalg.block_diag(*blocks))
        for k, st in enumerate(qdp.stages):
            assert np.array_equal(qdp.stage_hessian(k), np.block([[st.Q, st.S.T], [st.S, st.R]]))
            assert np.array_equal(qdp.stage_hessians()[k], qdp.stage_hessian(k))

    def test_placed_matrices_equal_stage_loop(self, shape_pool):
        """full_hessian and lifted_cross are placed from the block stacks; the
        per-stage constructions they replace give the same bits."""
        for qdp in shape_pool:
            dims = qdp.dims
            hessians = [np.block([[st.Q, st.S.T], [st.S, st.R]]) for st in qdp.stages]
            assert np.array_equal(qdp.full_hessian(), scipy.linalg.block_diag(*hessians, qdp.terminal_Q))
            cross = np.zeros((dims.N * dims.nd, dims.n_z))
            for k, st in enumerate(qdp.stages):
                row, col = k * dims.nd, k * (dims.nx + dims.nu)
                cross[row:row + dims.nd, col:col + dims.nx] = st.D1
                cross[row:row + dims.nd, col + dims.nx:col + dims.nx + dims.nu] = st.D2
            assert np.array_equal(qdp.lifted_cross(), cross)
