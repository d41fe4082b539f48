"""Backward/forward recursion tests against hand values and dense oracles."""

import numpy as np
import pytest

import qdpsens as qs
from qdpsens import materialize_influence
from qdpsens.riccati import _POSV, _influence_sweep, _sweep, forward_solve_block

from conftest import expanding, overflowing, planted, random_direction


def one_step_chain():
    dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
    return qs.QdpProblem.constant(
        dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
        A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])


# W_k = diag(1, 1e-14): a Cholesky solve clears it, the relative floor W_MIN_EIG does not.
BELOW_FLOOR = np.diag([-1.0, -2.0 + 1e-14])


def convexified(qdp, fraction=0.9):
    conv = qs.convexify(qdp, qs.select_delta(qdp, fraction))
    return conv.as_qdp()


class TestBackwardPass:
    def test_decoupled_scalar_chain(self):
        dims = qs.Dims(N=5, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        rs = qs.backward_pass(qdp)
        for k in range(5):
            assert rs.K[k][0, 0] == pytest.approx(1.0)
            assert rs.W[k][0, 0] == pytest.approx(2.0)
            assert rs.P[k][0, 0] == pytest.approx(0.0)
            assert rs.E[k][0, 0] == pytest.approx(0.0)

    def test_one_step_hand_values(self):
        rs = qs.backward_pass(one_step_chain())
        assert rs.K[1][0, 0] == pytest.approx(1.0)
        assert rs.W[0][0, 0] == pytest.approx(2.0)
        assert rs.P[0][0, 0] == pytest.approx(-0.5)
        assert rs.E[0][0, 0] == pytest.approx(0.5)
        assert rs.K[0][0, 0] == pytest.approx(1.5)

    def test_closed_loop_identity_residual(self, small_pool):
        for qdp in small_pool:
            rs = qs.backward_pass(convexified(qdp))
            assert rs.closed_loop_identity_residual <= 1e-9

    def test_stacked_outputs_equal_stage_loop(self, small_pool, square_pool):
        """E and the identity residual are formed over stacks after the loop;
        the per-stage products they replace give the same bits."""
        for qdp in small_pool + square_pool:
            cq = convexified(qdp)
            rs = qs.backward_pass(cq)
            worst = 0.0
            for k, st in enumerate(cq.stages):
                assert np.array_equal(rs.E[k], st.A + st.B @ rs.P[k])
                basis = np.vstack([np.eye(qdp.dims.nx), rs.P[k]])
                hess = np.block([[st.Q, st.S.T], [st.S, st.R]])
                rebuilt = rs.E[k].T @ rs.K[k + 1] @ rs.E[k] + basis.T @ hess @ basis
                worst = max(worst, np.max(np.abs(rs.K[k] - rebuilt)), np.max(np.abs(rs.K[k] - rs.K[k].T)))
            assert rs.closed_loop_identity_residual == worst

    def test_indefinite_w_raises(self):
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[-2.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(qdp)
        assert err.value.min_eig < 0

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_indefinite_w_names_its_stage(self, stage):
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(planted({stage: np.diag([-3.0, 1.0])}))
        assert (err.value.stage, err.value.min_eig) == (stage, pytest.approx(-1.0, abs=1e-12))

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_w_below_its_floor_is_named_after_the_loop(self, stage):
        """Every solve succeeds and the stages below the planted one finish; the check
        after the loop still names the planted stage."""
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(planted({stage: BELOW_FLOOR}))
        assert err.value.stage == stage
        assert 0.0 < err.value.min_eig <= qs.riccati.W_MIN_EIG

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_w_below_its_floor_carries_its_threshold(self, stage):
        """The error carries and prints the floor it failed: W_MIN_EIG times the block's
        largest |eigenvalue|, which is 1 for the planted W = diag(1, 1e-14)."""
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(planted({stage: BELOW_FLOOR}))
        assert err.value.stage == stage
        assert abs(err.value.min_eig) <= err.value.threshold
        assert err.value.threshold == pytest.approx(qs.riccati.W_MIN_EIG, rel=1e-12)
        assert f"stage {stage}" in str(err.value) and f"{err.value.threshold:.3e}" in str(err.value)

    def test_indefinite_w_carries_its_threshold(self):
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(planted({3: np.diag([-3.0, 1.0])}))
        assert err.value.stage == 3
        assert err.value.min_eig <= err.value.threshold
        assert 0.0 < err.value.threshold <= 1e-11

    def test_first_failing_stage_in_backward_order_is_named(self):
        qdp = planted({1: np.diag([-3.0, 1.0]), 4: BELOW_FLOOR})
        with pytest.raises(qs.IndefiniteW) as err:
            qs.backward_pass(qdp)
        assert err.value.stage == 4

    @pytest.mark.parametrize("N, stage", [(20, 3), (30, 13), (40, 23)])
    def test_rounding_guard_names_the_stage(self, N, stage):
        """K grows 9^k and W_k = R + B' K B cancels: the count's guard rule refuses the
        block whose sign is rounding, the stage the count names too."""
        with pytest.raises(qs.UncertainInertia) as err:
            qs.backward_pass(expanding(N))
        assert err.value.stage == stage
        assert abs(err.value.min_eig) <= err.value.threshold

    def test_rounding_guard_clear_while_the_growth_is_mild(self):
        rs = qs.backward_pass(expanding(10))
        assert rs.closed_loop_identity_residual <= 1e-6

    def test_overflow_in_the_recursion_is_a_validation_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(qs.ValidationError, match="stage 2"):
                qs.backward_pass(overflowing())

    def test_k_energy_monotone_along_closed_loop(self, small_pool):
        """With semidefinite transformed Hessians the cost-to-go energy of
        the homogeneous closed loop never increases."""
        rng = np.random.default_rng(12)
        for qdp in small_pool[:4]:
            cq = convexified(qdp)
            rs = qs.backward_pass(cq)
            p = rng.standard_normal(qdp.dims.nx)
            for j in range(qdp.dims.N):
                p_next = rs.E[j] @ p
                assert p @ rs.K[j] @ p >= p_next @ rs.K[j + 1] @ p_next - 1e-9
                p = p_next


class TestStageKernel:
    def test_k_matches_a_40_digit_recursion_at_nx_8(self):
        """Every K_k of the original problem's sweep within 1e-12 relative (Frobenius) of the
        same recursion run in 40 digits. Without the per-stage symmetrization the error grew
        about 2.4x per stage on this instance, to 0.77 at stage 10."""
        import mpmath

        qdp = qs.random_sosc_qdp(1, N=50, nx=8, nu=4, nd=2)
        nx = qdp.dims.nx
        H = qdp.stage_hessians()
        AB = np.concatenate([qdp.blocks["A"], qdp.blocks["B"]], axis=2)
        _, K, *_ = _sweep(H, AB, qdp.terminal_Q, _POSV)
        with mpmath.workdps(40):
            K_exact = mpmath.matrix(qdp.terminal_Q.tolist())
            for k in range(qdp.dims.N - 1, -1, -1):
                AB_k = mpmath.matrix(AB[k].tolist())
                F = mpmath.matrix(H[k].tolist()) + AB_k.T * K_exact * AB_k
                G = F[nx:, :nx]
                K_exact = F[:nx, :nx] - G.T * (F[nx:, nx:] ** -1 * G)
                exact = np.array(K_exact.tolist(), dtype=float)
                assert np.linalg.norm(K[k] - exact) <= 1e-12 * np.linalg.norm(exact), k

    def test_k_is_exactly_symmetric(self, small_pool):
        for qdp in small_pool:
            K = qs.backward_pass(convexified(qdp)).K
            assert np.array_equal(K, np.swapaxes(K, 1, 2))


class TestForwardSolve:
    def test_zero_direction_zero_trajectory(self, small_pool):
        qdp = small_pool[0]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        traj = qs.forward_solve(rs, cq, qs.PerturbationDirection.zero(qdp.dims))
        assert np.max(np.abs(traj.stacked())) <= 1e-14

    def test_one_step_initial_direction(self):
        qdp = one_step_chain()
        rs = qs.backward_pass(qdp)
        l = qs.unit_direction(qdp.dims, -1, 1)
        traj = qs.forward_solve(rs, qdp, l)
        assert traj.controls[0, 0] == pytest.approx(-0.5)
        assert traj.states[:, 0] == pytest.approx([1.0, 0.5])

    def test_matches_dense_oracle(self, small_pool):
        rng = np.random.default_rng(21)
        for qdp in small_pool:
            cq = convexified(qdp)
            rs = qs.backward_pass(cq)
            for kind in ("initial", "stage", "any"):
                l = random_direction(qdp, rng, kind)
                traj = qs.forward_solve(rs, cq, l)
                ref = qs.dense_kkt_solve(qdp, l).trajectory.stacked()
                scale = max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(traj.stacked() - ref)) / scale <= 1e-8


    def test_stacked_sweeps_equal_stage_loop(self, shape_pool):
        """The sweeps form their direction products over the stacks before
        looping; per-stage loops in the same closed-loop form, the adjoint
        s_k = drive_k + E_k' s_{k+1} and the roll p_{k+1} = E_k p_k + push_k,
        give the same bits."""
        rng = np.random.default_rng(4)
        for qdp in shape_pool:
            fac = qs.factorize(qdp)
            rs, cq, dims = fac.riccati, fac.convexified.as_qdp(), qdp.dims
            N, nx, nu = dims.N, dims.nx, dims.nu
            for L in (np.eye(dims.n_dir), rng.standard_normal((3, dims.n_dir))):
                m = L.shape[0]
                lst = np.ascontiguousarray(L[:, nx:].reshape(m, N, dims.nd).transpose(1, 2, 0))
                s = np.zeros((N + 1, nx, m))
                for k in range(N - 1, -1, -1):
                    st, lk = cq.stages[k], lst[k]
                    drive = -(rs.E[k].T @ (rs.K[k + 1] @ (st.C @ lk)) + (st.D1 + st.D2 @ rs.P[k]).T @ lk)
                    s[k] = drive + rs.E[k].T @ s[k + 1]
                states, controls = np.empty((N + 1, nx, m)), np.empty((N, nu, m))
                states[0] = L[:, :nx].T
                for k, st in enumerate(cq.stages):
                    cl = st.C @ lst[k]
                    drive = st.B.T @ (s[k + 1] - rs.K[k + 1] @ cl) - st.D2.T @ lst[k]
                    feedforward = rs.solve_W(k, drive)
                    controls[k] = rs.P[k] @ states[k] + feedforward
                    states[k + 1] = rs.E[k] @ states[k] + (st.B @ feedforward + cl)
                body = np.concatenate([states[:N], controls], axis=1).reshape(N * (nx + nu), m)
                assert np.array_equal(_influence_sweep(rs, cq, lst)[0], s)
                assert np.array_equal(forward_solve_block(rs, cq, L), np.concatenate([body, states[N]]).T)


class TestCostToGo:
    def test_terminal_stage(self, small_pool):
        qdp = small_pool[0]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        p = np.random.default_rng(0).standard_normal(qdp.dims.nx)
        l = random_direction(qdp, np.random.default_rng(1))
        value = qs.cost_to_go(rs, cq, l, qdp.dims.N, p)
        assert value == pytest.approx(float(p @ rs.K[-1] @ p), rel=1e-12)

    def test_pure_quadratic_when_tail_direction_vanishes(self, small_pool):
        qdp = small_pool[1]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        k = qdp.dims.N // 2
        # direction supported strictly before stage k
        l = qs.unit_direction(qdp.dims, 0, 1)
        if k == 0:
            pytest.skip("horizon too short")
        terms = qs.cost_to_go_terms(rs, cq, l, k)
        assert np.max(np.abs(terms.linear)) <= 1e-12
        assert terms.constant == pytest.approx(0.0, abs=1e-12)
        p = np.random.default_rng(3).standard_normal(qdp.dims.nx)
        assert terms.value(p) == pytest.approx(float(p @ rs.K[k] @ p), rel=1e-12)

    def test_matches_tail_restart_oracle(self, small_pool):
        """J_k(p) equals the optimal objective of the truncated problem
        restarted at p, solved by the dense saddle oracle."""
        rng = np.random.default_rng(7)
        for qdp in small_pool[:5]:
            cq = convexified(qdp)
            rs = qs.backward_pass(cq)
            dims = qdp.dims
            l = random_direction(qdp, rng)
            for k in {1, dims.N // 2, dims.N - 1}:
                if k < 1:
                    continue
                p_k = rng.standard_normal(dims.nx)
                value = qs.cost_to_go(rs, cq, l, k, p_k)
                oracle = tail_objective_oracle(cq, l, k, p_k)
                assert value == pytest.approx(oracle, rel=1e-8, abs=1e-8)


def tail_objective_oracle(cq, l, k, p_k):
    """Optimal tail objective via a truncated problem and the dense oracle."""
    dims = cq.dims
    sub_dims = qs.Dims(N=dims.N - k, nx=dims.nx, nu=dims.nu, nd=dims.nd)
    sub = qs.QdpProblem(
        sub_dims,
        [
            {"Q": st.Q, "R": st.R, "S": st.S, "D1": st.D1, "D2": st.D2,
             "A": st.A, "B": st.B, "C": st.C}
            for st in cq.stages[k:]
        ],
        cq.terminal_Q,
    )
    l_stages = l.l_stages if hasattr(l, "l_stages") else np.asarray(l)[dims.nx:].reshape(dims.N, dims.nd)
    sub_l = qs.PerturbationDirection(np.asarray(p_k, dtype=float), l_stages[k:])
    sol = qs.dense_kkt_solve(sub, sub_l)
    return qs.eval_qdp_objective(sub, sub_l, sol.trajectory)


class TestClosedFormStates:
    def test_initial_direction_products(self, small_pool):
        qdp = small_pool[2]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        l = qs.unit_direction(qdp.dims, -1, 1)
        states = qs.closed_form_p(rs, cq, l)
        acc = np.eye(qdp.dims.nx)
        assert np.allclose(states[0], l.l_minus1)
        for k in range(1, qdp.dims.N + 1):
            acc = rs.E[k - 1] @ acc
            assert np.max(np.abs(states[k] - acc @ l.l_minus1)) <= 1e-12

    def test_one_step_value(self):
        qdp = one_step_chain()
        rs = qs.backward_pass(qdp)
        states = qs.closed_form_p(rs, qdp, qs.unit_direction(qdp.dims, -1, 1))
        assert states[1, 0] == pytest.approx(0.5)

    def test_zero_direction(self, small_pool):
        qdp = small_pool[0]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        states = qs.closed_form_p(rs, cq, qs.PerturbationDirection.zero(qdp.dims))
        assert np.max(np.abs(states)) == 0.0

    def test_matches_forward_solve(self, small_pool):
        rng = np.random.default_rng(31)
        for qdp in small_pool:
            cq = convexified(qdp)
            rs = qs.backward_pass(cq)
            for i in {-1, 0, qdp.dims.N // 2, qdp.dims.N - 1}:
                block = qdp.dims.nx if i == -1 else qdp.dims.nd
                l = qs.unit_direction(qdp.dims, i, int(rng.integers(1, block + 1)))
                closed = qs.closed_form_p(rs, cq, l)
                forward = qs.forward_solve(rs, cq, l).states
                assert np.max(np.abs(closed - forward)) <= 1e-9

    def test_mixed_support_direction(self, small_pool):
        rng = np.random.default_rng(32)
        qdp = small_pool[3]
        cq = convexified(qdp)
        rs = qs.backward_pass(cq)
        vec = rng.standard_normal(qdp.dims.n_dir)
        l = qs.PerturbationDirection.from_dense(qdp.dims, vec / np.linalg.norm(vec))
        closed = qs.closed_form_p(rs, cq, l)
        forward = qs.forward_solve(rs, cq, l).states
        assert np.max(np.abs(closed - forward)) <= 1e-9


class TestClosedLoopProducts:
    def test_single_factor(self, small_pool):
        qdp = small_pool[0]
        rs = qs.backward_pass(convexified(qdp))
        for i in range(qdp.dims.N):
            assert qs.closed_loop_product_norm(rs, i, i) == pytest.approx(
                np.linalg.norm(rs.E[i], 2), rel=1e-10)

    def test_zero_factor_annihilates(self):
        dims = qs.Dims(N=3, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        rs = qs.backward_pass(qdp)
        assert qs.closed_loop_product_norm(rs, 0, 2) == 0.0

    def test_index_order_enforced(self, small_pool):
        rs = qs.backward_pass(convexified(small_pool[0]))
        with pytest.raises(qs.ValidationError):
            qs.closed_loop_product_norm(rs, 2, 1)

    def test_bounded_by_certificate(self, square_pool):
        for qdp in square_pool[:3]:
            gamma = qs.reduced_hessian_gamma(qdp)
            rep = qs.theoretical_constants(qdp, 0.9 * gamma)
            rs = qs.backward_pass(qs.convexify(qdp, 0.9 * gamma).as_qdp())
            N = qdp.dims.N
            for i in range(N):
                for j in range(i, N):
                    bound = rep.upsilon_e * rep.rho ** (j - i + 1)
                    assert qs.closed_loop_product_norm(rs, i, j) <= bound + 1e-9


class TestInfluenceMatrices:
    def test_bounded_by_certificate(self, square_pool):
        for qdp in square_pool[:3]:
            gamma = qs.reduced_hessian_gamma(qdp)
            rep = qs.theoretical_constants(qdp, 0.9 * gamma)
            cq = qs.convexify(qdp, 0.9 * gamma).as_qdp()
            rs = qs.backward_pass(cq)
            N = qdp.dims.N
            for i in {0, N // 2, N - 1}:
                U, F = materialize_influence(rs, cq, i)
                for k in range(N + 1):
                    bound = rep.upsilon_uf * rep.rho ** abs(i - k) + 1e-9
                    assert np.linalg.norm(U[k], 2) <= bound
                    assert np.linalg.norm(F[k], 2) <= bound
