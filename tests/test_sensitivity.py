"""Direction construction, the sensitivity pipeline, and decay certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdpsens as qs
from qdpsens.verify import _random_orthogonal

from conftest import random_direction


def _change_basis(qdp, T, U):
    """qdp in coordinates p_k = T_k p~_k, q_k = U_k q~_k (p~_0 = T_0^{-1} l_{-1})."""
    stages = []
    for k, blk in enumerate(qdp.stages):
        inv_next = np.linalg.inv(T[k + 1])
        stages.append({
            "Q": T[k].T @ blk.Q @ T[k], "R": U[k].T @ blk.R @ U[k], "S": U[k].T @ blk.S @ T[k],
            "D1": blk.D1 @ T[k], "D2": blk.D2 @ U[k],
            "A": inv_next @ blk.A @ T[k], "B": inv_next @ blk.B @ U[k], "C": inv_next @ blk.C})
    return qs.QdpProblem(qdp.dims, stages, T[-1].T @ qdp.terminal_Q @ T[-1])


class TestUnitDirection:
    def test_initial_block(self):
        dims = qs.Dims(N=4, nx=3, nu=1, nd=2)
        l = qs.unit_direction(dims, -1, 1)
        assert l.l_minus1[0] == 1.0
        assert np.count_nonzero(l.dense()) == 1
        assert l.source_stage == -1

    def test_stage_block(self):
        dims = qs.Dims(N=4, nx=3, nu=1, nd=2)
        l = qs.unit_direction(dims, 0, 1)
        assert l.l_stages[0, 0] == 1.0
        assert np.count_nonzero(l.dense()) == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_norm_and_support(self, data):
        N = data.draw(st.integers(1, 6))
        nx = data.draw(st.integers(1, 3))
        nd = data.draw(st.integers(1, 3))
        dims = qs.Dims(N=N, nx=nx, nu=1, nd=nd)
        i = data.draw(st.integers(-1, N - 1))
        block = nx if i == -1 else nd
        j = data.draw(st.integers(1, block))
        l = qs.unit_direction(dims, i, j)
        assert l.norm() == pytest.approx(1.0)
        dense = l.dense()
        lo = 0 if i == -1 else nx + i * nd
        hi = nx if i == -1 else nx + (i + 1) * nd
        assert np.all(dense[:lo] == 0.0) and np.all(dense[hi:] == 0.0)

    def test_out_of_range(self):
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        with pytest.raises(qs.ValidationError):
            qs.unit_direction(dims, 2, 1)
        with pytest.raises(qs.ValidationError):
            qs.unit_direction(dims, 0, 2)

    def test_block_normalization(self):
        dims = qs.Dims(N=3, nx=2, nu=1, nd=2)
        l = qs.direction_in_block(dims, 1, [3.0, 4.0])
        assert l.norm() == pytest.approx(1.0)
        assert l.l_stages[1] == pytest.approx([0.6, 0.8])


class TestSolveSensitivity:
    def test_zero_direction(self, small_pool):
        qdp = small_pool[0]
        res = qs.solve_sensitivity(qdp, qs.PerturbationDirection.zero(qdp.dims))
        assert np.max(res.state_norms) <= 1e-14
        assert np.max(res.control_norms) <= 1e-14

    def test_matches_dense_oracle(self, small_pool):
        rng = np.random.default_rng(77)
        for qdp in small_pool:
            l = random_direction(qdp, rng)
            res = qs.solve_sensitivity(qdp, l)
            ref = qs.dense_kkt_solve(qdp, l).trajectory.stacked()
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(res.trajectory.stacked() - ref)) / scale <= 1e-8

    def test_tracking_toy_support_structure(self, tracking_linear_qdp):
        """The reference-driven toy problem has no state coupling, so a
        stage-i perturbation moves only stages i and i+1 of the states.
        The certified envelope still dominates everywhere."""
        i = 20
        l = qs.unit_direction(tracking_linear_qdp.dims, i, 1)
        res = qs.solve_sensitivity(tracking_linear_qdp, l)
        nonzero = np.nonzero(res.state_norms > 1e-12)[0]
        assert set(nonzero) == {i, i + 1}
        assert res.state_norms[i] == pytest.approx(1.0 / 9.0, rel=1e-10)
        assert res.state_norms[i + 1] == pytest.approx(20.0 / 9.0, rel=1e-10)
        rep = qs.theoretical_constants(tracking_linear_qdp, res.delta)
        bound = rep.decay_bound(i, np.arange(tracking_linear_qdp.dims.N + 1))
        assert np.all(res.state_norms <= bound + 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(-15, 15), seed=st.integers(0, 20))
    @example(k=-15, seed=7)
    def test_invariant_under_cost_scaling(self, k, seed):
        """Scaling Q, R, S, D1, D2 and Q_N by 10^k scales gamma, the shift and
        every curvature check alike, so the sensitivity does not move."""
        qdp = qs.random_sosc_qdp(seed, N=12, nx=3, nu=2, nd=2)
        scale = 10.0 ** k
        stages = [
            {"Q": scale * blk.Q, "R": scale * blk.R, "S": scale * blk.S,
             "D1": scale * blk.D1, "D2": scale * blk.D2, "A": blk.A, "B": blk.B, "C": blk.C}
            for blk in qdp.stages
        ]
        scaled = qs.QdpProblem(qdp.dims, stages, scale * qdp.terminal_Q)
        l = random_direction(qdp, np.random.default_rng(seed))
        ref = qs.solve_sensitivity(qdp, l).trajectory.stacked()
        got = qs.solve_sensitivity(scaled, l).trajectory.stacked()
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 200), nu=st.integers(1, 3))
    @example(seed=4, nu=2)
    def test_invariant_under_change_of_basis(self, seed, nu):
        """In coordinates p_k = T_k p~_k, q_k = U_k q~_k the sensitivity maps back
        to the original; orthogonal T, U also leave gamma and lambda_c alone."""
        qdp = qs.random_sosc_qdp(seed, N=int(seed % 9) + 3, nx=3, nu=nu, nd=2)
        N, nx = qdp.dims.N, qdp.dims.nx
        rng = np.random.default_rng(seed)

        def conditioned(n):
            return _random_orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _random_orthogonal(rng, n)

        T = [conditioned(nx) for _ in range(N + 1)]
        U = [conditioned(nu) for _ in range(N)]
        l = random_direction(qdp, rng)
        l_new = qs.PerturbationDirection(np.linalg.solve(T[0], l.l_minus1), l.l_stages)
        ref = qs.solve_sensitivity(qdp, l).trajectory
        got = qs.solve_sensitivity(_change_basis(qdp, T, U), l_new).trajectory
        states = np.einsum("kij,kj->ki", np.array(T), got.states)
        controls = np.einsum("kij,kj->ki", np.array(U), got.controls)
        back = qs.Trajectory(states, controls).stacked()
        assert np.max(np.abs(back - ref.stacked())) <= 1e-9 * np.max(np.abs(ref.stacked()))

        To, Uo = _random_orthogonal(rng, nx), _random_orthogonal(rng, nu)
        rotated = _change_basis(qdp, [To] * (N + 1), [Uo] * N)
        assert qs.reduced_hessian_gamma(rotated) == pytest.approx(
            qs.reduced_hessian_gamma(qdp), rel=1e-10, abs=0.0)
        a, b = qs.auto_controllability(qdp), qs.auto_controllability(rotated)
        assert a.passed == b.passed
        assert b.lambda_c == pytest.approx(a.lambda_c, rel=1e-10, abs=0.0)

    def test_sosc_failure_raised(self):
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[-1.0]], R=[[-1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[1.0]], terminal_Q=[[-1.0]])
        with pytest.raises(qs.SoscFailed):
            qs.solve_sensitivity(qdp, qs.PerturbationDirection.zero(dims))


class TestControllability:
    def test_tracking_toy_one_step(self, tracking_linear_qdp):
        rep = qs.controllability(tracking_linear_qdp, 1.0, t_max=5)
        assert rep.passed
        assert rep.t == 1
        assert all(t == 1 for t in rep.t_stages)

    def test_zero_input_matrix_fails(self):
        dims = qs.Dims(N=4, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[0.0]], C=[[1.0]], terminal_Q=[[1.0]])
        rep = qs.controllability(qdp, 1e-6, t_max=4)
        assert not rep.passed
        assert all(t is None for t in rep.t_stages)

    def test_identity_pair(self):
        dims = qs.Dims(N=3, nx=2, nu=2, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=np.eye(2), R=np.eye(2), S=np.zeros((2, 2)),
            D1=np.zeros((1, 2)), D2=np.zeros((1, 2)),
            A=np.eye(2), B=np.eye(2), C=np.ones((2, 1)), terminal_Q=np.eye(2))
        rep = qs.controllability(qdp, 1.0)
        assert rep.passed and rep.t == 1
        xi = qs.reachability_matrix(qdp, 0, 1)
        assert np.array_equal(xi @ xi.T, np.eye(2))

    def test_two_step_reachability(self):
        """A tall input matrix needs two stages to span the state space."""
        dims = qs.Dims(N=4, nx=2, nu=1, nd=1)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        B = np.array([[1.0], [0.0]])
        qdp = qs.QdpProblem.constant(
            dims, Q=np.eye(2), R=[[1.0]], S=np.zeros((1, 2)),
            D1=np.zeros((1, 2)), D2=np.zeros((1, 1)),
            A=A, B=B, C=np.ones((2, 1)), terminal_Q=np.eye(2))
        rep = qs.controllability(qdp, 0.5, t_max=4)
        # interior stages reach in 2, the final stage cannot (window too short)
        assert rep.t_stages[0] == 2
        assert rep.t_stages[-1] is None
        assert not rep.passed


def _two_step_qdp(N: int = 6):
    """Interior stages need two steps to reach; the last stage reaches in one."""
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    stage = {"Q": np.eye(2), "R": np.eye(2), "S": np.zeros((2, 2)),
             "D1": np.zeros((1, 2)), "D2": np.zeros((1, 2)), "A": A,
             "B": np.diag([1.0, 0.0]), "C": np.ones((2, 1))}
    stages = [dict(stage) for _ in range(N - 1)] + [dict(stage, B=np.eye(2))]
    return qs.QdpProblem(qs.Dims(N=N, nx=2, nu=2, nd=1), stages, np.eye(2))


class TestAutoControllability:
    def test_report_equals_fixed_floor_report(self, square_pool, tracking_linear_qdp):
        for qdp in [*square_pool, tracking_linear_qdp, _two_step_qdp()]:
            rep = qs.auto_controllability(qdp)
            ref = qs.controllability(qdp, rep.lambda_c, t_max=qdp.dims.N)
            assert rep.passed
            assert (rep.lambda_c, rep.t_stages, rep.t, rep.passed) == (
                ref.lambda_c, ref.t_stages, ref.t, ref.passed)

    def test_multi_step_horizons(self):
        rep = qs.auto_controllability(_two_step_qdp())
        assert rep.t == 2
        assert rep.t_stages == (2, 2, 2, 2, 2, 1)

    def test_scan_takes_only_the_lengths_it_needs(self, monkeypatch):
        """Both readers stop the stacked scan as soon as their answer is fixed and
        build no explicit reachability window."""
        lengths = []
        scan = qs.sensitivity._gramian_scan

        def counting(qdp, t_max):
            for t, eig in enumerate(scan(qdp, t_max), 1):
                lengths.append(t)
                yield eig

        def no_window(*args):
            raise AssertionError("explicit reachability window built")

        monkeypatch.setattr(qs.sensitivity, "_gramian_scan", counting)
        monkeypatch.setattr(qs.verify, "reachability_matrix", no_window)
        assert not hasattr(qs.sensitivity, "reachability_matrix")
        for reader in (qs.auto_controllability, lambda qdp: qs.controllability(qdp, 0.5)):
            lengths.clear()
            assert reader(_two_step_qdp()).passed
            assert lengths == [1, 2]
        for seed in range(3):
            # The last stage's only window B_{N-1} has rank nu < nx: one step
            # decides, two more give the fixed-floor report.
            lengths.clear()
            rep = qs.auto_controllability(qs.random_sosc_qdp(seed, N=40, nx=4, nu=2, nd=2))
            assert not rep.passed and rep.t_stages[-1] is None
            assert len(lengths) <= 3

    def test_horizon_bounds_validated(self, tracking_linear_qdp):
        for t_max in (0, tracking_linear_qdp.dims.N + 1):
            with pytest.raises(qs.ValidationError):
                qs.auto_controllability(tracking_linear_qdp, t_max=t_max)


class TestGramianScan:
    def test_matches_explicit_windows(self, small_pool, square_pool):
        nu_lt_nx = [qs.random_sosc_qdp(seed, N=9, nx=4, nu=2, nd=2) for seed in range(4)]
        for qdp in [*small_pool, *square_pool, _two_step_qdp(), *nu_lt_nx]:
            N = qdp.dims.N
            for t, eig in enumerate(qs.sensitivity._gramian_scan(qdp, None), 1):
                assert eig.shape == (N - t + 1,)
                for k in range(N - t + 1):
                    xi = qs.reachability_matrix(qdp, k, t)
                    ref = np.linalg.eigvalsh(xi @ xi.T)
                    assert abs(eig[k] - ref[0]) <= 1e-12 * max(1.0, ref[-1])

    def test_failing_auto_report_is_the_fixed_floor_report(self):
        for seed in range(3):
            qdp = qs.random_sosc_qdp(seed, N=12, nx=4, nu=2, nd=2)
            for t_max in (None, 1, 2):
                rep = qs.auto_controllability(qdp, t_max=t_max)
                assert rep == qs.controllability(qdp, qs.sensitivity.GRAMIAN_FLOOR, t_max=t_max)
                assert not rep.passed


class TestTheoreticalConstants:
    def test_rate_formula_plugin(self):
        # upsilon_tilde_qbar = 1, lambda_h = 1 gives envelope 1 and rate 1/sqrt(2)
        assert np.sqrt(1.0 / 1.0) == pytest.approx(1.0)
        assert np.sqrt(1.0 / (1.0 + 1.0)) == pytest.approx(1.0 / np.sqrt(2.0))

    def test_single_step_reachability_sum(self, tracking_linear_qdp):
        rep = qs.theoretical_constants(tracking_linear_qdp, 8.1)
        assert rep.t == 1
        assert rep.psi == pytest.approx(rep.upsilon)
        assert rep.lambda_c == pytest.approx(1.0)
        assert rep.upsilon == pytest.approx(20.0)

    def test_report_invariants(self, square_pool):
        for qdp in square_pool[:4]:
            gamma = qs.reduced_hessian_gamma(qdp)
            rep = qs.theoretical_constants(qdp, 0.9 * gamma)
            assert 0.0 < rep.rho < 1.0
            assert rep.lambda_h <= rep.delta + 1e-15
            assert rep.lambda_h == pytest.approx(rep.lambda_bcs)
            assert rep.upsilon_uf == max(rep.upsilon_u, rep.upsilon_f)
            assert rep.upsilon_pq >= rep.upsilon_p
            assert rep.upsilon_e == pytest.approx(np.sqrt(rep.upsilon_tilde_qbar / rep.lambda_h))

    def test_envelope_dominates_solutions_everywhere(self, tracking_linear_qdp):
        rep = qs.theoretical_constants(tracking_linear_qdp, 8.1)
        N = tracking_linear_qdp.dims.N
        for i in range(-1, N):
            l = qs.unit_direction(tracking_linear_qdp.dims, i, 1)
            res = qs.solve_sensitivity(tracking_linear_qdp, l)
            bound = rep.decay_bound(i, np.arange(N + 1))
            assert np.all(res.state_norms <= bound + 1e-9)
            assert np.all(res.control_norms <= bound[:N] + 1e-9)

    def test_delta_domain_enforced(self, tracking_linear_qdp):
        with pytest.raises(qs.ValidationError):
            qs.theoretical_constants(tracking_linear_qdp, 9.5)
        with pytest.raises(qs.ValidationError):
            qs.theoretical_constants(tracking_linear_qdp, 0.0)

    def test_controllability_failure_raised(self):
        dims = qs.Dims(N=4, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[0.0]], C=[[1.0]], terminal_Q=[[1.0]])
        with pytest.raises(qs.ControllabilityFailed):
            qs.theoretical_constants(qdp, 0.5)

    def test_controllability_failure_names_the_stage(self):
        dims = qs.Dims(N=4, nx=1, nu=1, nd=1)
        unreachable = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[0.0]], C=[[1.0]], terminal_Q=[[1.0]])
        with pytest.raises(qs.ControllabilityFailed) as info:
            qs.theoretical_constants(unreachable, 0.5)
        assert (info.value.stage, info.value.lambda_c) == (0, 1e-6)
        assert "stage 0" in str(info.value) and "1e-06" in str(info.value)
        qdp = qs.random_sosc_qdp(1, N=12, nx=4, nu=2, nd=2)
        delta = 0.5 * qs.reduced_hessian_gamma(qdp)
        for lambda_c in (None, 1e-6):
            with pytest.raises(qs.ControllabilityFailed) as info:
                qs.theoretical_constants(qdp, delta, lambda_c=lambda_c)
            assert (info.value.stage, info.value.lambda_c) == (qdp.dims.N - 1, 1e-6)


class TestLambdaBcs:
    def test_hand_values(self):
        assert qs.lambda_bcs(1.0, 0.0, 1.0) == pytest.approx(1.0)
        assert qs.lambda_bcs(2.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_domain(self):
        with pytest.raises(qs.ValidationError):
            qs.lambda_bcs(0.0, 1.0, 1.0)
        with pytest.raises(qs.ValidationError):
            qs.lambda_bcs(1.0, -1.0, 1.0)

    def test_lower_bounds_sampled_block_matrices(self):
        """The formula bounds the smallest eigenvalue of any block matrix
        assembled to match the component bounds."""
        rng = np.random.default_rng(123)
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            C = rng.standard_normal((m, m))
            C = C @ C.T + 0.5 * np.eye(m)
            Bmat = 0.8 * rng.standard_normal((m, n))
            schur = rng.standard_normal((n, n))
            schur = schur @ schur.T + 0.4 * np.eye(n)
            A = schur + Bmat.T @ np.linalg.solve(C, Bmat)
            H = np.block([[A, Bmat.T], [Bmat, C]])
            beta_c = float(np.linalg.eigvalsh(C)[0])
            beta_s = float(np.linalg.eigvalsh(schur)[0])
            beta_b = float(np.linalg.norm(Bmat, 2))
            floor = qs.lambda_bcs(beta_s, beta_b, beta_c)
            assert np.linalg.eigvalsh(H)[0] >= floor - 1e-9


class TestFitDecayRate:
    def test_exact_geometric(self):
        i = 6
        ks = np.arange(15)
        norms = 0.5 ** np.abs(ks - i)
        fit = qs.fit_decay_rate(norms, i)
        assert fit.rho_fit == pytest.approx(0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(0.05, 0.95), i=st.integers(0, 9), scale=st.floats(0.1, 10.0))
    def test_recovers_rate_and_intercept(self, rho, i, scale):
        ks = np.arange(12)
        norms = scale * rho ** np.abs(ks - i)
        fit = qs.fit_decay_rate(norms, i)
        assert fit.rho_fit == pytest.approx(rho, rel=1e-10)
        assert np.exp(fit.intercept) == pytest.approx(scale, rel=1e-9)

    def test_closed_form_matches_polyfit(self, small_pool):
        """The centered closed-form line agrees with a degree-1 ``np.polyfit`` on pipeline norms."""
        for qdp in small_pool:
            i = qdp.dims.N // 2
            res = qs.solve_sensitivity(qdp, qs.unit_direction(qdp.dims, i, 1))
            for norms in (res.state_norms, res.control_norms):
                for side in ("left", "right"):
                    try:
                        fit = qs.fit_decay_rate(norms, i, side=side)
                    except qs.InsufficientData:
                        continue
                    ks = np.arange(norms.size)
                    keep = (norms > qs.sensitivity.DECAY_FLOOR) & ((ks < i) if side == "left" else (ks > i))
                    x, y = np.abs(ks[keep] - i).astype(float), np.log(norms[keep])
                    slope, intercept = np.polyfit(x, y, 1)
                    r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
                    assert fit.rho_fit == pytest.approx(np.exp(slope), rel=1e-13)
                    assert fit.intercept == pytest.approx(intercept, rel=1e-13, abs=1e-13 * np.max(np.abs(y)))
                    assert fit.r_squared == pytest.approx(r2, rel=1e-13)

    def test_all_below_floor(self):
        with pytest.raises(qs.InsufficientData):
            qs.fit_decay_rate(np.full(10, 1e-15), 5)

    def test_single_sided(self):
        norms = np.concatenate([np.zeros(5), [1.0, 0.5, 0.25, 0.125]])
        fit = qs.fit_decay_rate(norms, 5, side="right")
        assert fit.rho_fit == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(qs.InsufficientData):
            qs.fit_decay_rate(norms, 5, side="left")


class TestFiniteDifferenceSensitivity:
    def test_zero_direction(self, tracking_exp_model):
        l = qs.PerturbationDirection.zero(tracking_exp_model.dims)
        traj = qs.finite_difference_sensitivity(tracking_exp_model, l, 1e-2)
        assert np.max(np.abs(traj.stacked())) <= 1e-12

    def test_linear_model_exact_for_any_eps(self, tracking_linear_model, tracking_linear_qdp):
        """Affine dynamics and quadratic cost make the solution map linear,
        so the difference quotient equals the derivative at any scale."""
        l = qs.unit_direction(tracking_linear_model.dims, 20, 1)
        res = qs.solve_sensitivity(tracking_linear_qdp, l)
        for eps in (0.5, 1e-2):
            fd = qs.finite_difference_sensitivity(tracking_linear_model, l, eps)
            assert np.max(np.abs(fd.stacked() - res.trajectory.stacked())) <= 1e-9

    def test_first_order_convergence_on_exp_model(self, tracking_exp_model, tracking_exp_qdp):
        l = qs.unit_direction(tracking_exp_model.dims, 20, 1)
        res = qs.solve_sensitivity(tracking_exp_qdp, l)
        errors = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            fd = qs.finite_difference_sensitivity(tracking_exp_model, l, eps)
            errors.append(np.max(np.abs(fd.stacked() - res.trajectory.stacked())))
        for a, b in zip(errors, errors[1:]):
            assert 1.5 <= a / b <= 2.5


class TestFittedVersusCertifiedRate:
    def test_certified_rate_is_an_upper_envelope(self):
        """On a coupled chain with genuine decay, the fitted rate stays
        below the certified one (which is deliberately conservative)."""
        qdp = qs.tridiagonal_chain_qdp(30, 0.5, seed=5, b_scale=0.8)
        i = 15
        res = qs.solve_sensitivity(qdp, qs.unit_direction(qdp.dims, i, 1))
        rep = qs.theoretical_constants(qdp, res.delta)
        fit = qs.fit_decay_rate(res.state_norms, i)
        assert fit.n_points >= 6
        assert fit.rho_fit <= rep.rho + 0.05
        assert res.rho_fit == pytest.approx(fit.rho_fit)


class TestConcurrentUse:
    def test_parallel_solves_match_serial(self, small_pool):
        from concurrent.futures import ThreadPoolExecutor

        qdp = small_pool[0]
        dirs = [qs.unit_direction(qdp.dims, i, 1) for i in range(-1, qdp.dims.N)]
        serial = [qs.solve_sensitivity(qdp, l).trajectory.stacked() for l in dirs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(
                lambda l: qs.solve_sensitivity(qdp, l).trajectory.stacked(), dirs))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestMonotonicity:
    def test_certificate_improves_with_curvature(self):
        """Fixed-data-norm chain family: larger certified curvature gives a
        faster certified rate and a smaller envelope."""
        N = 16
        rhos, envs, gammas = [], [], []
        for gamma0 in (1.0, 2.0, 4.0, 8.0):
            beta = (40.0 - 4.0 * gamma0) / 4.0
            qdp = qs.tridiagonal_chain_qdp(N, gamma0, seed=3, b_values=np.full(N, -beta))
            gamma = qs.reduced_hessian_gamma(qdp)
            rep = qs.theoretical_constants(qdp, 0.9 * gamma)
            gammas.append(gamma)
            rhos.append(rep.rho)
            envs.append(rep.upsilon_pq)
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))
        assert all(a >= b for a, b in zip(envs, envs[1:]))


class TestDecayCsv:
    def test_contract(self, tmp_path, tracking_linear_qdp):
        l = qs.unit_direction(tracking_linear_qdp.dims, 20, 1)
        res = qs.solve_sensitivity(tracking_linear_qdp, l)
        rep = qs.theoretical_constants(tracking_linear_qdp, res.delta)
        path = tmp_path / "decay.csv"
        qs.write_decay_csv(path, res, rep)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,norm_p,norm_q,log_ratio,theory_bound"
        assert len(lines) == 1 + tracking_linear_qdp.dims.N + 1
        last = lines[-1].split(",")
        assert last[0] == str(tracking_linear_qdp.dims.N)
        assert last[2] == ""  # no terminal control
        # clamped log for exactly-zero stages
        row0 = lines[1].split(",")
        assert float(row0[3]) == -500.0
