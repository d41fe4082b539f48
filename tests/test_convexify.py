"""Shifting transformation: definiteness guarantees and exact identities."""

import numpy as np
import pytest

import qdpsens as qs
from qdpsens.convexify import INVERTIBILITY_TOL

from conftest import overflowing, planted, random_direction


def min_stage_hessian_eig(conv):
    cq = conv.as_qdp()
    vals = [np.linalg.eigvalsh(hessian)[0] for hessian in cq.stage_hessians()]
    vals.append(np.linalg.eigvalsh(cq.terminal_Q)[0])
    return min(vals)


def min_rt_eig(conv):
    return min(np.linalg.eigvalsh(Rt)[0] for Rt in conv.as_qdp().blocks["R"])


class TestConvexifyIdentities:
    def test_uniform_curvature_fixed_point(self):
        """Q = R = gamma I, S = 0 with shift gamma reproduces the inputs for
        arbitrary dynamics and cross blocks."""
        rng = np.random.default_rng(3)
        gamma = 1.7
        dims = qs.Dims(N=6, nx=2, nu=2, nd=2)
        stages = [
            {"Q": gamma * np.eye(2), "R": gamma * np.eye(2), "S": np.zeros((2, 2)),
             "D1": rng.standard_normal((2, 2)), "D2": rng.standard_normal((2, 2)),
             "A": rng.standard_normal((2, 2)), "B": rng.standard_normal((2, 2)),
             "C": rng.standard_normal((2, 2))}
            for _ in range(6)
        ]
        qdp = qs.QdpProblem(dims, stages, gamma * np.eye(2))
        conv = qs.convexify(qdp, gamma)
        for k, st in enumerate(conv.as_qdp().stages):
            assert np.max(np.abs(st.Q - gamma * np.eye(2))) <= 1e-12
            assert np.max(np.abs(st.R - gamma * np.eye(2))) <= 1e-12
            assert np.max(np.abs(st.S)) <= 1e-12
            assert np.max(np.abs(conv.Qbar[k])) <= 1e-12

    def test_decoupled_dynamics_passthrough(self):
        """With A = B = 0 and S = 0 the bordered update vanishes."""
        rng = np.random.default_rng(4)
        dims = qs.Dims(N=4, nx=2, nu=2, nd=1)
        Qs = [rng.standard_normal((2, 2)) for _ in range(5)]
        Qs = [q + q.T for q in Qs]
        Rs = [np.eye(2) + 0.3 * _sym(rng, 2) for _ in range(4)]
        stages = [
            {"Q": Qs[k], "R": Rs[k], "S": np.zeros((2, 2)),
             "D1": rng.standard_normal((1, 2)), "D2": rng.standard_normal((1, 2)),
             "A": np.zeros((2, 2)), "B": np.zeros((2, 2)),
             "C": rng.standard_normal((2, 1))}
            for k in range(4)
        ]
        qdp = qs.QdpProblem(dims, stages, Qs[4])
        delta = 0.25
        conv = qs.convexify(qdp, delta)
        for k, st in enumerate(conv.as_qdp().stages):
            assert np.allclose(st.R, Rs[k])
            assert np.allclose(st.Q, delta * np.eye(2))
            assert np.allclose(conv.Qbar[k], Qs[k] - delta * np.eye(2))

    def test_schur_identity(self, small_pool):
        for qdp in small_pool:
            gamma = qs.reduced_hessian_gamma(qdp)
            conv = qs.convexify(qdp, 0.5 * gamma)
            for st in conv.as_qdp().stages:
                schur = st.Q - st.S.T @ np.linalg.solve(st.R, st.S)
                assert np.max(np.abs(schur - conv.delta * np.eye(qdp.dims.nx))) <= 1e-9

    def test_cross_blocks_equal_stage_loop(self, small_pool):
        """Dt1 and Dt2 are formed over stacks after the loop; the per-stage
        products they replace give the same bits."""
        for qdp in small_pool:
            conv = qs.convexify(qdp, 0.5 * qs.reduced_hessian_gamma(qdp))
            for k, (st, ct) in enumerate(zip(qdp.stages, conv.as_qdp().stages)):
                assert np.array_equal(ct.D1, st.D1 + st.C.T @ conv.Qbar[k + 1] @ st.A)
                assert np.array_equal(ct.D2, st.D2 + st.C.T @ conv.Qbar[k + 1] @ st.B)


class TestDefinitenessGuarantees:
    def test_sufficient_interval_random_shifts(self):
        """100 randomized certified instances, shift = u * gamma."""
        rng = np.random.default_rng(99)
        for idx in range(100):
            qdp = qs.random_sosc_qdp(5000 + idx, N=int(rng.integers(2, 11)))
            gamma = qs.reduced_hessian_gamma(qdp)
            u = rng.uniform(0.05, 0.95)
            conv = qs.convexify(qdp, u * gamma)
            assert min_rt_eig(conv) >= gamma - 1e-8
            assert min_stage_hessian_eig(conv) > 0.0

    def test_lower_bound_from_measured_constants(self, small_pool):
        for qdp in small_pool:
            gamma = qs.reduced_hessian_gamma(qdp)
            delta = 0.5 * gamma
            conv = qs.convexify(qdp, delta)
            upsilon_tilde = conv.max_block_norm()
            floor = (gamma / (gamma + upsilon_tilde)) ** 2 * delta
            assert min_stage_hessian_eig(conv) >= floor - 1e-8

    def test_zero_shift_semidefinite(self, small_pool):
        for qdp in small_pool[:4]:
            conv = qs.convexify(qdp, 0.0)
            assert conv.semidefinite
            assert min_rt_eig(conv) > 0.0
            assert min_stage_hessian_eig(conv) >= -1e-10

    def test_zero_shift_matches_backward_pass(self, small_pool):
        """Zero-shift outputs reproduce the cost-to-go recursion exactly."""
        for qdp in small_pool:
            conv = qs.convexify(qdp, 0.0)
            rs = qs.backward_pass(qdp)
            for k in range(qdp.dims.N + 1):
                assert np.max(np.abs(conv.Qbar[k] - rs.K[k])) <= 1e-10
            for k in range(qdp.dims.N):
                assert np.max(np.abs(conv.as_qdp().blocks["R"][k] - rs.W[k])) <= 1e-10


class TestShiftedProblem:
    def test_zero_shift_identity(self, small_pool):
        qdp = small_pool[0]
        same = qs.shifted_problem(qdp, 0.0)
        for k in range(qdp.dims.N):
            assert np.array_equal(same.stages[k].Q, qdp.stages[k].Q)
        assert np.array_equal(same.terminal_Q, qdp.terminal_Q)

    def test_scalar_shift(self):
        dims = qs.Dims(N=1, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[3.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[3.0]])
        shifted = qs.shifted_problem(qdp, 1.0)
        assert shifted.stages[0].Q[0, 0] == 2.0
        assert shifted.terminal_Q[0, 0] == 2.0

    def test_claim_identities(self, small_pool):
        """Zero-shift run on the shifted problem reproduces the shifted run."""
        for qdp in small_pool:
            gamma = qs.reduced_hessian_gamma(qdp)
            delta = 0.5 * gamma
            direct = qs.convexify(qdp, delta)
            via_shift = qs.convexify(qs.shifted_problem(qdp, delta), 0.0)
            eye = np.eye(qdp.dims.nx)
            via, want = via_shift.as_qdp().blocks, direct.as_qdp().blocks
            for k in range(qdp.dims.N):
                assert np.max(np.abs(via["R"][k] - want["R"][k])) <= 1e-10
                assert np.max(np.abs(via["S"][k] - want["S"][k])) <= 1e-10
                assert np.max(np.abs(via["Q"][k] - (want["Q"][k] - delta * eye))) <= 1e-10
            for k in range(qdp.dims.N + 1):
                assert np.max(np.abs(via_shift.Qbar[k] - direct.Qbar[k])) <= 1e-10


class TestSelectDelta:
    def test_fraction_arithmetic(self):
        qdp = _chain_with_gamma()
        gamma = qs.reduced_hessian_gamma(qdp)
        assert qs.select_delta(qdp, 0.9) == pytest.approx(0.9 * gamma, rel=1e-12)
        assert qs.select_delta(qdp, 0.5) == pytest.approx(0.5 * gamma, rel=1e-12)

    def test_known_gamma_values(self):
        # pure arithmetic of the contract: fraction * gamma
        assert 0.9 * 18.0 == pytest.approx(16.2)
        assert 0.5 * 18.0 == pytest.approx(9.0)

    def test_sosc_failure(self):
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[-1.0]], R=[[-1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[1.0]], terminal_Q=[[-1.0]])
        with pytest.raises(qs.SoscFailed):
            qs.select_delta(qdp)

    def test_fraction_domain(self):
        qdp = _chain_with_gamma()
        with pytest.raises(qs.ValidationError):
            qs.select_delta(qdp, 1.0)


class TestErrors:
    def test_not_positive_definite_raised(self):
        """A shift far above gamma breaks the control blocks eventually."""
        qdp = qs.assemble_qdp_from_nldp(qs.tracking_toy_model(10, 10.0, 1.0, "linear"))
        # R-tilde = 18 - delta for this problem, so delta > 18 turns it negative
        with pytest.raises(qs.NotPositiveDefinite) as err:
            qs.convexify(qdp, 19.0)
        assert 0 <= err.value.stage < 10

    def test_non_invertible_raised(self):
        qdp = qs.assemble_qdp_from_nldp(qs.tracking_toy_model(10, 10.0, 1.0, "linear"))
        with pytest.raises(qs.NonInvertibleRtilde):
            qs.convexify(qdp, 18.0)  # places an exact zero eigenvalue in Rt

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_near_singular_rt_is_named_after_the_loop(self, stage):
        """Rt_stage = diag(1, 1e-13): the symmetric indefinite solve clears it and the stages
        below finish; the check after the loop names the planted stage."""
        with pytest.raises(qs.NonInvertibleRtilde) as err:
            qs.convexify(planted({stage: np.diag([-1.0, -2.0 + 1e-13])}), 0.0)
        assert err.value.stage == stage
        assert err.value.min_abs_eig == pytest.approx(1e-13, rel=1e-2)

    @pytest.mark.parametrize("stage", [0, 3, 5])
    def test_near_singular_rt_carries_its_threshold(self, stage):
        """The error carries and prints the floor it failed: INVERTIBILITY_TOL times the
        block's largest |eigenvalue|, which is 1 for the planted Rt = diag(1, 1e-13)."""
        with pytest.raises(qs.NonInvertibleRtilde) as err:
            qs.convexify(planted({stage: np.diag([-1.0, -2.0 + 1e-13])}), 0.0)
        assert err.value.stage == stage
        assert abs(err.value.min_abs_eig) <= err.value.threshold
        assert err.value.threshold == pytest.approx(INVERTIBILITY_TOL, rel=1e-12)
        assert f"stage {stage}" in str(err.value) and f"{err.value.threshold:.3e}" in str(err.value)

    def test_indefinite_rt_accepted_at_zero_shift_only(self):
        """B = 0 keeps Rt_k = R_k = diag(1, -1), invertible and indefinite at every stage."""
        dims = qs.Dims(N=4, nx=1, nu=2, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=np.diag([1.0, -1.0]), S=np.zeros((2, 1)), D1=[[0.0]], D2=np.zeros((1, 2)),
            A=[[0.5]], B=np.zeros((1, 2)), C=[[0.0]], terminal_Q=[[1.0]])
        conv = qs.convexify(qdp, 0.0)
        assert conv.semidefinite
        assert all(np.array_equal(Rt, np.diag([1.0, -1.0])) for Rt in conv.as_qdp().blocks["R"])
        with pytest.raises(qs.NotPositiveDefinite) as err:
            qs.convexify(qdp, 0.1)
        assert (err.value.stage, err.value.min_eig) == (3, -1.0)

    def test_overflow_in_the_recursion_is_a_validation_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(qs.ValidationError, match="stage 2"):
                qs.convexify(overflowing(), 0.0)

    def test_negative_delta_rejected(self, small_pool):
        with pytest.raises(qs.ValidationError):
            qs.convexify(small_pool[0], -0.1)


class TestEquivalence:
    def test_zero_direction(self, small_pool):
        qdp = small_pool[0]
        fac = qs.factorize(qdp)
        rep = qs.verify_equivalence(fac, qs.PerturbationDirection.zero(qdp.dims))
        assert rep.passed
        assert rep.objective_offset == pytest.approx(0.0, abs=1e-12)

    def test_stage_direction_offset_vanishes(self, small_pool):
        rng = np.random.default_rng(8)
        for qdp in small_pool[:4]:
            fac = qs.factorize(qdp)
            l = random_direction(qdp, rng, kind="stage")
            rep = qs.verify_equivalence(fac, l)
            assert rep.primal_gap <= 1e-8
            assert rep.expected_offset == 0.0
            assert rep.offset_error <= 1e-8

    def test_initial_direction_offset(self, small_pool):
        rng = np.random.default_rng(9)
        for qdp in small_pool[:4]:
            fac = qs.factorize(qdp)
            l = random_direction(qdp, rng, kind="initial")
            rep = qs.verify_equivalence(fac, l)
            assert rep.primal_gap <= 1e-8
            assert rep.offset_error <= 1e-8
            assert rep.expected_offset == pytest.approx(
                -float(l.l_minus1 @ fac.convexified.Qbar[0] @ l.l_minus1), rel=1e-12, abs=1e-12)

    def test_direction_constant_equals_stage_loop(self, small_pool):
        """One stacked contraction in place of the per-stage sum; only the summation order differs."""
        rng = np.random.default_rng(10)
        for qdp in small_pool:
            conv = qs.factorize(qdp).convexified
            l = random_direction(qdp, rng)
            loop = sum(float((st.C @ lk) @ conv.Qbar[k + 1] @ (st.C @ lk))
                       for k, (st, lk) in enumerate(zip(qdp.stages, l.l_stages)))
            assert conv.direction_constant(l) == pytest.approx(loop, rel=1e-12, abs=1e-14)


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return m + m.T


def _chain_with_gamma():
    return qs.tridiagonal_chain_qdp(8, 2.0, seed=0)
