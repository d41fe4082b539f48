"""Constraint assembly, kernel bases, and reduced-curvature diagnostics."""

import numpy as np
import pytest
import scipy.linalg

import qdpsens as qs
from qdpsens.presets import staircase_kernel_basis

from conftest import make_pool, random_direction


def unit_chain(N=1):
    dims = qs.Dims(N=N, nx=1, nu=1, nd=1)
    return qs.QdpProblem.constant(
        dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
        A=[[1.0]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])


class TestAssembleConstraints:
    def test_scalar_staircase_matrix(self):
        qdp = unit_chain()
        cs = qs.assemble_constraints(qdp, qs.PerturbationDirection.zero(qdp.dims))
        assert np.array_equal(cs.G, np.array([[1.0, 0.0, 0.0], [-1.0, -1.0, 1.0]]))
        assert np.array_equal(cs.y, np.zeros(2))

    def test_initial_block_direction(self):
        qdp = qs.random_sosc_qdp(9, N=4)
        l = qs.unit_direction(qdp.dims, -1, 1)
        cs = qs.assemble_constraints(qdp, l)
        expect = np.zeros(qdp.dims.n_con)
        expect[0] = 1.0
        assert np.array_equal(cs.y, expect)

    def test_rhs_matches_dense_assembly(self):
        rng = np.random.default_rng(5)
        for qdp in make_pool(4, base_seed=700):
            l = random_direction(qdp, rng)
            cs = qs.assemble_constraints(qdp, l)
            # dense oracle: C blocks stacked into a map from l to y
            dims = qdp.dims
            dense = np.zeros((dims.n_con, dims.n_dir))
            dense[:dims.nx, :dims.nx] = np.eye(dims.nx)
            for k, st in enumerate(qdp.stages):
                dense[(k + 1) * dims.nx:(k + 2) * dims.nx,
                      dims.nx + k * dims.nd:dims.nx + (k + 1) * dims.nd] = st.C
            assert np.max(np.abs(cs.y - dense @ l.dense())) <= 1e-14

    def test_placed_staircase_equals_stage_loop(self, shape_pool):
        """G is placed from the A and B stacks and y formed over the C stack; the
        per-stage assembly they replace gives the same bits."""
        rng = np.random.default_rng(8)
        for qdp in shape_pool:
            dims = qdp.dims
            nx, nu = dims.nx, dims.nu
            l = random_direction(qdp, rng)
            G = np.zeros((dims.n_con, dims.n_z))
            G[:nx, :nx] = np.eye(nx)
            y = np.zeros(dims.n_con)
            y[:nx] = l.l_minus1
            for k, st in enumerate(qdp.stages):
                row, col = (k + 1) * nx, k * (nx + nu)
                G[row:row + nx, col:col + nx] = -st.A
                G[row:row + nx, col + nx:col + nx + nu] = -st.B
                G[row:row + nx, col + nx + nu:col + 2 * nx + nu] = np.eye(nx)
                y[row:row + nx] = st.C @ l.l_stages[k]
            cs = qs.assemble_constraints(qdp, l)
            assert np.array_equal(cs.G, G) and np.array_equal(cs.y, y)
            as_lists = qs.staircase_jacobian(dims, [st.A for st in qdp.stages], [st.B for st in qdp.stages])
            assert np.array_equal(as_lists, G)


class TestNullspaceBasis:
    def test_scalar_kernel_direction(self):
        cs = qs.assemble_constraints(unit_chain(), np.zeros(2))
        Z = qs.nullspace_basis(cs).Z
        assert Z.shape == (3, 1)
        expected = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
        sign = np.sign(Z[1, 0]) or 1.0
        assert np.max(np.abs(sign * Z[:, 0] - expected)) <= 1e-12

    def test_invariants_on_random_instances(self, small_pool):
        for qdp in small_pool:
            cs = qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))
            Z = qs.nullspace_basis(cs).Z
            assert Z.shape == (qdp.dims.n_z, qdp.dims.N * qdp.dims.nu)
            assert np.max(np.abs(cs.G @ Z)) <= 1e-10
            assert np.max(np.abs(Z.T @ Z - np.eye(Z.shape[1]))) <= 1e-10

    def test_explicit_staircase_basis_relations(self):
        """The hand-built impulse basis of the unit chain versus computed Z.

        Its Gram matrix is tridiagonal with diagonal 3 (last entry 2) and
        off-diagonal -1, so Gershgorin pins the spectrum inside [1, 5]; the
        computed orthonormal basis must span the same space.
        """
        N = 12
        dims = qs.Dims(N=N, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[3.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[1.0]], C=[[1.0]], terminal_Q=[[3.0]])
        Zt = staircase_kernel_basis(N)
        cs = qs.assemble_constraints(qdp, np.zeros(dims.n_dir))
        assert np.max(np.abs(cs.G @ Zt)) == 0.0
        gram = Zt.T @ Zt
        off = gram - np.diag(np.diag(gram))
        assert np.allclose(np.diag(gram), [3.0] * (N - 1) + [2.0])
        assert np.allclose(np.diag(gram, 1), -1.0)
        assert np.max(np.abs(off - np.diag(np.diag(off, 1), 1) - np.diag(np.diag(off, -1), -1))) == 0.0
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= 1.0 - 1e-12
        assert eigs[-1] <= 5.0
        # same span as the orthonormal basis
        Z = qs.nullspace_basis(cs).Z
        assert np.max(np.abs(Zt - Z @ (Z.T @ Zt))) <= 1e-10

    def test_shape_error_on_bad_direction(self):
        qdp = unit_chain()
        with pytest.raises(qs.ValidationError):
            qs.assemble_constraints(qdp, np.zeros(7))


class TestReducedHessianGamma:
    def test_identity_hessian_gives_one(self):
        for seed in (0, 1):
            base = qs.random_sosc_qdp(seed, N=5)
            dims = base.dims
            stages = [
                {"Q": np.eye(dims.nx), "R": np.eye(dims.nu),
                 "S": np.zeros((dims.nu, dims.nx)),
                 "D1": np.zeros((dims.nd, dims.nx)), "D2": np.zeros((dims.nd, dims.nu)),
                 "A": st.A, "B": st.B, "C": st.C}
                for st in base.stages
            ]
            qdp = qs.QdpProblem(dims, stages, np.eye(dims.nx))
            assert qs.reduced_hessian_gamma(qdp) == pytest.approx(1.0, abs=1e-10)

    def test_tracking_toy_equals_weight_gap(self, tracking_linear_qdp):
        """Frozen eigensolve value: with the exact-Hessian convention the
        reduced curvature of the tracking toy problem is mu1 - mu2 at any
        horizon (the kernel columns carry one control and one state entry,
        so each normalized column sees (2 mu1 - 2 mu2) / 2)."""
        gamma = qs.reduced_hessian_gamma(tracking_linear_qdp)
        assert gamma == pytest.approx(9.0, abs=1e-9)
        short = qs.assemble_qdp_from_nldp(qs.tracking_toy_model(7, 50.0, 10.0, "exp"))
        assert qs.reduced_hessian_gamma(short) == pytest.approx(40.0, abs=1e-9)

    def test_chain_family_certified_floor(self):
        """The dominated-chain recipe certifies gamma >= 4 gamma0 / 5.

        4 gamma0 comes from Gershgorin on the impulse-basis quadratic form;
        the 5 is that basis's largest Gram eigenvalue bound.
        """
        for gamma0 in (1.0, 4.0):
            for seed in range(3):
                qdp = qs.tridiagonal_chain_qdp(24, gamma0, seed=seed)
                Zt = staircase_kernel_basis(24)
                H = qdp.full_hessian()
                assert np.linalg.eigvalsh(Zt.T @ H @ Zt)[0] >= 4.0 * gamma0 - 1e-9
                gamma = qs.reduced_hessian_gamma(qdp)
                assert gamma >= 0.8 * gamma0 - 1e-9

    def test_expanding_dynamics_keep_exact_gamma(self):
        """A = 3I stretches G's singular values to about 3^-N; at N = 20 the
        pivoted QR still certifies full row rank. Every Hessian block
        dominates I and the kernel vector moving only q_{N-1} and p_N
        attains 1, so gamma is exactly 1."""
        dims = qs.Dims(N=20, nx=2, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=5.0 * np.eye(2), R=[[1.0]], S=np.zeros((1, 2)), D1=np.zeros((1, 2)),
            D2=[[0.0]], A=3.0 * np.eye(2), B=[[1.0], [1.0]], C=np.zeros((2, 1)),
            terminal_Q=np.eye(2))
        assert qs.reduced_hessian_gamma(qdp) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_basis_rotation(self, small_pool):
        for qdp in small_pool[:3]:
            gamma = qs.reduced_hessian_gamma(qdp)
            cs = qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))
            Z = qs.nullspace_basis(cs).Z
            rng = np.random.default_rng(17)
            raw = rng.standard_normal((Z.shape[1], Z.shape[1]))
            rot, _ = np.linalg.qr(raw)
            H = qdp.full_hessian()
            Zr = Z @ rot
            rotated = float(scipy.linalg.eigvalsh(0.5 * (Zr.T @ H @ Zr + (Zr.T @ H @ Zr).T))[0])
            assert rotated == pytest.approx(gamma, rel=1e-9, abs=1e-9)

    def test_blockwise_floor_transfers(self, small_pool):
        """If every stage Hessian dominates c I then gamma >= c."""
        qdp = small_pool[0]
        dims = qdp.dims
        c = 0.7
        stages = [
            {"Q": st.Q + (c + 2.0) * np.eye(dims.nx), "R": st.R + (c + 2.0) * np.eye(dims.nu),
             "S": st.S, "D1": st.D1, "D2": st.D2, "A": st.A, "B": st.B, "C": st.C}
            for st in qdp.stages
        ]
        lifted = qs.QdpProblem(dims, stages, qdp.terminal_Q + (c + 2.0) * np.eye(dims.nx))
        floor = min(
            min(np.linalg.eigvalsh(lifted.stage_hessian(k))[0] for k in range(dims.N)),
            np.linalg.eigvalsh(lifted.terminal_Q)[0],
        )
        if floor >= c:
            assert qs.reduced_hessian_gamma(lifted) >= c - 1e-9
