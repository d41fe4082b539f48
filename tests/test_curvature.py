"""The certified gamma bracket: inertia counts, shifted solves, the guard, typed errors."""

import dataclasses
import json

import numpy as np
import pytest
from click.testing import CliRunner

import qdpsens as qs
from qdpsens import curvature
from qdpsens.cli import main

from conftest import expanding, overflowing


@pytest.fixture(params=["dense estimate", "shifted solves"])
def estimate_path(request, monkeypatch):
    """Run a test once per estimate path: the dense eigenpair of the reduced Hessian over the
    control-to-trajectory map, then shifted solves alone."""
    if request.param == "shifted solves":
        monkeypatch.setattr(curvature, "_DENSE_ESTIMATE_MAX", -1)
    return request.param


def check_against_dense(qdp):
    lo, hi = qs.gamma_bracket(qdp)
    gamma = qs.reduced_hessian_gamma(qdp)
    assert 0.0 < lo <= gamma <= hi * (1.0 + 1e-12)
    assert hi - lo <= curvature.BRACKET_RTOL * hi
    return lo, hi


class Work:
    """Count passes and shifted-solve set-ups in order: a pass as its count stage (None
    for zero), a set-up as "solver"."""

    def __init__(self):
        self.events = []

    @property
    def passes(self):
        return sum(event != "solver" for event in self.events)

    @property
    def solvers(self):
        return self.events.count("solver")


@pytest.fixture
def work(monkeypatch):
    tally = Work()
    count, solver = curvature._Shifted.count, curvature._Shifted.solver

    def counted(self, sigma):
        cp = count(self, sigma)
        tally.events.append(cp.stage)
        return cp

    def counted_solver(self, cp):
        tally.events.append("solver")
        return solver(self, cp)

    monkeypatch.setattr(curvature._Shifted, "count", counted)
    monkeypatch.setattr(curvature._Shifted, "solver", counted_solver)
    return tally


class TestBracketHoldsDenseGamma:
    def test_small_pool(self, small_pool, estimate_path):
        for qdp in small_pool:
            check_against_dense(qdp)

    def test_square_pool(self, square_pool, estimate_path):
        for qdp in square_pool:
            check_against_dense(qdp)

    def test_underactuated_pool(self, estimate_path):
        pool = [qs.random_sosc_qdp(50 + seed, N=int(N), nx=4, nu=2, nd=2)
                for seed, N in enumerate((3, 9, 17, 30))]
        for qdp in pool:
            check_against_dense(qdp)

    def test_across_the_crossover(self):
        """Kernel dimensions N * nu on both sides of the dense-estimate crossover."""
        for N in (45, 55):
            check_against_dense(qs.random_sosc_qdp(7, N=N, nx=4, nu=4, nd=2, square_controls=True))

    @pytest.mark.parametrize("kind, N, mu1, mu2", [("linear", 40, 10.0, 1.0), ("exp", 7, 50.0, 10.0)])
    def test_toy_models_equal_weight_gap(self, kind, N, mu1, mu2, estimate_path):
        qdp = qs.assemble_qdp_from_nldp(qs.tracking_toy_model(N, mu1, mu2, kind))
        lo, hi = check_against_dense(qdp)
        assert lo == pytest.approx(mu1 - mu2, rel=1e-12, abs=0.0)
        assert hi == pytest.approx(mu1 - mu2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("N", [50, 200, 1000])
    def test_chain_family_clears_its_floor(self, N):
        """remark1's docstring proves gamma >= 4 gamma0 / 5; the dense value is checked where cheap."""
        gamma0 = 1.0
        qdp = qs.tridiagonal_chain_qdp(N, gamma0)
        if N <= 200:
            lo, hi = check_against_dense(qdp)
        else:
            lo, hi = qs.gamma_bracket(qdp)
            assert hi - lo <= curvature.BRACKET_RTOL * hi
        assert lo >= 0.8 * gamma0


# nx in {6, 8}, nu in {nx / 2, nx}, N in {40, 80}, seeds 1-2: the pool where a stage kernel
# that leaves K unsymmetrized raises SoscFailed at N = 80 and misses the dense gamma at N = 40.
WIDE_STATE_POOL = [(nx, nu, N, seed) for nx in (6, 8) for nu in (nx // 2, nx)
                   for N in (40, 80) for seed in (1, 2)]


class TestWideStates:
    """Rounding leaves a skew part in K that grows with the open-loop A, not the closed loop
    (Verhaegen & Van Dooren 1986); the kernel symmetrizes K at every stage, so the bracket
    and the convexified pipeline stay sound at nx >= 6."""

    @pytest.mark.parametrize("nx, nu, N, seed", WIDE_STATE_POOL)
    def test_bracket_holds_dense_gamma_and_pipeline_matches_oracle(self, nx, nu, N, seed):
        qdp = qs.random_sosc_qdp(seed, N=N, nx=nx, nu=nu, nd=2)
        fac = qs.factorize(qdp)
        gamma = qs.reduced_hessian_gamma(qdp)
        assert 0.0 < fac.gamma <= gamma <= fac.gamma_hi * (1.0 + 1e-12)
        assert fac.gamma_hi - fac.gamma <= curvature.BRACKET_RTOL * fac.gamma_hi
        l = np.random.default_rng(seed).standard_normal(qdp.dims.n_dir)
        assert qs.verify_equivalence(fac, l).passed


class TestEigenpairEstimate:
    """Kernel dimension N * nu <= 200: the reduced Hessian over the control-to-trajectory map."""

    @pytest.fixture(scope="class")
    def small_pools(self, small_pool, square_pool, shape_pool):
        return list(small_pool) + list(square_pool) + list(shape_pool)

    def test_one_count_pass_and_no_shifted_solve(self, small_pools, work):
        for qdp in small_pools:
            work.events.clear()
            lo, hi = check_against_dense(qdp)
            assert hi >= lo
            assert work.events == [None]

    def test_estimate_matches_the_dense_oracle(self, small_pools):
        for qdp in small_pools:
            estimate, w = curvature._Shifted(qdp).estimate()
            gamma = qs.reduced_hessian_gamma(qdp)
            assert estimate == pytest.approx(gamma, rel=1e-13, abs=0.0)
            cs = qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))
            assert cs.residual(w) <= 1e-12
            assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)

    def test_rolled_eigenvector_is_feasible_and_bounds_gamma(self, small_pool):
        """The eigenvector, rolled through the closing pass's closed loop, is an exact
        kernel vector whose Rayleigh quotient is the bracket's hi."""
        for qdp in small_pool[:4]:
            shifted = curvature._Shifted(qdp)
            estimate, w = shifted.estimate()
            cp = shifted.count(estimate * (1.0 - curvature.FINAL_GAPS[0]))
            rolled = shifted.reroll(cp, w)
            assert rolled[:qdp.dims.nx].tolist() == [0.0] * qdp.dims.nx
            cs = qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))
            assert cs.residual(rolled) <= 1e-13 * np.max(np.abs(rolled))
            assert shifted.rayleigh(rolled / np.linalg.norm(rolled)) == qs.gamma_bracket(qdp)[1]

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_bad_estimate_certifies_through_the_refinement(self, small_pool, monkeypatch, work, factor):
        """An estimate off by a factor (and a useless vector) still ends in a certified
        bracket: below gamma the guess does not close it, above it the count is nonzero."""
        estimate = curvature._Shifted.estimate

        def bad(self):
            value, w = estimate(self)
            return factor * value, np.ones_like(w)

        monkeypatch.setattr(curvature._Shifted, "estimate", bad)
        for qdp in small_pool[:4]:
            work.events.clear()
            check_against_dense(qdp)
            assert work.passes > 1 and work.solvers >= 1

    def test_overflowing_map_leaves_the_count_to_decide(self):
        with np.errstate(over="ignore", invalid="ignore"):
            estimate, w = curvature._Shifted(overflowing()).estimate()
        assert np.isnan(estimate) and w is None

    def test_count_is_unsound_near_gamma_on_a_known_instance(self):
        """Within about 3e-12 (relative) of gamma the double-precision count reads rounding
        (README, "Certified gamma"). 40-digit arithmetic puts gamma in
        [13.461945937477719, 13.461945937477928]; the bracket's lo stays under it."""
        qdp = qs.random_sosc_qdp(215, N=52, nx=5, nu=2, nd=2)
        lo, hi = qs.gamma_bracket(qdp)
        assert lo <= 13.461945937477719
        assert hi >= lo


class TestCount:
    def test_count_brackets_gamma(self, small_pool):
        """A zero count below gamma, a nonzero one above it."""
        for qdp in small_pool[:4]:
            gamma = qs.reduced_hessian_gamma(qdp)
            shifted = curvature._Shifted(qdp)
            below, above = shifted.count(0.99 * gamma), shifted.count(1.01 * gamma)
            assert below.stage is None and below.guard is None
            assert above.stage is not None and above.guard is None
            assert above.min_eig < 0.0

    def test_shifted_solve_is_feasible(self, small_pool):
        """The solve's vector is a rolled-out kernel vector whose Rayleigh quotient bounds gamma."""
        for qdp in small_pool[:4]:
            shifted = curvature._Shifted(qdp)
            cp = shifted.count(0.5 * qs.reduced_hessian_gamma(qdp))
            w = shifted.solver(cp)(np.ones(qdp.dims.n_z))
            cs = qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))
            assert cs.residual(w) <= 1e-10 * np.max(np.abs(w))
            assert shifted.rayleigh(w) >= qs.reduced_hessian_gamma(qdp) * (1.0 - 1e-12)

    def test_shifted_solve_is_the_kernel_minimizer(self, small_pool):
        """The solve returns Z (Z' (H - sigma I) Z)^{-1} Z' v over an orthonormal kernel
        basis Z, not only some feasible vector; the pool plus one nu < nx instance."""
        rng = np.random.default_rng(3)
        for qdp in [*small_pool, qs.random_sosc_qdp(41, N=6, nx=4, nu=2, nd=3)]:
            sigma = 0.5 * qs.reduced_hessian_gamma(qdp)
            shifted = curvature._Shifted(qdp)
            v = rng.standard_normal(qdp.dims.n_z)
            w = shifted.solver(shifted.count(sigma))(v)
            Z = qs.nullspace_basis(qs.assemble_constraints(qdp, np.zeros(qdp.dims.n_dir))).Z
            reduced = Z.T @ (qdp.full_hessian() - sigma * np.eye(qdp.dims.n_z)) @ Z
            want = Z @ np.linalg.solve(reduced, Z.T @ v)
            assert np.linalg.norm(w - want) <= 1e-10 * np.linalg.norm(want)


def _indefinite_at(stage, N=5):
    """A = 0, B = 1, so W_k = R_k + Q_{k+1} = 3 at every stage but the chosen one, where it is -1."""
    dims = qs.Dims(N=N, nx=1, nu=1, nd=1)
    stages = [{"Q": [[2.0]], "R": [[-3.0 if k == stage else 1.0]], "S": [[0.0]], "D1": [[0.0]],
               "D2": [[0.0]], "A": [[0.0]], "B": [[1.0]], "C": [[0.0]]} for k in range(N)]
    return qs.QdpProblem(dims, stages, [[2.0]])


_COUNT = curvature._Shifted.count


class TestTypedErrors:
    @pytest.mark.parametrize("stage", [0, 2, 4])
    def test_sosc_failure_names_stage_and_eigenvalue(self, stage):
        qdp = _indefinite_at(stage)
        with pytest.raises(qs.SoscFailed) as info:
            qs.gamma_bracket(qdp)
        assert info.value.stage == stage
        assert info.value.min_eig == pytest.approx(-1.0, abs=1e-12)
        assert f"stage {stage}" in str(info.value)
        with pytest.raises(qs.SoscFailed):
            qs.factorize(qdp)

    def test_sosc_failure_is_the_latest_failing_stage(self):
        """The backward count stops at the latest stage whose W_k is not positive definite."""
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[-1.0]], R=[[-1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[1.0]], terminal_Q=[[-1.0]])
        with pytest.raises(qs.SoscFailed) as info:
            qs.gamma_bracket(qdp)
        assert (info.value.stage, info.value.min_eig) == (1, -2.0)

    @pytest.mark.parametrize("N", [20, 30, 40])
    def test_expanding_dynamics_refused_with_stage(self, N, tmp_path):
        """K grows 9^k, B' K B cancels, and the count's sign is rounding: the guard refuses.
        No path returns a gamma other than the exact 1, and none reports SoscFailed."""
        qdp = expanding(N)
        with pytest.raises(qs.UncertainInertia) as info:
            qs.gamma_bracket(qdp)
        err = info.value
        assert 0 <= err.stage < N
        assert abs(err.min_eig) <= err.threshold
        assert f"stage {err.stage}" in str(err)
        with pytest.raises(qs.UncertainInertia):
            qs.solve_sensitivity(qdp, qs.unit_direction(qdp.dims, -1, 1))
        path = tmp_path / "expanding.json"
        qs.save_qdp(qdp, path)
        result = CliRunner().invoke(main, ["check", str(path), "--json"])
        assert result.exit_code == 2
        assert f"stage {err.stage}" in result.output

    @pytest.mark.parametrize("N, stage", [(20, 3), (30, 13), (40, 23)])
    def test_expanding_dynamics_names_a_fixed_stage(self, N, stage):
        """The first block the guard cannot sign, in backward order, as the per-stage count named it."""
        with pytest.raises(qs.UncertainInertia) as info:
            qs.gamma_bracket(expanding(N))
        assert info.value.stage == stage

    def test_overflow_in_a_count_pass_is_a_validation_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(qs.ValidationError, match="stage 2"):
                curvature._Shifted(overflowing()).count(0.0)

    @staticmethod
    def trip_guard_above(monkeypatch, ceiling):
        def tripping(self, sigma):
            cp = _COUNT(self, sigma)
            return dataclasses.replace(cp, guard=(0, cp.min_eig, np.inf)) if sigma > ceiling else cp

        monkeypatch.setattr(curvature._Shifted, "count", tripping)

    def test_guard_near_gamma_stops_the_refinement(self, small_pool, monkeypatch, estimate_path):
        """A guard that trips above 0.95 gamma stops the refinement short; the bracket
        still holds gamma and its width reports where it stopped."""
        for qdp in small_pool[:4]:
            gamma = qs.reduced_hessian_gamma(qdp)
            self.trip_guard_above(monkeypatch, 0.95 * gamma)
            lo, hi = qs.gamma_bracket(qdp)
            assert 0.0 < lo <= 0.95 * gamma
            assert gamma <= hi * (1.0 + 1e-12)

    def test_guard_at_every_positive_shift_is_refused(self, small_pool, monkeypatch):
        """Only sigma = 0 certified leaves no positive lower bound: a typed error, not (0, hi)."""
        self.trip_guard_above(monkeypatch, 0.0)
        with pytest.raises(qs.UncertainInertia):
            qs.gamma_bracket(small_pool[0])

    def test_expanding_dynamics_certified_while_the_guard_is_clear(self):
        lo, hi = qs.gamma_bracket(expanding(10))
        assert lo <= 1.0 <= hi * (1.0 + 1e-12)
        assert hi - lo <= curvature.BRACKET_RTOL * hi


class TestConsumersReadLo:
    def test_factorization_carries_the_bracket(self, square_pool):
        for qdp in square_pool[:3]:
            lo, hi = qs.gamma_bracket(qdp)
            fac = qs.factorize(qdp, 0.9)
            assert (fac.gamma, fac.gamma_hi) == (lo, hi)
            assert fac.delta == 0.9 * lo
            assert fac.bounds().gamma == lo
            assert qs.select_delta(qdp, 0.9) == 0.9 * lo
            assert qs.RiccatiSensitivityEstimator(0.9).fit(qdp).gamma_ == lo

    def test_check_fails_sosc_by_the_count(self, tmp_path):
        path = tmp_path / "indefinite.json"
        qs.save_qdp(_indefinite_at(2, N=4), path)
        result = CliRunner().invoke(main, ["check", str(path), "--json"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert not report["sosc_pass"]
        assert report["gamma"] is None and report["gamma_hi"] is None
        text = CliRunner().invoke(main, ["check", str(path)]).output
        assert "FAIL" in text and "stage 2" in text



class TestNoSolveAfterConvergence:
    @pytest.mark.parametrize("N", [55, 80])
    def test_closing_pass_of_the_count_path_runs_no_solve(self, work, N):
        """Above the crossover, the closing pass sits under a settled Rayleigh quotient, so
        the bracket is already closed there: its zero count sets no solve up."""
        qdp = qs.random_sosc_qdp(7, N=N, nx=4, nu=4, nd=2, square_controls=True)
        check_against_dense(qdp)
        assert work.events[-1] is None
        assert work.solvers >= 1
