"""Estimator facade: parameter protocol, fit/predict, validation."""

import numpy as np
import pytest

import qdpsens as qs
from qdpsens import riccati


@pytest.fixture(scope="module")
def fitted(tracking_linear_qdp_module):
    est = qs.RiccatiSensitivityEstimator(delta_fraction=0.9)
    return est.fit(tracking_linear_qdp_module)


@pytest.fixture(scope="module")
def tracking_linear_qdp_module():
    return qs.assemble_qdp_from_nldp(qs.tracking_toy_model(12, 10.0, 1.0, "linear"))


class TestParameterProtocol:
    def test_get_set_round_trip(self):
        est = qs.RiccatiSensitivityEstimator()
        assert est.get_params() == {"delta_fraction": 0.9}
        est.set_params(delta_fraction=0.5)
        assert est.get_params() == {"delta_fraction": 0.5}

    def test_unknown_param_rejected(self):
        with pytest.raises(qs.ValidationError):
            qs.RiccatiSensitivityEstimator().set_params(shift=1.0)

    def test_clone_by_params(self):
        est = qs.RiccatiSensitivityEstimator(delta_fraction=0.25)
        clone = qs.RiccatiSensitivityEstimator(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_bad_fraction_rejected_at_fit(self, tracking_linear_qdp_module):
        est = qs.RiccatiSensitivityEstimator(delta_fraction=1.5)
        with pytest.raises(qs.ValidationError):
            est.fit(tracking_linear_qdp_module)


class TestFitPredict:
    def test_fit_attributes(self, fitted, tracking_linear_qdp_module):
        assert fitted.gamma_ == pytest.approx(9.0, abs=1e-9)
        assert fitted.delta_ == pytest.approx(8.1, abs=1e-9)
        assert fitted.n_features_in_ == tracking_linear_qdp_module.dims.n_dir

    def test_predict_matches_pipeline(self, fitted, tracking_linear_qdp_module):
        qdp = tracking_linear_qdp_module
        dirs = [qs.unit_direction(qdp.dims, i, 1) for i in (-1, 0, 6)]
        L = np.vstack([d.dense() for d in dirs])
        W = fitted.predict(L)
        assert W.shape == (3, qdp.dims.n_z)
        for row, l in zip(W, dirs):
            ref = qs.solve_sensitivity(qdp, l).trajectory.stacked()
            assert np.max(np.abs(row - ref)) <= 1e-12

    def test_transform_alias(self, fitted, tracking_linear_qdp_module):
        l = qs.unit_direction(tracking_linear_qdp_module.dims, 3, 1).dense()
        assert np.array_equal(fitted.transform(l), fitted.predict(l))

    def test_single_vector_promoted(self, fitted, tracking_linear_qdp_module):
        l = qs.unit_direction(tracking_linear_qdp_module.dims, 3, 1).dense()
        assert fitted.predict(l).shape[0] == 1

    def test_solve_direction_rich_result(self, fitted, tracking_linear_qdp_module):
        l = qs.unit_direction(tracking_linear_qdp_module.dims, 6, 1)
        res = fitted.solve_direction(l)
        assert res.source_stage == 6
        assert res.delta == pytest.approx(fitted.delta_)

    def test_solve_direction_matches_pipeline(self, fitted, tracking_linear_qdp_module):
        qdp = tracking_linear_qdp_module
        for i in (-1, 0, 6):
            l = qs.unit_direction(qdp.dims, i, 1)
            res = fitted.solve_direction(l)
            ref = qs.solve_sensitivity(qdp, l, fitted.delta_fraction)
            assert np.max(np.abs(res.trajectory.stacked() - ref.trajectory.stacked())) <= 1e-12
            assert (res.gamma, res.delta, res.source_stage) == (fitted.gamma_, fitted.delta_, i)
            assert np.array_equal(res.state_norms, res.trajectory.state_norms())
            assert (res.rho_fit, res.fit_intercept) == (ref.rho_fit, ref.fit_intercept)

    def test_solve_direction_reuses_fit(self, fitted, tracking_linear_qdp_module, monkeypatch):
        def refuse(qdp):
            raise AssertionError("gamma_bracket called after fit")

        monkeypatch.setattr(qs.sensitivity, "gamma_bracket", refuse)
        res = fitted.solve_direction(qs.unit_direction(tracking_linear_qdp_module.dims, 6, 1))
        assert res.gamma == fitted.gamma_


class TestBatchedPredict:
    """predict() runs one influence sweep and one block forward roll for all rows."""

    @pytest.fixture(scope="class")
    def fitted_pool(self, small_pool):
        return [(qdp, qs.RiccatiSensitivityEstimator().fit(qdp)) for qdp in small_pool]

    def test_jacobian_matches_dense_oracle(self, fitted_pool):
        assert any(qdp.dims.nu < qdp.dims.nx for qdp, _ in fitted_pool)
        for qdp, est in fitted_pool:
            eye = np.eye(qdp.dims.n_dir)
            jac = est.predict(eye)
            assert jac.shape == (qdp.dims.n_dir, qdp.dims.n_z)
            for row, l in zip(jac, eye):
                ref = qs.dense_kkt_solve(qdp, l).trajectory.stacked()
                assert np.max(np.abs(row - ref)) / max(1.0, np.max(np.abs(ref))) <= 1e-8

    def test_rows_match_single_direction_solve(self, fitted_pool):
        rng = np.random.default_rng(41)
        for qdp, est in fitted_pool:
            conv_qdp = est.convexified_.as_qdp()
            L = np.vstack([np.eye(qdp.dims.n_dir), rng.standard_normal((3, qdp.dims.n_dir))])
            for row, l in zip(est.predict(L), L):
                single = qs.forward_solve(est.riccati_, conv_qdp, l).stacked()
                assert np.max(np.abs(row - single)) <= 1e-12

    def test_empty_block(self, fitted_pool):
        qdp, est = fitted_pool[0]
        assert est.predict(np.zeros((0, qdp.dims.n_dir))).shape == (0, qdp.dims.n_z)

    def test_linear_in_the_direction(self, fitted_pool):
        rng = np.random.default_rng(42)
        for qdp, est in fitted_pool:
            L1, L2 = rng.standard_normal((2, 4, qdp.dims.n_dir))
            a, b = 0.7, -1.3
            combined = est.predict(a * L1 + b * L2)
            assert np.max(np.abs(combined - (a * est.predict(L1) + b * est.predict(L2)))) <= 1e-12

    def test_bitwise_stable_across_calls_and_threads(self, fitted_pool):
        from concurrent.futures import ThreadPoolExecutor

        blocks = [(est, np.eye(qdp.dims.n_dir)) for qdp, est in fitted_pool]
        serial = [est.predict(L) for est, L in blocks]
        again = [est.predict(L) for est, L in blocks]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda item: item[0].predict(item[1]), blocks))
        for a, b, c in zip(serial, again, parallel):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)

    def test_no_W_solve_per_row_or_stage(self, fitted_pool, monkeypatch):
        """One predict of any width is one influence sweep; W_k^{-1} is applied as one
        stacked product, never by a per-row or per-stage solve."""
        sweeps, solves = [], []
        influence_sweep, solve_W = riccati._influence_sweep, qs.RiccatiSolution.solve_W
        monkeypatch.setattr(riccati, "_influence_sweep", lambda *a: sweeps.append(1) or influence_sweep(*a))
        monkeypatch.setattr(qs.RiccatiSolution, "solve_W",
                            lambda rs, k, rhs: solves.append(k) or solve_W(rs, k, rhs))
        for qdp, est in fitted_pool:
            for width in (1, qdp.dims.n_dir):
                sweeps.clear()
                est.predict(np.eye(qdp.dims.n_dir)[:width])
                assert (len(sweeps), solves) == (1, [])


class TestValidation:
    def test_not_fitted(self):
        est = qs.RiccatiSensitivityEstimator()
        with pytest.raises(qs.NotFitted):
            est.predict(np.zeros(3))

    def test_bad_shapes(self, fitted):
        with pytest.raises(qs.ValidationError):
            fitted.predict(np.zeros((2, 3)))
        with pytest.raises(qs.ValidationError):
            fitted.predict(np.full((1, fitted.n_features_in_), np.nan))

    def test_sosc_failure_at_fit(self):
        dims = qs.Dims(N=2, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[-1.0]], R=[[-1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.0]], B=[[1.0]], C=[[1.0]], terminal_Q=[[-1.0]])
        with pytest.raises(qs.SoscFailed):
            qs.RiccatiSensitivityEstimator().fit(qdp)
