"""One factorization per problem: its consumers, its checks, and the stacked block norms."""

import csv
import dataclasses
import json
import os
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import qdpsens as qs
from qdpsens import curvature, riccati
from qdpsens._linalg import max_operator_norm, operator_norm
from qdpsens.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")


def count_calls(monkeypatch, *fns) -> dict:
    """Wrap each function wherever a qdpsens module binds it; return live call counts."""
    counts = {fn.__name__: 0 for fn in fns}
    for fn in fns:
        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if mod is None or name.partition(".")[0] != "qdpsens":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counting)
    return counts


FACTOR_STEPS = (qs.gamma_bracket, qs.convexify, qs.backward_pass)


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "toy.json"
    qs.save_qdp(qs.assemble_qdp_from_nldp(qs.tracking_toy_model(10, 10.0, 1.0, "linear")), path)
    return str(path)


class TestFactorOnce:
    def test_cli_sensitivity_factors_once(self, toy_file, tmp_path, monkeypatch):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        result = CliRunner().invoke(
            main, ["sensitivity", toy_file, "--stage", "5", "--json", "-o", str(tmp_path / "d.csv")])
        assert result.exit_code == 0, result.output
        assert counts == {"gamma_bracket": 1, "convexify": 1, "backward_pass": 1}

    def test_fit_factors_once(self, tracking_linear_qdp, monkeypatch):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        est = qs.RiccatiSensitivityEstimator().fit(tracking_linear_qdp)
        assert counts == {"gamma_bracket": 1, "convexify": 1, "backward_pass": 1}
        fac = est.factorization_
        assert (est.gamma_, est.delta_) == (fac.gamma, fac.delta)
        assert est.convexified_ is fac.convexified and est.riccati_ is fac.riccati

    def test_bounds_equal_theoretical_constants(self, square_pool):
        for qdp in square_pool:
            fac = qs.factorize(qdp)
            assert dataclasses.asdict(fac.bounds()) == dataclasses.asdict(
                qs.theoretical_constants(qdp, fac.delta))


class TestNoUnusedFactorization:
    def test_select_delta_computes_gamma_only(self, tracking_linear_qdp, monkeypatch):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        qs.select_delta(tracking_linear_qdp)
        assert counts == {"gamma_bracket": 1, "convexify": 0, "backward_pass": 0}

    @pytest.mark.parametrize("delta", ["auto", "5.0"])
    def test_cli_convexify_runs_no_backward_pass(self, toy_file, tmp_path, monkeypatch, delta):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        result = CliRunner().invoke(
            main, ["convexify", toy_file, "--delta", delta, "-o", str(tmp_path / "t.json")])
        assert result.exit_code == 0, result.output
        assert counts == {"gamma_bracket": 1, "convexify": 1, "backward_pass": 0}

    def test_equivalence_reads_the_factorization(self, small_pool, monkeypatch):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        qdp = small_pool[0]
        rep = qs.verify_equivalence(qs.factorize(qdp), qs.unit_direction(qdp.dims, -1, 1))
        assert rep.passed
        assert counts == {"gamma_bracket": 1, "convexify": 1, "backward_pass": 1}

    def test_equivalence_fits_no_decay_rate(self, small_pool, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("decay rate fitted")

        monkeypatch.setattr(qs.sensitivity, "fit_decay_rate", no_fit)
        qdp = small_pool[0]
        l = qs.unit_direction(qdp.dims, qdp.dims.N // 2, 1)
        assert qs.verify_equivalence(qs.factorize(qdp), l).passed


class TestDeltaFraction:
    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_pipeline_rejects_fraction_outside_unit_interval(self, tracking_linear_qdp, fraction):
        l = qs.unit_direction(tracking_linear_qdp.dims, 3, 1)
        with pytest.raises(qs.ValidationError):
            qs.solve_sensitivity(tracking_linear_qdp, l, delta_fraction=fraction)

    def test_cli_rejects_fraction_before_any_work(self, toy_file, monkeypatch):
        counts = count_calls(monkeypatch, *FACTOR_STEPS)
        result = CliRunner().invoke(main, ["sensitivity", toy_file, "--fraction", "1.5"])
        assert result.exit_code == 1
        assert "delta_fraction" in result.output
        assert counts == {"gamma_bracket": 0, "convexify": 0, "backward_pass": 0}


class TestSharedKernel:
    def test_one_sweep_per_call(self, small_pool, monkeypatch):
        """convexify, backward_pass and each inertia count pass run the shared kernel exactly once."""
        counts = count_calls(monkeypatch, riccati._sweep)
        passes = []
        count = curvature._Shifted.count
        monkeypatch.setattr(curvature._Shifted, "count",
                            lambda shifted, sigma: passes.append(sigma) or count(shifted, sigma))
        for qdp in small_pool:
            before = counts["_sweep"]
            conv = qs.convexify(qdp, 0.5 * qs.reduced_hessian_gamma(qdp))
            assert counts["_sweep"] - before == 1
            qs.backward_pass(conv.as_qdp())
            assert counts["_sweep"] - before == 2
            passes.clear()
            qs.factorize(qdp)
            assert passes
            assert counts["_sweep"] - before == 4 + len(passes)


def _per_block_max(blocks) -> float:
    return max(operator_norm(b) for b in blocks)


QDP_BLOCKS = ("Q", "R", "S", "D1", "D2", "A", "B", "C")
CONV_BLOCKS = ("Q", "R", "S", "D1", "D2")


class TestStackedBlockNorms:
    """The stacked Gram eigensolve equals the largest per-block operator norm."""

    @staticmethod
    def check(qdp):
        fac = qs.factorize(qdp)
        conv = fac.convexified
        cq = conv.as_qdp()
        qdp_stacks = [[qdp.terminal_Q]] + [[getattr(st, n) for st in qdp.stages] for n in QDP_BLOCKS]
        conv_stacks = [[cq.terminal_Q]] + [[getattr(st, n) for st in cq.stages] for n in CONV_BLOCKS]
        for blocks in qdp_stacks + conv_stacks + [fac.riccati.K]:
            assert max_operator_norm(blocks) == pytest.approx(_per_block_max(blocks), rel=1e-14)
        for whole, stacks in ((qdp.max_block_norm(), qdp_stacks),
                              (conv.max_block_norm(), conv_stacks)):
            assert whole == pytest.approx(max(_per_block_max(b) for b in stacks), rel=1e-14)

    def test_small_pool(self, small_pool):
        assert any(qdp.dims.nu < qdp.dims.nx for qdp in small_pool)
        for qdp in small_pool:
            self.check(qdp)

    def test_one_row_blocks(self):
        for seed in range(3):
            qdp = qs.random_sosc_qdp(seed, N=6, nx=3, nu=2, nd=1)
            assert qdp.stages[0].D1.shape == (1, 3)
            self.check(qdp)

    def test_single_stage(self):
        for seed in range(3):
            self.check(qs.random_sosc_qdp(seed, N=1))

    def test_empty_stack(self):
        assert max_operator_norm(np.zeros((0, 2, 2))) == 0.0


class TestCliRecordedOutput:
    """``qdpsens sensitivity`` output (N=80, nx=nu=4), recorded with gamma the certified
    lower bound of the inertia bracket and every stage recursion on the shared stage
    kernel, which symmetrizes K at every stage. It does not depend on the BLAS thread count."""

    SUMMARY = {"stage": 40, "coord": 1, "gamma": 4.487311824753208,
               "delta": 4.038580642277887, "rho_fit": 0.022710085605722574,
               "rho_theory": 0.9999793363674101, "upsilon_pq": 5.633382824394033e+30}

    def test_summary_and_table_unchanged(self, tmp_path):
        qdp = qs.random_sosc_qdp(80, N=80, nx=4, nu=4, nd=2, square_controls=True)
        path, table = tmp_path / "p.json", tmp_path / "decay.csv"
        qs.save_qdp(qdp, path)
        result = CliRunner().invoke(main, [
            "sensitivity", str(path), "--stage", "40", "--coord", "1", "--json", "-o", str(table)])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary.keys() == self.SUMMARY.keys()
        for key, expected in self.SUMMARY.items():
            assert summary[key] == pytest.approx(expected, rel=1e-12, abs=0.0), key
        with open(table, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(os.path.join(DATA, "sensitivity_N80_decay.csv"), newline="") as fh:
            recorded = list(csv.reader(fh))
        assert rows[0] == recorded[0]
        assert len(rows) == len(recorded) == 82
        for row, ref in zip(rows[1:], recorded[1:]):
            assert len(row) == len(ref)
            for cell, ref_cell in zip(row, ref):
                if ref_cell == "":
                    assert cell == ""
                else:
                    assert float(cell) == pytest.approx(float(ref_cell), rel=1e-12, abs=0.0)
