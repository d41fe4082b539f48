"""Command-line interface: subcommands, file contracts, exit codes."""

import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

import qdpsens as qs
from qdpsens.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def qdp_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "toy.json"
    qs.save_qdp(qs.assemble_qdp_from_nldp(qs.tracking_toy_model(10, 10.0, 1.0, "linear")), path)
    return str(path)


class TestCheck:
    def test_builtin_passes(self, runner):
        result = runner.invoke(main, ["check", "paper-sec7-linear", "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["gamma"] == pytest.approx(9.0, abs=1e-9)
        assert report["gamma"] <= 9.0 <= report["gamma_hi"] * (1.0 + 1e-12)
        assert report["t"] == 1
        assert report["sosc_pass"] and report["controllability_pass"]
        assert "certified lower bound" in runner.invoke(main, ["check", "paper-sec7-linear"]).output

    def test_zero_input_matrix_fails(self, runner, tmp_path):
        dims = qs.Dims(N=3, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[1.0]], B=[[0.0]], C=[[1.0]], terminal_Q=[[1.0]])
        path = tmp_path / "uncontrollable.json"
        qs.save_qdp(qdp, path)
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 1

    def test_underactuated_file_reports_failing_reachability(self, runner, tmp_path):
        qdp = qs.random_sosc_qdp(1, N=12, nx=4, nu=2, nd=2)
        path = tmp_path / "underactuated.json"
        qs.save_qdp(qdp, path)
        result = runner.invoke(main, ["check", str(path), "--json"])
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["sosc_pass"] and not report["controllability_pass"]
        assert report["lambda_c"] == 1e-6 and report["t"] is None
        assert report["t_stages"][-1] is None
        result = runner.invoke(main, ["sensitivity", str(path), "--json"])
        assert result.exit_code == 1
        assert "stage 11" in result.output

    def test_malformed_json(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 3

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["check", "/nonexistent/problem.json"])
        assert result.exit_code == 3

    def test_structurally_invalid_file(self, runner, tmp_path):
        bad = tmp_path / "incomplete.json"
        bad.write_text(json.dumps({"dims": {"N": 1, "nx": 1, "nu": 1, "nd": 1}}))
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 3
        assert "malformed" in result.output

    @pytest.mark.parametrize("fault, named", [
        ("string entry", "Q[0]"),
        ("ragged block", "Q[0]"),
        ("non-integer dims", "dims"),
        ("fractional dims", "dims"),
        ("boolean dims", "dims"),
    ])
    def test_unconvertible_entries_exit_3(self, runner, tmp_path, fault, named):
        data = qs.random_sosc_qdp(1, N=2, nx=2, nu=1, nd=1).to_json_dict()
        if fault == "string entry":
            data["stages"][0]["Q"][0][0] = "a"
        elif fault == "ragged block":
            data["stages"][0]["Q"][1] = [0.0]
        elif fault == "non-integer dims":
            data["dims"]["N"] = "x"
        elif fault == "fractional dims":
            data["dims"]["N"] = 2.5
        else:
            data["dims"]["nx"] = True
        bad = tmp_path / "unconvertible.json"
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, ["check", str(bad), "--json"])
        assert result.exit_code == 3, result.output
        assert f"malformed problem file {bad}: {named}:" in result.output


class TestConvexify:
    def test_auto_delta(self, runner, qdp_file, tmp_path):
        out = tmp_path / "conv.json"
        result = runner.invoke(main, ["convexify", qdp_file, "--delta", "auto", "-o", str(out)])
        assert result.exit_code == 0, result.output
        data = json.loads(out.read_text())
        assert data["delta"] == pytest.approx(0.9 * 9.0, rel=1e-12)
        assert len(data["Qbar"]) == 11
        # output blocks pass positive-definiteness validation
        conv_qdp = qs.QdpProblem.from_json_dict(data)
        for k in range(conv_qdp.dims.N):
            assert np.linalg.eigvalsh(conv_qdp.stage_hessian(k))[0] > 0

    def test_zero_delta_warns_semidefinite(self, runner, qdp_file, tmp_path):
        out = tmp_path / "conv0.json"
        result = runner.invoke(main, ["convexify", qdp_file, "--delta", "0", "-o", str(out)])
        assert result.exit_code == 0
        assert "semidefinite" in result.output
        data = json.loads(out.read_text())
        # zero-shift Qbar reproduces the cost-to-go matrices
        rs = qs.backward_pass(qs.load_qdp(qdp_file))
        for k, qbar in enumerate(data["Qbar"]):
            assert qbar[0][0] == pytest.approx(rs.K[k][0, 0], abs=1e-10)

    def test_excessive_delta_fails_with_stage(self, runner, qdp_file, tmp_path):
        result = runner.invoke(
            main, ["convexify", qdp_file, "--delta", "19.0", "-o", str(tmp_path / "x.json")])
        assert result.exit_code == 2
        assert "stage" in result.output


class TestSensitivity:
    def test_csv_contract_and_bound(self, runner, qdp_file, tmp_path):
        out = tmp_path / "decay.csv"
        result = runner.invoke(
            main, ["sensitivity", qdp_file, "--stage", "5", "-o", str(out), "--json"])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["rho_theory"] < 1.0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        for row in rows:
            norm_p = float(row["norm_p"])
            assert norm_p <= float(row["theory_bound"]) + 1e-9

    def test_initial_stage(self, runner, qdp_file, tmp_path):
        out = tmp_path / "decay0.csv"
        result = runner.invoke(
            main, ["sensitivity", qdp_file, "--stage", "-1", "-o", str(out), "--json"])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # initial-block perturbation of this problem dies immediately:
        # stage 0 moves, everything later is controlled back to zero
        assert float(rows[0]["norm_p"]) == pytest.approx(1.0)

    def test_zero_cross_blocks_give_zero_rows(self, runner, tmp_path):
        dims = qs.Dims(N=6, nx=1, nu=1, nd=1)
        qdp = qs.QdpProblem.constant(
            dims, Q=[[1.0]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
            A=[[0.5]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1.0]])
        path = tmp_path / "inert.json"
        qs.save_qdp(qdp, path)
        out = tmp_path / "inert.csv"
        result = runner.invoke(main, ["sensitivity", str(path), "--stage", "3", "-o", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["norm_p"]) == 0.0 for r in rows)


class TestExperiment:
    def test_emits_expected_files(self, runner, tmp_path):
        result = runner.invoke(main, [
            "experiment", "--n", "10", "--eps", "0.1,0.01", "--dynamics", "both",
            "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output
        for kind in ("linear", "exp"):
            for tag in ("eps0.1", "eps0.01", "reference"):
                assert (tmp_path / f"experiment_{kind}_{tag}.csv").exists()
        with open(tmp_path / "experiment_exp_eps0.01.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["k"] for r in rows] == [str(k) for k in range(11)]

    def test_curves_converge_to_reference(self, runner, tmp_path):
        result = runner.invoke(main, [
            "experiment", "--n", "12", "--eps", "0.1,0.01", "--dynamics", "exp",
            "-o", str(tmp_path)])
        assert result.exit_code == 0, result.output

        def load(tag):
            with open(tmp_path / f"experiment_exp_{tag}.csv") as fh:
                return np.array([float(r["log_ratio"]) for r in csv.DictReader(fh)])

        ref = load("reference")
        errs = []
        for tag in ("eps0.1", "eps0.01"):
            cur = load(tag)
            live = (ref > -400) & (cur > -400)
            assert np.any(live)
            errs.append(np.max(np.abs(cur[live] - ref[live])))
        assert errs[1] < errs[0]

    def test_parallel_matches_serial(self, runner, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        for args, out in ((["--parallel"], parallel_dir), ([], serial_dir)):
            result = runner.invoke(main, [
                "experiment", "--n", "8", "--eps", "0.01", "--dynamics", "linear",
                "-o", str(out), *args])
            assert result.exit_code == 0, result.output
        a = (serial_dir / "experiment_linear_eps0.01.csv").read_text()
        b = (parallel_dir / "experiment_linear_eps0.01.csv").read_text()
        assert a == b

    def test_invalid_weights_rejected(self, runner, tmp_path):
        result = runner.invoke(main, [
            "experiment", "--mu1", "10.0", "--mu2", "0.0", "-o", str(tmp_path)])
        assert result.exit_code == 1

    def test_clamp_applied(self, runner, tmp_path):
        result = runner.invoke(main, [
            "experiment", "--n", "10", "--eps", "0.01", "--dynamics", "linear",
            "-o", str(tmp_path)])
        assert result.exit_code == 0
        with open(tmp_path / "experiment_linear_eps0.01.csv") as fh:
            vals = [float(r["log_ratio"]) for r in csv.DictReader(fh)]
        assert min(vals) >= -500.0
        assert -500.0 in vals  # exactly-zero stages clamp


class TestVerifyCommand:
    def test_random_cross_check(self, runner):
        result = runner.invoke(main, ["verify", "--trials", "4", "--seed", "3", "--json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["pass"] and report["instances"] == 4

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_rejected(self, runner, trials):
        result = runner.invoke(main, ["verify", "--trials", trials, "--json"])
        assert result.exit_code == 1
        assert "--trials must be >= 1" in result.output

    def test_named_problem(self, runner, qdp_file):
        result = runner.invoke(main, ["verify", qdp_file, "--json"])
        assert result.exit_code == 0, result.output
