"""Command-line surface: assumption checks, convexification, decay reports.

Exit codes: 0 success, 1 validation or assumption failure, 2 solver
failure, 3 I/O or parse failure.
"""

from __future__ import annotations

import csv
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import click
import numpy as np

from . import presets
from .convexify import convexify
from .curvature import gamma_bracket
from .exceptions import (
    ControllabilityFailed,
    IndefiniteW,
    InsufficientData,
    MultiplierRecoveryError,
    NonInvertibleRtilde,
    NotPositiveDefinite,
    QdpSensError,
    SingularKkt,
    SolverDiverged,
    SoscFailed,
    UncertainInertia,
    ValidationError,
)
from .model import QdpProblem, assemble_qdp_from_nldp, load_qdp
from .sensitivity import (
    LOG_CLAMP,
    auto_controllability,
    controllability,
    factorize,
    select_delta,
    solve_sensitivity,
    unit_direction,
    write_decay_csv,
)
from .verify import newton_equality_solve, random_sosc_qdp, verify_equivalence

EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3

_VALIDATION_ERRORS = (
    ValidationError,
    SoscFailed,
    ControllabilityFailed,
    MultiplierRecoveryError,
    InsufficientData,
)
_SOLVER_ERRORS = (
    NonInvertibleRtilde,
    NotPositiveDefinite,
    IndefiniteW,
    SingularKkt,
    SolverDiverged,
    UncertainInertia,
)


class _ParseFailure(Exception):
    """Unreadable or structurally invalid problem file (exit code 3)."""


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _run(fn):
    try:
        fn()
    except _ParseFailure as exc:
        _fail(EXIT_IO, str(exc))
    except _SOLVER_ERRORS as exc:
        _fail(EXIT_SOLVER, str(exc))
    except _VALIDATION_ERRORS as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_IO, str(exc))
    except QdpSensError as exc:
        _fail(EXIT_SOLVER, str(exc))


def _load_input(path_or_name, n, mu1, mu2, gamma0, seed) -> QdpProblem:
    if path_or_name in presets.BUILTIN_NAMES:
        return presets.builtin_qdp(path_or_name, N=n, mu1=mu1, mu2=mu2, gamma0=gamma0, seed=seed)
    try:
        return load_qdp(path_or_name)
    except (KeyError, TypeError, ValidationError) as exc:
        raise _ParseFailure(f"malformed problem file {path_or_name}: {exc}") from exc


def _builtin_options(fn):
    fn = click.option("--n", default=40, show_default=True, help="Horizon for builtin problems.")(fn)
    fn = click.option("--mu1", default=10.0, show_default=True, help="Control weight of builtin tracking problems.")(fn)
    fn = click.option("--mu2", default=1.0, show_default=True, help="State weight of builtin tracking problems.")(fn)
    fn = click.option("--gamma0", default=1.0, show_default=True, help="Curvature target of the builtin chain family.")(fn)
    fn = click.option("--seed", default=0, show_default=True, help="Seed for builtin/generated instances.")(fn)
    return fn


@click.group()
def main():
    """Sensitivity analysis of stagewise equality-constrained programs."""


@main.command()
@click.argument("problem")
@click.option("--lambda-c", default=None, type=float, help="Reachability Gramian floor (auto when omitted).")
@click.option("--t-max", default=None, type=int, help="Largest evolution length to try.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable report.")
@_builtin_options
def check(problem, lambda_c, t_max, as_json, n, mu1, mu2, gamma0, seed):
    """Verify curvature and reachability assumptions of PROBLEM.

    The curvature assumption is decided by the inertia count at sigma = 0;
    when it holds, gamma is reported as a certified bracket.
    """

    def run():
        qdp = _load_input(problem, n, mu1, mu2, gamma0, seed)
        try:
            gamma, gamma_hi = gamma_bracket(qdp)
            sosc_failure = None
        except SoscFailed as exc:
            gamma = gamma_hi = None
            sosc_failure = exc
        upsilon = qdp.max_block_norm()
        sosc_ok = sosc_failure is None
        ctrl = auto_controllability(qdp, t_max) if lambda_c is None else controllability(qdp, lambda_c, t_max)
        report = {
            "gamma": gamma,
            "gamma_hi": gamma_hi,
            "upsilon": upsilon,
            "sosc_pass": sosc_ok,
            "lambda_c": ctrl.lambda_c,
            "t": ctrl.t,
            "t_stages": list(ctrl.t_stages),
            "controllability_pass": ctrl.passed,
        }
        if as_json:
            click.echo(json.dumps(report))
        else:
            if sosc_ok:
                click.echo(f"gamma (certified lower bound):         {gamma:.12g}")
                click.echo(f"gamma upper bound (Rayleigh quotient): {gamma_hi:.12g}")
            click.echo(f"upsilon (largest block norm):          {upsilon:.12g}")
            click.echo("curvature assumption:                  "
                       + ("pass" if sosc_ok else f"FAIL ({sosc_failure})"))
            click.echo(f"reachability floor lambda_c:           {ctrl.lambda_c:.12g}")
            stage_summary = ", ".join(
                "-" if t is None else str(t) for t in ctrl.t_stages
            )
            click.echo(f"per-stage horizons t_k:                {stage_summary}")
            click.echo(
                "reachability assumption:               "
                + (f"pass (t = {ctrl.t})" if ctrl.passed else "FAIL")
            )
        if not (sosc_ok and ctrl.passed):
            sys.exit(EXIT_VALIDATION)

    _run(run)


@main.command("convexify")
@click.argument("problem")
@click.option("--delta", default="auto", show_default=True, help="Shift value, or 'auto' for fraction * gamma.")
@click.option("--fraction", default=0.9, show_default=True, help="Fraction of gamma used when --delta auto.")
@click.option("-o", "--output", required=True, type=click.Path(), help="Output JSON path.")
@_builtin_options
def convexify_cmd(problem, delta, fraction, output, n, mu1, mu2, gamma0, seed):
    """Convexify PROBLEM and write the transformed blocks as JSON."""

    def run():
        qdp = _load_input(problem, n, mu1, mu2, gamma0, seed)
        if delta == "auto":
            value = select_delta(qdp, fraction)
        else:
            try:
                value = float(delta)
            except ValueError as exc:
                raise ValidationError(f"--delta must be a number or 'auto': {delta!r}") from exc
            try:
                gamma = gamma_bracket(qdp)[0]
            except SoscFailed:
                gamma = 0.0
            if value >= gamma > 0.0:
                warnings.warn(
                    f"shift {value:g} is at or above the certified bound gamma = {gamma:.6g}; "
                    "positive definiteness is no longer guaranteed",
                    stacklevel=1,
                )
        conv = convexify(qdp, value)
        if conv.semidefinite:
            click.echo("warning: zero shift produces only positive semidefinite blocks", err=True)
        with open(output, "w") as fh:
            json.dump(conv.to_json_dict(), fh, indent=1)
        click.echo(f"wrote transformed problem (delta = {value:.12g}) to {output}")

    _run(run)


@main.command()
@click.argument("problem")
@click.option("--stage", default=None, type=int, help="Perturbed stage (-1 for the initial block; default middle).")
@click.option("--coord", default=1, show_default=True, type=int, help="1-based coordinate within the stage block.")
@click.option("-o", "--output", default=None, type=click.Path(), help="Decay CSV path.")
@click.option("--fraction", default=0.9, show_default=True, help="Shift fraction of gamma.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable summary.")
@_builtin_options
def sensitivity(problem, stage, coord, output, fraction, as_json, n, mu1, mu2, gamma0, seed):
    """Directional derivative of PROBLEM's solution for one unit direction."""

    def run():
        qdp = _load_input(problem, n, mu1, mu2, gamma0, seed)
        i = qdp.dims.N // 2 if stage is None else stage
        l = unit_direction(qdp.dims, i, coord)
        fac = factorize(qdp, fraction)
        result = fac.solve(l)
        bounds = fac.bounds()
        if output:
            write_decay_csv(output, result, bounds)
        summary = {
            "stage": i,
            "coord": coord,
            "gamma": result.gamma,
            "delta": result.delta,
            "rho_fit": result.rho_fit,
            "rho_theory": bounds.rho,
            "upsilon_pq": bounds.upsilon_pq,
        }
        if as_json:
            click.echo(json.dumps(summary))
        else:
            click.echo(f"perturbed stage {i}, coordinate {coord}")
            click.echo(f"gamma (certified lower bound) = {result.gamma:.12g}, shift delta = {result.delta:.12g}")
            fitted = "n/a" if result.rho_fit is None else f"{result.rho_fit:.6g}"
            click.echo(f"fitted decay rate:      {fitted}")
            click.echo(f"certified decay rate:   {bounds.rho:.6g}")
            click.echo(f"certified envelope:     {bounds.upsilon_pq:.6g}")
            if output:
                click.echo(f"decay table written to {output}")

    _run(run)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of the reference-tracking decay experiment."""

    N: int = 40
    mu1: float = 10.0
    mu2: float = 1.0
    dynamics_kinds: tuple = ("linear", "exp")
    eps: tuple = (1.0, 0.1, 0.01)
    stage: int | None = None
    output_dir: str = "."
    parallel: bool = False

    def __post_init__(self):
        if self.N < 2:
            raise ValidationError(f"horizon must be >= 2, got {self.N}")
        if not self.mu1 > self.mu2 > 0:
            raise ValidationError(
                f"need mu1 > mu2 > 0, got mu1={self.mu1}, mu2={self.mu2}")
        if not self.eps or any(s <= 0 for s in self.eps):
            raise ValidationError("perturbation scales must be positive")
        bad = [k for k in self.dynamics_kinds if k not in ("linear", "exp")]
        if bad:
            raise ValidationError(f"unknown dynamics kinds {bad}")
        i = self.perturbed_stage
        if not 0 <= i <= self.N - 1:
            raise ValidationError(f"stage must lie in [0, {self.N - 1}], got {i}")

    @property
    def perturbed_stage(self) -> int:
        return (self.N // 2) if self.stage is None else self.stage


def _experiment_log_ratios(model, i, eps):
    d = model.d0.copy()
    d[model.dims.nx + i * model.dims.nd] += eps
    sol = newton_equality_solve(model, d, model.base_trajectory())
    states = np.abs(sol.trajectory.states[:, 0])
    with np.errstate(divide="ignore"):
        ratios = np.log(states / eps)
    return np.maximum(ratios, LOG_CLAMP)


def _write_log_csv(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "log_ratio"])
        for k, val in enumerate(values):
            writer.writerow([k, f"{val:.17g}"])


@main.command()
@click.option("--n", default=40, show_default=True, help="Horizon (>= 2).")
@click.option("--mu1", default=10.0, show_default=True)
@click.option("--mu2", default=1.0, show_default=True)
@click.option("--dynamics", default="both", show_default=True,
              type=click.Choice(["linear", "exp", "both"]))
@click.option("--eps", default="1,0.1,0.01", show_default=True,
              help="Comma-separated perturbation scales.")
@click.option("--stage", default=None, type=int, help="Perturbed stage (default floor(N/2)).")
@click.option("-o", "--output-dir", default=".", show_default=True, type=click.Path(file_okay=False))
@click.option("--parallel", is_flag=True, help="Run independent scale solves concurrently.")
def experiment(n, mu1, mu2, dynamics, eps, stage, output_dir, parallel):
    """Reference-tracking decay experiment: per-scale log-ratio tables.

    Builds the scalar nonconvex tracking problem, perturbs the reference at
    one stage with each scale, solves the nonlinear program, and writes one
    CSV of log(|x_k| / eps) per (dynamics, scale) pair plus the
    directional-derivative reference curve.
    """

    def run():
        try:
            scales = tuple(float(tok) for tok in eps.split(",") if tok.strip())
        except ValueError as exc:
            raise ValidationError(f"bad --eps list {eps!r}") from exc
        kinds = ("linear", "exp") if dynamics == "both" else (dynamics,)
        config = ExperimentConfig(
            N=n, mu1=mu1, mu2=mu2, dynamics_kinds=kinds, eps=scales,
            stage=stage, output_dir=output_dir, parallel=parallel)
        for path in run_experiment(config):
            click.echo(f"wrote {path}")

    _run(run)


def run_experiment(config: ExperimentConfig) -> list:
    """Solve all configured (dynamics, scale) cases and write the tables."""
    import os

    os.makedirs(config.output_dir, exist_ok=True)
    i = config.perturbed_stage
    jobs = []
    for kind in config.dynamics_kinds:
        model = presets.tracking_toy_model(config.N, config.mu1, config.mu2, kind)
        for scale in config.eps:
            jobs.append((kind, model, scale))

    def solve_job(job):
        kind, model, scale = job
        return kind, scale, _experiment_log_ratios(model, i, scale)

    if config.parallel:
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(solve_job, jobs))
    else:
        results = [solve_job(job) for job in jobs]

    written = []
    for kind, scale, ratios in results:
        path = os.path.join(config.output_dir, f"experiment_{kind}_eps{scale:g}.csv")
        _write_log_csv(path, ratios)
        written.append(path)

    for kind in config.dynamics_kinds:
        model = presets.tracking_toy_model(config.N, config.mu1, config.mu2, kind)
        qdp = assemble_qdp_from_nldp(model)
        res = solve_sensitivity(qdp, unit_direction(qdp.dims, i, 1))
        with np.errstate(divide="ignore"):
            ref = np.log(np.abs(res.trajectory.states[:, 0]))
        path = os.path.join(config.output_dir, f"experiment_{kind}_reference.csv")
        _write_log_csv(path, np.maximum(ref, LOG_CLAMP))
        written.append(path)
    return written


@main.command("verify")
@click.argument("problem", required=False)
@click.option("--trials", default=20, show_default=True, help="Random cross-check instances when no PROBLEM given.")
@click.option("--json", "as_json", is_flag=True)
@_builtin_options
def verify_cmd(problem, trials, as_json, n, mu1, mu2, gamma0, seed):
    """Cross-check the recursion pipeline against the dense saddle oracle."""

    def run():
        if trials < 1:
            raise ValidationError(f"--trials must be >= 1, got {trials}")
        rng = np.random.default_rng(seed)
        worst = 0.0
        if problem is not None:
            instances = [_load_input(problem, n, mu1, mu2, gamma0, seed)]
        else:
            instances = [random_sosc_qdp(int(rng.integers(0, 2 ** 31)), N=int(rng.integers(3, 16)))
                         for _ in range(trials)]
        for qdp in instances:
            i = int(rng.integers(-1, qdp.dims.N))
            block = qdp.dims.nx if i == -1 else qdp.dims.nd
            l = unit_direction(qdp.dims, i, int(rng.integers(1, block + 1)))
            worst = max(worst, verify_equivalence(factorize(qdp), l).primal_gap)
        report = {"instances": len(instances), "worst_relative_gap": worst, "pass": worst <= 1e-8}
        if as_json:
            click.echo(json.dumps(report))
        else:
            click.echo(f"cross-checked {len(instances)} instance(s); worst relative gap {worst:.3e}")
            click.echo("agreement: pass" if report["pass"] else "agreement: FAIL")
        if not report["pass"]:
            sys.exit(EXIT_SOLVER)

    _run(run)


if __name__ == "__main__":
    main()
