"""Perturbation directions, the sensitivity pipeline, and decay certificates.

The directional derivative of a stagewise program's solution with respect
to its reference vector solves a quadratic program built from the
Lagrangian Hessian at the base point. The pipeline here convexifies that
program, runs the backward/forward recursion, and reports per-stage norms
together with every constant of the exponential-decay certificate. One
``Factorization`` (gamma, the shift, the convexified program and its
Riccati solution) is built per problem and shift, and both the trajectory
and the certificate are read from it:

    gamma                 certified lower bound on the reduced curvature of the
                          original data (the lo of ``curvature.gamma_bracket``)
    upsilon               largest block norm of the original data
    t, lambda_c           uniform reachability horizon and Gramian floor
    psi                   reachability-block norm bound sum_{i=1..t} upsilon^i
    upsilon_qbar          a-priori bound on the zero-shift cost-to-go
    upsilon_tilde         measured bound on the transformed cost blocks
    lambda_h              curvature floor of the transformed stage Hessians
    upsilon_tilde_qbar    measured bound on the transformed cost-to-go
    upsilon_e, rho        closed-loop product envelope |E_j..E_i| <=
                          upsilon_e rho^{j-i+1}
    upsilon_p/u/f/uf/pq   influence-matrix and trajectory envelopes, ending
                          in max(|p_k|, |q_k|) <= upsilon_pq rho^{|k-i|}

All envelope constants are evaluated from measured quantities; where a
formula needs a bound on the transformed data it uses
max(upsilon, upsilon_tilde) because the measured transformed bound need not
dominate the untouched dynamics blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import max_operator_norm, symmetrize
from .convexify import ConvexifiedQdp, convexify
from .curvature import gamma_bracket
from .exceptions import (
    ControllabilityFailed,
    InsufficientData,
    ValidationError,
)
from .model import Dims, NldpModel, QdpProblem, Trajectory, as_vector
from .riccati import RiccatiSolution, backward_pass, forward_solve

DECAY_FLOOR = 1e-12
LOG_CLAMP = -500.0
GRAMIAN_FLOOR = 1e-6


@dataclass(frozen=True)
class PerturbationDirection:
    """Direction vector (l_{-1}; l_0; ...; l_{N-1}) with optional source tag."""

    l_minus1: np.ndarray
    l_stages: np.ndarray
    source_stage: int | None = None

    def __post_init__(self):
        l0 = np.array(self.l_minus1, dtype=float).reshape(-1)
        ls = np.atleast_2d(np.array(self.l_stages, dtype=float))
        l0.setflags(write=False)
        ls.setflags(write=False)
        object.__setattr__(self, "l_minus1", l0)
        object.__setattr__(self, "l_stages", ls)

    @classmethod
    def zero(cls, dims: Dims) -> "PerturbationDirection":
        return cls(np.zeros(dims.nx), np.zeros((dims.N, dims.nd)))

    @classmethod
    def from_dense(cls, dims: Dims, vec, source_stage: int | None = None) -> "PerturbationDirection":
        vec = as_vector(vec, dims.n_dir, "direction")
        return cls(vec[:dims.nx], vec[dims.nx:].reshape(dims.N, dims.nd), source_stage)

    def dense(self) -> np.ndarray:
        return np.concatenate([self.l_minus1, self.l_stages.reshape(-1)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.dense()))


def unit_direction(dims: Dims, i: int, j: int) -> PerturbationDirection:
    """Canonical unit direction in block i (i = -1 is the initial block).

    The coordinate j is 1-based, matching the usual basis-vector indexing:
    j = 1 selects the first entry of the block.
    """
    if not (i == -1 or 0 <= i <= dims.N - 1):
        raise ValidationError(f"stage {i} outside {{-1}} u [0, {dims.N - 1}]")
    block = dims.nx if i == -1 else dims.nd
    if not 1 <= j <= block:
        raise ValidationError(f"coordinate {j} outside [1, {block}] for stage {i}")
    return direction_in_block(dims, i, np.eye(block)[j - 1])


def direction_in_block(dims: Dims, i: int, values) -> PerturbationDirection:
    """Unit-normalized direction supported on a single stage block."""
    if not (i == -1 or 0 <= i <= dims.N - 1):
        raise ValidationError(f"stage {i} outside {{-1}} u [0, {dims.N - 1}]")
    block = dims.nx if i == -1 else dims.nd
    values = as_vector(values, block, "block values")
    nrm = float(np.linalg.norm(values))
    if nrm == 0.0:
        raise ValidationError("block direction must be nonzero")
    l0 = np.zeros(dims.nx)
    ls = np.zeros((dims.N, dims.nd))
    if i == -1:
        l0[:] = values / nrm
    else:
        ls[i] = values / nrm
    return PerturbationDirection(l0, ls, source_stage=i)


@dataclass(frozen=True)
class DecayFit:
    rho_fit: float
    intercept: float
    r_squared: float
    n_points: int


def fit_decay_rate(norms, i: int, floor: float = DECAY_FLOOR, side: str = "both") -> DecayFit:
    """Least-squares decay rate of log(norm_k) against distance |k - i|.

    Stages at or below the floor are dropped (they are numerically zero).
    ``side`` restricts the fit to stages left ("left", k < i) or right
    ("right", k > i) of the source. The fit needs at least three usable
    stages on one side for "both", or two on the chosen side otherwise.
    """
    norms = np.asarray(norms, dtype=float).reshape(-1)
    ks = np.arange(norms.size)
    usable = norms > floor
    if side == "left":
        usable &= ks < i
        required = 2
    elif side == "right":
        usable &= ks > i
        required = 2
    elif side == "both":
        left = int(np.count_nonzero(usable & (ks < i)))
        right = int(np.count_nonzero(usable & (ks > i)))
        if max(left, right) < 3:
            raise InsufficientData(
                f"need >= 3 stages above floor on one side of stage {i}; "
                f"got {left} left, {right} right"
            )
        required = 2
    else:
        raise ValidationError(f"side must be left/right/both, got {side!r}")
    pts_x = np.abs(ks[usable] - i).astype(float)
    pts_y = np.log(norms[usable])
    if pts_x.size < required or np.ptp(pts_x) == 0.0:
        raise InsufficientData(
            f"only {pts_x.size} usable stages for a {side}-side fit at stage {i}"
        )
    dx, dy = pts_x - pts_x.mean(), pts_y - pts_y.mean()
    slope = (dx @ dy) / (dx @ dx)
    intercept = pts_y.mean() - slope * pts_x.mean()
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    ss_tot = float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(rho_fit=float(np.exp(slope)), intercept=float(intercept),
                    r_squared=r2, n_points=int(pts_x.size))


@dataclass(frozen=True)
class SensitivityResult:
    """Directional derivative trajectory with per-stage norms and metadata."""

    trajectory: Trajectory
    state_norms: np.ndarray
    control_norms: np.ndarray
    source_stage: int | None
    gamma: float
    delta: float
    rho_fit: float | None
    fit_intercept: float | None


def solve_sensitivity(qdp: QdpProblem, l, delta_fraction: float = 0.9) -> SensitivityResult:
    """Full pipeline: shift selection, convexification, recursion, fit.

    The returned trajectory is the directional derivative of the optimal
    solution along l; it matches the dense saddle-point oracle applied to
    the original indefinite program.
    """
    return factorize(qdp, delta_fraction).solve(l)


@dataclass(frozen=True)
class ControllabilityReport:
    """Per-stage reachability horizons against a fixed Gramian floor."""

    lambda_c: float
    t_stages: tuple
    t: int | None
    passed: bool


def _gramian_scan(qdp: QdpProblem, t_max: int | None):
    """Yield, for t = 1..t_max, lambda_min(Gamma_{k,t}) of every stage k whose
    window [k, k+t-1] fits the horizon. All windows of one length are built at
    once: Gamma_{k,1} = B_k B_k', Gamma_{k,t+1} = A_{k+t} Gamma_{k,t} A_{k+t}' + B_{k+t} B_{k+t}'.
    """
    N = qdp.dims.N
    t_max = N if t_max is None else t_max
    if not 1 <= t_max <= N:
        raise ValidationError(f"t_max must lie in [1, {N}], got {t_max}")
    A, B = qdp.blocks["A"], qdp.blocks["B"]
    gram = bbt = B @ np.swapaxes(B, 1, 2)
    for t in range(t_max):
        if t:
            gram = A[t:] @ gram[:-1] @ np.swapaxes(A[t:], 1, 2) + bbt[t:]
        yield np.linalg.eigvalsh(symmetrize(gram))[:, 0]


def _first_passing(eigs, lambda_c: float, N: int) -> ControllabilityReport:
    """Each stage's first length clearing lambda_c; stops once every growing window has one."""
    found = np.zeros(N, dtype=int)  # 0: none yet
    for t, eig in enumerate(eigs, 1):
        head = found[:eig.size]
        head[(head == 0) & (eig >= lambda_c)] = t
        if found[:N - t].all():
            break
    passed = bool(found.all())
    return ControllabilityReport(float(lambda_c), tuple(int(t) or None for t in found),
                                 int(found.max()) if passed else None, passed)


def controllability(qdp: QdpProblem, lambda_c: float, t_max: int | None = None) -> ControllabilityReport:
    """Smallest per-stage horizon whose Gramian clears the floor lambda_c."""
    if lambda_c <= 0.0:
        raise ValidationError(f"lambda_c must be positive, got {lambda_c}")
    return _first_passing(_gramian_scan(qdp, t_max), lambda_c, qdp.dims.N)


def auto_controllability(qdp: QdpProblem, t_max: int | None = None) -> ControllabilityReport:
    """Pick the smallest uniform horizon whose worst-stage Gramian clears GRAMIAN_FLOOR.

    lambda_c is that worst-stage eigenvalue, the tightest floor the data allows,
    and the report equals ``controllability(qdp, lambda_c, t_max)``. If no
    horizon up to t_max passes, it is ``controllability(qdp, GRAMIAN_FLOOR, t_max)``.
    """
    N = qdp.dims.N
    scanned, latest = [], np.empty(N)  # latest: each stage's value at its longest window
    for eig in _gramian_scan(qdp, t_max):
        if eig[-1] < GRAMIAN_FLOOR:  # this window just reached the horizon: it never grows
            break
        scanned.append(eig)
        latest[:eig.size] = eig
        if latest.min() >= GRAMIAN_FLOOR:
            return _first_passing(scanned, float(latest.min()), N)
    return controllability(qdp, GRAMIAN_FLOOR, t_max)


def lambda_bcs(beta_S: float, beta_B: float, beta_C: float) -> float:
    """Curvature floor of a 2x2 block matrix from its component bounds.

    For a symmetric positive definite [[A, B'], [B, C]] with C >= beta_C I,
    Schur complement A - B' C^{-1} B >= beta_S I, and |B| <= beta_B, the
    whole matrix dominates (beta_C / (beta_C + beta_B))^2 min(beta_S, beta_C).
    """
    if beta_S <= 0.0 or beta_C <= 0.0:
        raise ValidationError("beta_S and beta_C must be positive")
    if beta_B < 0.0:
        raise ValidationError("beta_B must be nonnegative")
    return (beta_C / (beta_C + beta_B)) ** 2 * min(beta_S, beta_C)


@dataclass(frozen=True)
class BoundsReport:
    """Every constant of the decay certificate, measured on one problem."""

    gamma: float
    delta: float
    upsilon: float
    t: int
    lambda_c: float
    psi: float
    upsilon_qbar: float
    upsilon_tilde: float
    lambda_bcs: float
    lambda_h: float
    upsilon_tilde_qbar: float
    upsilon_e: float
    rho: float
    upsilon_p: float
    upsilon_u: float
    upsilon_f: float
    upsilon_uf: float
    upsilon_pq: float

    def decay_bound(self, i: int, k) -> np.ndarray:
        """Envelope upsilon_pq rho^(distance) for source stage i (-1 allowed)."""
        k = np.asarray(k)
        dist = k if i == -1 else np.abs(k - i)
        return self.upsilon_pq * self.rho ** dist


@dataclass(frozen=True)
class Factorization:
    """One problem factorized once: the certified gamma bracket, the shift delta
    in (0, gamma), the convexified program and the Riccati solution of its
    ``as_qdp()`` program. ``gamma`` is the bracket's certified lower end, which
    every consumer reads; ``gamma_hi`` is its upper end. Every direction's
    sensitivity (``solve``) and the decay certificate (``bounds``) are read
    from it. Build it with ``factorize``.
    """

    problem: QdpProblem
    gamma: float
    gamma_hi: float
    delta: float
    convexified: ConvexifiedQdp
    riccati: RiccatiSolution

    def trajectory(self, l) -> Trajectory:
        """Derivative trajectory along l: the forward solve alone."""
        return forward_solve(self.riccati, self.convexified.as_qdp(), l)

    def solve(self, l) -> SensitivityResult:
        """Derivative trajectory along l, its norms, and the decay fit from its source stage."""
        traj = self.trajectory(l)
        norm_p = traj.state_norms()
        source = getattr(l, "source_stage", None)
        rho_fit = intercept = None
        if source is not None:
            try:
                fit = fit_decay_rate(norm_p, source)
                rho_fit, intercept = fit.rho_fit, fit.intercept
            except InsufficientData:
                pass
        return SensitivityResult(
            trajectory=traj, state_norms=norm_p, control_norms=traj.control_norms(),
            source_stage=source, gamma=self.gamma, delta=self.delta,
            rho_fit=rho_fit, fit_intercept=intercept)

    def bounds(self, lambda_c: float | None = None, t_max: int | None = None) -> BoundsReport:
        """Evaluate the full certificate chain at this factorization's shift.

        Requires a passing reachability check (auto-selected when lambda_c
        is not given). The resulting envelopes are proven upper bounds for
        this problem; the decay rate rho always lies in (0, 1).
        """
        qdp, gamma, delta = self.problem, self.gamma, self.delta
        ctrl = auto_controllability(qdp, t_max) if lambda_c is None else controllability(qdp, lambda_c, t_max)
        if not ctrl.passed:
            raise ControllabilityFailed(ctrl.t_stages.index(None), ctrl.lambda_c)
        t, lam_c = ctrl.t, ctrl.lambda_c

        upsilon = qdp.max_block_norm()
        psi = float(sum(upsilon ** j for j in range(1, t + 1)))
        upsilon_qbar = 2.0 * upsilon * (
            1.0
            + psi ** 2 * upsilon ** (2 * t) / lam_c ** 2
            + sum((upsilon ** j + psi ** 2 * upsilon ** t / lam_c) ** 2 for j in range(1, t))
        )

        upsilon_tilde = self.convexified.max_block_norm()
        lam_h = lambda_bcs(delta, upsilon_tilde, gamma)
        upsilon_tilde_qbar = max_operator_norm(self.riccati.K)

        upsilon_e = float(np.sqrt(upsilon_tilde_qbar / lam_h))
        rho = float(np.sqrt(upsilon_tilde_qbar / (upsilon_tilde_qbar + lam_h)))

        # Data bound for the transformed problem: the measured transformed-block
        # bound does not necessarily dominate the untouched A, B, C blocks.
        ups = max(upsilon, upsilon_tilde)
        upsilon_p_gain = max(1.0, (ups ** 2 * upsilon_tilde_qbar + ups) / gamma)
        one_minus_rho2 = lam_h / (upsilon_tilde_qbar + lam_h)
        upsilon_u = (
            (1.0 + upsilon_p_gain) * upsilon_e ** 2 * ups ** 3 / (gamma * one_minus_rho2)
            + upsilon_e * ups ** 2 / (gamma * rho)
        )
        upsilon_f = (
            ups ** 2 * upsilon_e ** 2 * upsilon_tilde_qbar * rho / (gamma * one_minus_rho2)
            + upsilon_e / rho
            + ups ** 2 * upsilon_e * upsilon_tilde_qbar / (gamma * rho)
        )
        upsilon_uf = max(upsilon_u, upsilon_f)
        upsilon_p = (1.0 + ups) * upsilon_uf
        upsilon_pq1 = upsilon_p_gain * upsilon_e
        upsilon_pq2 = (
            upsilon_p * upsilon_p_gain
            + (1.0 + upsilon_p_gain + rho * upsilon_tilde_qbar) * upsilon_e * ups ** 2 / (gamma * rho)
            + (ups ** 2 * upsilon_tilde_qbar + ups) / gamma
        )
        return BoundsReport(
            gamma=gamma, delta=delta, upsilon=upsilon, t=t, lambda_c=lam_c, psi=psi,
            upsilon_qbar=upsilon_qbar, upsilon_tilde=upsilon_tilde, lambda_bcs=lam_h,
            lambda_h=lam_h, upsilon_tilde_qbar=upsilon_tilde_qbar, upsilon_e=upsilon_e,
            rho=rho, upsilon_p=upsilon_p, upsilon_u=upsilon_u, upsilon_f=upsilon_f,
            upsilon_uf=upsilon_uf, upsilon_pq=max(upsilon_pq1, upsilon_pq2))


def factorize(qdp: QdpProblem, delta_fraction: float = 0.9) -> Factorization:
    """Factorize qdp once at the shift delta_fraction * gamma.

    delta_fraction must lie in (0, 1), which keeps the shift inside the
    certified interval (0, gamma); it is checked before any work is done.
    """
    return _factorize(qdp, _fraction_shift(delta_fraction))


def _fraction_shift(delta_fraction: float):
    """gamma -> delta_fraction * gamma, once delta_fraction is checked inside (0, 1)."""
    if not 0.0 < delta_fraction < 1.0:
        raise ValidationError(f"delta_fraction must lie in (0, 1), got {delta_fraction}")
    return lambda gamma: delta_fraction * gamma


def _certified_shift(qdp: QdpProblem, shift) -> tuple:
    """(gamma, gamma_hi, delta): the certified bracket, whose count at sigma = 0 is the
    SOSC check, and delta = shift(gamma) checked inside (0, gamma)."""
    gamma, gamma_hi = gamma_bracket(qdp)
    delta = float(shift(gamma))
    if not 0.0 < delta < gamma:
        raise ValidationError(f"delta must lie in (0, gamma) = (0, {gamma:.6g}), got {delta}")
    return gamma, gamma_hi, delta


def _factorize(qdp: QdpProblem, shift) -> Factorization:
    """The certified shift, convexify, backward pass."""
    gamma, gamma_hi, delta = _certified_shift(qdp, shift)
    conv = convexify(qdp, delta)
    return Factorization(qdp, gamma, gamma_hi, delta, conv, backward_pass(conv.as_qdp()))


def select_delta(qdp: QdpProblem, fraction: float = 0.9) -> float:
    """Shift as a fraction of the certified reduced-curvature bound gamma.

    The sufficient interval is (0, gamma); pushing the shift close to gamma
    gives the transformed problem the largest certified curvature floor, so
    the default sits at 0.9. Only the gamma bracket is computed.
    """
    return _certified_shift(qdp, _fraction_shift(fraction))[2]


def theoretical_constants(qdp: QdpProblem, delta: float, lambda_c: float | None = None,
                          t_max: int | None = None) -> BoundsReport:
    """Evaluate the full certificate chain for a fixed shift parameter.

    Requires positive reduced curvature, delta strictly inside (0, gamma) for
    the certified lower bound gamma,
    and a passing reachability check (see ``Factorization.bounds``).
    """
    return _factorize(qdp, lambda gamma: delta).bounds(lambda_c, t_max)


def finite_difference_sensitivity(model: NldpModel, l, eps: float) -> Trajectory:
    """One-sided difference quotient of the solution map along l.

    Solves the nonlinear problem at the base reference and at the reference
    pushed by eps along l (warm-started from the base solution), then
    returns the scaled trajectory difference.
    """
    from .verify import newton_equality_solve

    if eps <= 0.0:
        raise ValidationError(f"eps must be positive, got {eps}")
    dense = l.dense() if hasattr(l, "dense") else as_vector(l, model.dims.n_dir, "direction")
    base = newton_equality_solve(model, model.d0, model.base_trajectory())
    pert = newton_equality_solve(model, model.d0 + eps * dense, base.trajectory)
    return Trajectory(
        (pert.trajectory.states - base.trajectory.states) / eps,
        (pert.trajectory.controls - base.trajectory.controls) / eps,
    )


def write_decay_csv(path, result: SensitivityResult, bounds: BoundsReport | None) -> None:
    """Emit the per-stage decay table.

    Columns: k, norm_p, norm_q, log_ratio, theory_bound; one row per state
    stage (the last row has no control and leaves norm_q empty). log_ratio
    is the natural log of the state norm, clamped from below at LOG_CLAMP.
    """
    import csv

    norms_p = result.state_norms
    norms_q = result.control_norms
    source = result.source_stage if result.source_stage is not None else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "norm_p", "norm_q", "log_ratio", "theory_bound"])
        for k in range(norms_p.size):
            log_ratio = np.log(norms_p[k]) if norms_p[k] > 0.0 else -np.inf
            log_ratio = max(log_ratio, LOG_CLAMP)
            bound = bounds.decay_bound(source, k) if bounds is not None else np.nan
            writer.writerow([
                k,
                f"{norms_p[k]:.17g}",
                f"{norms_q[k]:.17g}" if k < norms_q.size else "",
                f"{log_ratio:.17g}",
                f"{float(bound):.17g}",
            ])
