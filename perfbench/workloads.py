"""The four benchmark workloads and the package layers the traced run wraps.

Each workload has the same shape:

* ``setup()``   generates the instance(s) from the seed and writes files;
* ``draw()``    produces the next op's input (untimed);
* ``op(inp)``   is the timed call into the package;
* ``gate(inp, out)`` checks the op's output (untimed) and raises
  ``GateFailed`` when it is wrong.

``SIZE`` is the measured size and ``TINY`` a small size with the same code
path, used for warm-up and in the tests. The package only ever sees the
generated instances, never the seed.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
from click.testing import CliRunner

import qdpsens as qs
from qdpsens import cli
from tracer import Layer

# Traced names. The metric name is ``<module>.<name>`` (a leading underscore
# dropped, as metric names start with a letter); each gets ``.calls``
# and ``.self_s`` per op, and a counter (an attribute of the result) when set.
LAYERS = (
    Layer("nullspace.reduced_hessian_gamma", "nullspace", "reduced_hessian_gamma"),
    Layer("nullspace.nullspace_basis", "nullspace", "nullspace_basis"),
    Layer("convexify.convexify", "convexify", "convexify"),
    Layer("riccati.backward_pass", "riccati", "backward_pass"),
    Layer("riccati.forward_solve", "riccati", "forward_solve"),
    Layer("estimator.fit", "estimator", "RiccatiSensitivityEstimator.fit"),
    Layer("estimator.predict", "estimator", "RiccatiSensitivityEstimator.predict"),
    Layer("sensitivity.solve_sensitivity", "sensitivity", "solve_sensitivity"),
    Layer("sensitivity.theoretical_constants", "sensitivity", "theoretical_constants"),
    Layer("sensitivity.auto_controllability", "sensitivity", "auto_controllability"),
    Layer("sensitivity.finite_difference_sensitivity", "sensitivity",
          "finite_difference_sensitivity"),
    Layer("verify.dense_kkt_solve", "verify", "dense_kkt_solve"),
    Layer("verify.newton_equality_solve", "verify", "newton_equality_solve", counter="iterations"),
    Layer("model.assemble_qdp_from_nldp", "model", "assemble_qdp_from_nldp"),
    Layer("model.load_qdp", "model", "load_qdp"),
    Layer("cli.sensitivity", "cli", "sensitivity.callback"),
    Layer("linalg.SymSolve", "_linalg", "SymSolve.__init__"),
)

# Agreement with the dense saddle oracle, as ``qdpsens verify`` demands.
ORACLE_GAP = 1e-8
# Finite difference against the analytic sensitivity (measured: 2.5e-7 on exp).
FD_GAP = 1e-5
# Round-off slack on the certified envelope.
BOUND_SLACK = 1e-9


class Reference:
    """A fixed numpy computation, timed after every op to read the host's speed.

    A forward recursion over 40 stages of 2x2 blocks for 10 unit directions:
    the mix of small numpy calls and Python loops that the package's Riccati
    sweeps are made of. With ``dense``, also the QR of a 300x300 matrix, for
    workloads whose ops are dominated by dense factorizations. The data is
    fixed here, so the reference never changes with the program or the seed.
    On a shared host, an op and the reference run right after it are slowed
    alike, so their ratio stays put while each time alone moves by up to 2x.
    """

    STAGES, DIRECTIONS, DENSE_N = 40, 10, 300

    def __init__(self, dense: bool):
        rng = np.random.default_rng(0)
        self.A = [0.5 * rng.standard_normal((2, 2)) for _ in range(self.STAGES)]
        self.B = [rng.standard_normal((2, 2)) for _ in range(self.STAGES)]
        self.H = [3.0 * np.eye(2) + 0.1 * rng.standard_normal((2, 2))
                  for _ in range(self.STAGES)]
        self.M = rng.standard_normal((self.DENSE_N, self.DENSE_N)) if dense else None

    def run(self) -> np.ndarray:
        if self.M is not None:
            np.linalg.qr(self.M)
        rows = []
        for d in range(self.DIRECTIONS):
            x = np.zeros(2)
            x[d % 2] = 1.0
            traj = []
            for A, B, H in zip(self.A, self.B, self.H):
                u = -np.linalg.solve(H, B.T @ x)
                x = A @ x + B @ u
                traj.append(np.concatenate([x, u]))
            rows.append(np.concatenate(traj))
        return np.vstack(rows)


class GateFailed(Exception):
    """An op returned, but its output is wrong."""


def relative_gap(value, reference) -> float:
    """Max-abs difference scaled like ``qdpsens verify``: by max(1, |ref|_inf)."""
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.max(np.abs(value - reference)) / max(1.0, np.max(np.abs(reference))))


class CertifyLong:
    """``qdpsens sensitivity <problem.json> --stage i --coord 1 --json -o <csv>``."""

    name = "certify_long"
    DENSE_REFERENCE = True  # the nullspace QR and dense gamma dominate the op
    SIZE = {"N": 80, "nx": 4, "nd": 2}
    TINY = {"N": 8, "nx": 4, "nd": 2}

    def __init__(self, seed: int, workdir: str, N: int, nx: int, nd: int):
        self.seed, self.N, self.nx, self.nd = seed, N, nx, nd
        self.problem = os.path.join(workdir, f"certify_N{N}.json")
        self.table = os.path.join(workdir, f"certify_N{N}.csv")

    def setup(self):
        # nu = nx: the reachability certificate cannot pass with nu < nx.
        qdp = qs.random_sosc_qdp(self.seed, N=self.N, nx=self.nx, nu=self.nx, nd=self.nd,
                                 square_controls=True)
        qs.save_qdp(qdp, self.problem)
        self.rng = np.random.default_rng(self.seed)
        self.runner = CliRunner()

    def draw(self) -> int:
        return int(self.rng.integers(0, self.N))

    def op(self, stage: int):
        return self.runner.invoke(cli.main, [
            "sensitivity", self.problem, "--stage", str(stage), "--coord", "1",
            "--json", "-o", self.table])

    def gate(self, stage: int, result) -> None:
        if result.exit_code != 0:
            raise GateFailed(f"exit code {result.exit_code}: {result.output.strip()}")
        summary = json.loads(result.output.strip().splitlines()[-1])
        if summary["stage"] != stage:
            raise GateFailed(f"summary reports stage {summary['stage']}, asked {stage}")
        with open(self.table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.N + 1:
            raise GateFailed(f"{len(rows)} table rows, expected {self.N + 1}")
        for row in rows:
            norm_p, bound = float(row["norm_p"]), float(row["theory_bound"])
            if not norm_p <= bound * (1.0 + BOUND_SLACK):
                raise GateFailed(f"stage {row['k']}: |p| = {norm_p:.6g} above bound {bound:.6g}")


class JacobianSweep:
    """``RiccatiSensitivityEstimator(0.9).fit(qdp).predict(np.eye(n_dir))``."""

    name = "jacobian_sweep"
    DENSE_REFERENCE = False
    SIZE = {"N": 40, "nx": 2, "nd": 2, "checked_rows": 2}
    TINY = {"N": 8, "nx": 2, "nd": 2, "checked_rows": 2}

    def __init__(self, seed: int, workdir: str, N: int, nx: int, nd: int, checked_rows: int):
        self.seed, self.N, self.nx, self.nd = seed, N, nx, nd
        self.checked_rows = checked_rows

    def setup(self):
        self.qdp = qs.random_sosc_qdp(self.seed, N=self.N, nx=self.nx, nu=self.nx, nd=self.nd,
                                      square_controls=True)
        self.directions = np.eye(self.qdp.dims.n_dir)
        self.rng = np.random.default_rng(self.seed)

    def draw(self) -> np.ndarray:
        """Rows the gate compares with the dense oracle."""
        return self.rng.choice(self.qdp.dims.n_dir, size=self.checked_rows, replace=False)

    def op(self, rows):
        return qs.RiccatiSensitivityEstimator(0.9).fit(self.qdp).predict(self.directions)

    def gate(self, rows, jac) -> None:
        dims = self.qdp.dims
        if jac.shape != (dims.n_dir, dims.n_z):
            raise GateFailed(f"Jacobian shape {jac.shape}, expected {(dims.n_dir, dims.n_z)}")
        for j in rows:
            ref = qs.dense_kkt_solve(self.qdp, self.directions[j]).trajectory.stacked()
            gap = relative_gap(jac[j], ref)
            if not gap <= ORACLE_GAP:
                raise GateFailed(f"row {j}: gap {gap:.3e} to the dense oracle")


class OracleSmall:
    """One ``qdpsens verify`` run: dense KKT solve and the pipeline on each case.

    The case shapes (N, nx, nu, nd) are fixed, so every seed asks for the same
    work; the seed draws the entries and the unit direction of each case.
    Shapes include nu < nx, which the certify path cannot take.
    """

    name = "oracle_small"
    DENSE_REFERENCE = False
    SHAPES = ((1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 2, 3), (4, 4, 2))
    SIZE = {"horizons": (3, 7, 11, 15)}
    TINY = {"horizons": (3,)}

    def __init__(self, seed: int, workdir: str, horizons: tuple):
        self.seed, self.horizons = seed, horizons

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for N in self.horizons:
            for nx, nu, nd in self.SHAPES:
                qdp = qs.random_sosc_qdp(int(rng.integers(0, 2 ** 31)), N=N, nx=nx, nu=nu, nd=nd)
                i = int(rng.integers(-1, N))
                coord = int(rng.integers(1, (nx if i == -1 else nd) + 1))
                self.cases.append((qdp, qs.unit_direction(qdp.dims, i, coord)))

    def draw(self):
        return None

    def op(self, _):
        return [(qs.dense_kkt_solve(qdp, l), qs.solve_sensitivity(qdp, l)) for qdp, l in self.cases]

    def gate(self, _, out) -> None:
        for j, (kkt, res) in enumerate(out):
            gap = relative_gap(res.trajectory.stacked(), kkt.trajectory.stacked())
            if not gap <= ORACLE_GAP:
                raise GateFailed(f"trial {j}: gap {gap:.3e} to the dense oracle")


class NonlinearFd:
    """Per dynamics kind: linearize the tracking model, solve, finite-difference."""

    name = "nonlinear_fd"
    DENSE_REFERENCE = False
    SIZE = {"N": 50}
    TINY = {"N": 20}
    KINDS = ("linear", "exp")
    MU1, MU2, EPS = 10.0, 1.0, 1e-6

    def __init__(self, seed: int, workdir: str, N: int):
        self.seed, self.N = seed, N

    def setup(self):
        self.rng = np.random.default_rng(self.seed)

    def draw(self) -> int:
        """A perturbed stage in the middle half of the horizon."""
        return int(self.rng.integers(self.N // 4, 3 * self.N // 4 + 1))

    def op(self, stage: int):
        out = []
        for kind in self.KINDS:
            model = qs.tracking_toy_model(self.N, self.MU1, self.MU2, kind)
            qdp = qs.assemble_qdp_from_nldp(model)
            l = qs.unit_direction(qdp.dims, stage, 1)
            res = qs.solve_sensitivity(qdp, l)
            out.append((kind, res, qs.finite_difference_sensitivity(model, l, self.EPS)))
        return out

    def gate(self, stage: int, out) -> None:
        for kind, res, fd in out:
            analytic = res.trajectory.stacked()
            gap = float(np.max(np.abs(fd.stacked() - analytic)) / np.max(np.abs(analytic)))
            if not gap <= FD_GAP:
                raise GateFailed(f"{kind} stage {stage}: finite-difference gap {gap:.3e}")


WORKLOADS = {cls.name: cls for cls in (CertifyLong, JacobianSweep, OracleSmall, NonlinearFd)}
