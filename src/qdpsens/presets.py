"""Built-in problem families used by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError
from .model import Dims, NldpModel, QdpProblem


def _f_linear(d):
    return d


def _f_exp(d):
    return np.exp(d) - 1.0


def _frozen(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    arr.setflags(write=False)
    return arr


def tracking_toy_model(
    N: int,
    mu1: float,
    mu2: float,
    dynamics_kind: str = "linear",
) -> NldpModel:
    """Scalar nonconvex tracking problem driven purely by its reference.

    Stage cost mu1 (u_k - d_k)^2 - mu2 (x_k - d_k)^2 with terminal cost
    -mu2 x_N^2, dynamics x_{k+1} = u_k + f(d_k) with f(0) = 0, and initial
    state 0. For mu1 > mu2 > 0 the unperturbed problem (d = 0) has the
    all-zero trajectory as its unique minimizer with zero multipliers, the
    reduced-curvature bound equals mu1 - mu2 at every horizon, and one-step
    reachability holds with unit margin.

    dynamics_kind selects f: "linear" for f(d) = d, "exp" for
    f(d) = exp(d) - 1.

    Eliminating u_k = x_{k+1} - f(d_k) makes the objective separable stage
    by stage, so for any reference d the minimizer is

        x_j = (mu1 (d_{j-1} + f(d_{j-1})) - mu2 d_j) / (mu1 - mu2),  1 <= j <= N-1,
        x_N = mu1 (d_{N-1} + f(d_{N-1})) / (mu1 - mu2).

    A perturbation of d_i therefore moves only the states x_i, x_{i+1} and
    the controls u_{i-1}, u_i: the sensitivity has exact two-stage support.
    """
    if not mu1 > mu2 > 0:
        raise ValidationError(f"need mu1 > mu2 > 0, got mu1={mu1}, mu2={mu2}")
    if dynamics_kind not in ("linear", "exp"):
        raise ValidationError(f"unknown dynamics kind {dynamics_kind!r}")
    f = _f_linear if dynamics_kind == "linear" else _f_exp
    dims = Dims(N=N, nx=1, nu=1, nd=1)
    # Constant derivative blocks, built once per model and shared read-only by every call.
    zero, one = _frozen([[0.0]]), _frozen([[1.0]])
    linear_jacobians = (zero, one, one)
    hessian_blocks = (_frozen([[-2.0 * mu2]]), zero, _frozen([[2.0 * mu1]]),
                      _frozen([[2.0 * mu2]]), _frozen([[-2.0 * mu1]]))

    def stage_cost(k, x, u, d):
        return float(mu1 * (u[0] - d[0]) ** 2 - mu2 * (x[0] - d[0]) ** 2)

    def terminal_cost(x):
        return float(-mu2 * x[0] ** 2)

    def dynamics(k, x, u, d):
        return np.array([u[0] + f(d[0])])

    def stage_cost_grad(k, x, u, d):
        return (
            np.array([-2.0 * mu2 * (x[0] - d[0])]),
            np.array([2.0 * mu1 * (u[0] - d[0])]),
        )

    def terminal_cost_grad(x):
        return np.array([-2.0 * mu2 * x[0]])

    def dynamics_jacobians(k, x, u, d):
        if dynamics_kind == "linear":
            return linear_jacobians
        return zero, one, np.array([[np.exp(d[0])]])

    def lagrangian_hessian(k, x, u, d, lam_k):
        # f depends on d only, so the multiplier contributes nothing to
        # these blocks (its f'' term lands in the pure-d corner).
        return hessian_blocks

    def terminal_hessian(x):
        return hessian_blocks[0]

    return NldpModel(
        dims=dims,
        stage_cost=stage_cost,
        terminal_cost=terminal_cost,
        dynamics=dynamics,
        stage_cost_grad=stage_cost_grad,
        terminal_cost_grad=terminal_cost_grad,
        dynamics_jacobians=dynamics_jacobians,
        lagrangian_hessian=lagrangian_hessian,
        terminal_hessian=terminal_hessian,
        d0=np.zeros(dims.n_dir),
        x0=np.zeros((N + 1, 1)),
        u0=np.zeros((N, 1)),
        multipliers=np.zeros((N + 1, 1)),
    )


def tridiagonal_chain_qdp(
    N: int,
    gamma0: float,
    seed: int = 0,
    b_scale: float = 1.0,
    d_scale: float = 1.0,
    b_values=None,
) -> QdpProblem:
    """Scalar chain with unit dynamics and dominated state curvature.

    With A_k = B_k = 1 the kernel Gram matrices are tridiagonal, so by a
    Gershgorin argument the choice

        a_k >= 2 |b_k| + 2 |b_{k-1}| + 4 gamma0

    forces the reduced curvature (over the scaled staircase kernel basis)
    to at least 4 gamma0 even when the control curvatures b_k are negative.
    The orthonormal-basis bound that the package reports is then at least
    4 gamma0 / lambda_max of the basis Gram matrix, which the same argument
    caps at 5.

    b_values fixes the control curvatures explicitly (used to build
    families that differ only through gamma0).
    """
    rng = np.random.default_rng(seed)
    dims = Dims(N=N, nx=1, nu=1, nd=1)
    if b_values is None:
        b = rng.uniform(-b_scale, b_scale, size=N)
    else:
        b = np.asarray(b_values, dtype=float).reshape(-1)
        if b.shape != (N,):
            raise ValidationError(f"b_values: expected length {N}")
    a = np.empty(N + 1)
    a[0] = 2.0 * abs(b[0]) + 4.0 * gamma0
    for k in range(1, N):
        a[k] = 2.0 * abs(b[k]) + 2.0 * abs(b[k - 1]) + 4.0 * gamma0
    a[N] = 2.0 * abs(b[N - 1]) + 4.0 * gamma0
    stages = [
        {
            "Q": [[a[k]]],
            "R": [[b[k]]],
            "S": [[0.0]],
            "D1": [[rng.uniform(-d_scale, d_scale)]],
            "D2": [[rng.uniform(-d_scale, d_scale)]],
            "A": [[1.0]],
            "B": [[1.0]],
            "C": [[1.0]],
        }
        for k in range(N)
    ]
    return QdpProblem(dims, stages, [[a[N]]])


def staircase_kernel_basis(N: int) -> np.ndarray:
    """The explicit non-orthonormal kernel basis of the unit scalar chain.

    Column k rolls a unit control impulse at stage k and cancels the state
    one stage later: entries 1 at q_k and p_{k+1}, -1 at q_{k+1}. Its Gram
    matrix is tridiagonal with diagonal 3 (final entry 2) and off-diagonal
    -1.
    """
    n_z = 2 * N + 1
    Z = np.zeros((n_z, N))
    for k in range(N):
        Z[2 * k + 1, k] = 1.0   # q_k
        Z[2 * k + 2, k] = 1.0   # p_{k+1}
        if k + 1 < N:
            Z[2 * k + 3, k] = -1.0  # q_{k+1}
    return Z


BUILTIN_NAMES = ("paper-sec7-linear", "paper-sec7-exp", "remark1")


def builtin_qdp(name: str, N: int = 40, mu1: float = 10.0, mu2: float = 1.0,
                gamma0: float = 1.0, seed: int = 0) -> QdpProblem:
    """Resolve a CLI builtin name to a stagewise problem."""
    from .model import assemble_qdp_from_nldp

    if name == "paper-sec7-linear":
        return assemble_qdp_from_nldp(tracking_toy_model(N, mu1, mu2, "linear"))
    if name == "paper-sec7-exp":
        return assemble_qdp_from_nldp(tracking_toy_model(N, mu1, mu2, "exp"))
    if name == "remark1":
        return tridiagonal_chain_qdp(N, gamma0, seed=seed)
    raise ValidationError(
        f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
    )
