"""Shared fixtures: seeded instance pools and the built-in toy problems."""

from __future__ import annotations

import numpy as np
import pytest

import qdpsens as qs

POOL_BASE_SEED = 20_000


def make_pool(count: int, base_seed: int = POOL_BASE_SEED, square_controls: bool = False,
              n_low: int = 2, n_high: int = 21) -> list:
    """Deterministic pool of random certified-curvature instances."""
    pool = []
    for idx in range(count):
        seed = base_seed + idx
        rng = np.random.default_rng(seed)
        qdp = qs.random_sosc_qdp(
            seed,
            N=int(rng.integers(n_low, n_high)),
            square_controls=square_controls,
        )
        pool.append(qdp)
    return pool


@pytest.fixture(scope="session")
def small_pool():
    return make_pool(8)


@pytest.fixture(scope="session")
def square_pool():
    return make_pool(6, base_seed=31_000, square_controls=True)


@pytest.fixture(scope="session")
def tracking_linear_model():
    return qs.tracking_toy_model(40, 10.0, 1.0, "linear")


@pytest.fixture(scope="session")
def tracking_exp_model():
    return qs.tracking_toy_model(40, 10.0, 1.0, "exp")


@pytest.fixture(scope="session")
def tracking_linear_qdp(tracking_linear_model):
    return qs.assemble_qdp_from_nldp(tracking_linear_model)


@pytest.fixture(scope="session")
def tracking_exp_qdp(tracking_exp_model):
    return qs.assemble_qdp_from_nldp(tracking_exp_model)


@pytest.fixture(scope="session")
def shape_pool(tracking_linear_qdp, tracking_exp_qdp):
    """Mixed block shapes (nu < nx, nd != nx), a one-stage horizon, and the two tracking QDPs."""
    return [
        qs.random_sosc_qdp(41, N=6, nx=4, nu=2, nd=3),
        qs.random_sosc_qdp(42, N=5, nx=3, nu=1, nd=2),
        qs.random_sosc_qdp(43, N=1, nx=3, nu=2, nd=1),
        qs.random_sosc_qdp(44, N=4, nx=2, nu=2, nd=3),
        tracking_linear_qdp,
        tracking_exp_qdp,
    ]


def random_direction(qdp, rng, kind: str = "any"):
    """Random direction: a canonical block direction or a dense unit vector."""
    dims = qdp.dims
    if kind == "initial":
        return qs.unit_direction(dims, -1, int(rng.integers(1, dims.nx + 1)))
    if kind == "stage":
        i = int(rng.integers(0, dims.N))
        return qs.unit_direction(dims, i, int(rng.integers(1, dims.nd + 1)))
    vec = rng.standard_normal(dims.n_dir)
    vec /= np.linalg.norm(vec)
    return qs.PerturbationDirection.from_dense(dims, vec)


def planted(R_at, N=6, nu=2):
    """A = 0, B = I, S = 0, Q = Q_N = 2I, so W_k = R_k + 2I; R_k = I except at the stages in R_at."""
    eye, zero = np.eye(nu), np.zeros((nu, nu))
    stages = [{"Q": 2.0 * eye, "R": R_at.get(k, eye), "S": zero, "D1": np.zeros((1, nu)),
               "D2": np.zeros((1, nu)), "A": zero, "B": eye, "C": np.zeros((nu, 1))} for k in range(N)]
    return qs.QdpProblem(qs.Dims(N=N, nx=nu, nu=nu, nd=1), stages, 2.0 * eye)


def overflowing(N=3):
    """K_N A = 1e320: the first stage step overflows although every entry is finite."""
    return qs.QdpProblem.constant(
        qs.Dims(N=N, nx=1, nu=1, nd=1), Q=[[1e160]], R=[[1.0]], S=[[0.0]], D1=[[0.0]], D2=[[0.0]],
        A=[[1e160]], B=[[1.0]], C=[[0.0]], terminal_Q=[[1e160]])


def expanding(N):
    """A = 3I with one input: the unreachable mode grows K by 9 per stage; gamma is exactly 1."""
    dims = qs.Dims(N=N, nx=2, nu=1, nd=1)
    return qs.QdpProblem.constant(
        dims, Q=5.0 * np.eye(2), R=[[1.0]], S=np.zeros((1, 2)), D1=np.zeros((1, 2)),
        D2=[[0.0]], A=3.0 * np.eye(2), B=[[1.0], [1.0]], C=np.zeros((2, 1)),
        terminal_Q=np.eye(2))
