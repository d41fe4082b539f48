"""Dense helpers: SymSolve reproduces scipy.linalg.eigh bitwise."""

import numpy as np
import pytest
import scipy.linalg

from qdpsens._linalg import SymSolve, symmetrize


def matrices(n: int, rng) -> dict:
    raw = rng.standard_normal((n, n))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    singular_spectrum = np.concatenate([[0.0], rng.uniform(1.0, 2.0, n - 1)])
    indefinite = raw + raw.T
    return {
        "positive definite": raw @ raw.T + n * np.eye(n),
        "indefinite": indefinite,
        "singular": basis @ np.diag(singular_spectrum) @ basis.T,
        "diagonal": np.diag(rng.uniform(-2.0, 2.0, n)),
        "1e-12 asymmetry": indefinite + 1e-12 * np.triu(rng.standard_normal((n, n)), 1),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_scipy_eigh_bitwise(n):
    """The recorded outputs rest on SymSolve giving exactly eigh's eigenpairs."""
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal((n, 3))
    for kind, mat in matrices(n, rng).items():
        fact = SymSolve(mat)
        vals, vecs = scipy.linalg.eigh(symmetrize(mat))
        assert np.array_equal(fact.eigvals, vals), kind
        assert np.array_equal(fact._vecs, vecs), kind
        with np.errstate(divide="ignore", invalid="ignore"):  # the exactly singular 1x1 case
            expected = vecs @ ((vecs.T @ rhs) / vals[:, None])
            assert np.array_equal(fact.solve(rhs), expected, equal_nan=True), kind
