"""Dense helpers: sym_min_eig reproduces scipy.linalg.eigh's smallest eigenvalue bitwise."""

import numpy as np
import pytest
import scipy.linalg

from qdpsens._linalg import sym_min_eig, symmetrize


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
    """The dense gamma estimate rests on sym_min_eig giving exactly eigh's one-index value."""
    rng = np.random.default_rng(n)
    for kind, mat in matrices(n, rng).items():
        expected = scipy.linalg.eigh(symmetrize(mat), subset_by_index=[0, 0], eigvals_only=True)[0]
        assert sym_min_eig(mat) == expected, kind
