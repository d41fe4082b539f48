"""Small dense linear-algebra helpers shared across modules: symmetric
parts, operator norms by Gram eigensolves, and the smallest eigenvalue the
dense oracle reads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Symmetric part of a square matrix, or of each matrix in a stack."""
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def asymmetry(mat: np.ndarray) -> float:
    """Max-abs deviation of a square matrix, or of a stack of them, from its transpose."""
    if mat.size == 0:
        return 0.0
    return float(np.abs(mat - mat.swapaxes(-1, -2)).max())


def operator_norm(mat: np.ndarray) -> float:
    """Spectral norm, computed as the top eigenvalue of the Gram matrix."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0.0
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    top = float(scipy.linalg.eigvalsh(symmetrize(gram))[-1])
    return float(np.sqrt(max(top, 0.0)))


def max_operator_norm(blocks) -> float:
    """max(operator_norm(b) for b in blocks) by one stacked Gram eigensolve."""
    stack = np.asarray(blocks, dtype=float)
    if stack.size == 0:
        return 0.0
    tr = np.swapaxes(stack, -1, -2)
    gram = stack @ tr if stack.shape[-2] <= stack.shape[-1] else tr @ stack
    top = float(np.max(np.linalg.eigvalsh(symmetrize(gram))[:, -1]))
    return float(np.sqrt(max(top, 0.0)))


def sym_min_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a (nearly) symmetric matrix, computed alone."""
    return float(scipy.linalg.eigh(symmetrize(mat), subset_by_index=[0, 0], eigvals_only=True)[0])


def inf_norm(vec_or_mat: np.ndarray) -> float:
    arr = np.asarray(vec_or_mat)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))

