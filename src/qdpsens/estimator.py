"""Estimator-style facade over the sensitivity pipeline.

Follows the scikit-learn protocol (fit / predict / get_params / set_params)
without depending on scikit-learn itself, so the solver drops into
pipeline-shaped tooling: fit() factorizes one problem into one
``sensitivity.Factorization``, predict() maps an array of direction vectors
to an array of stacked derivative trajectories through one influence sweep
and one block forward roll for all rows.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NotFitted, ValidationError
from .model import QdpProblem
from .riccati import forward_solve_block
from .sensitivity import PerturbationDirection, SensitivityResult, factorize


def check_direction_array(L, n_dir: int) -> np.ndarray:
    """Validate a (n_directions, n_dir) float array of direction vectors."""
    arr = np.asarray(L, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != n_dir:
        raise ValidationError(
            f"direction array: expected shape (n_directions, {n_dir}), got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("direction array: non-finite entries")
    return arr


class RiccatiSensitivityEstimator:
    """Directional-derivative solver with a fit/predict interface.

    Parameters
    ----------
    delta_fraction:
        Fraction of the certified reduced-curvature bound used as the shift
        parameter of the convexification, in (0, 1).

    After ``fit(qdp)`` the instance exposes ``factorization_`` (the one
    ``Factorization`` every later call reads from), ``gamma_`` (the certified
    lower bound of its gamma bracket), ``delta_``,
    ``convexified_`` and ``riccati_`` taken from it, and ``n_features_in_``;
    ``predict`` maps rows of a direction array to stacked trajectories
    (p_0; q_0; ...; p_N), one row each.
    """

    def __init__(self, delta_fraction: float = 0.9):
        self.delta_fraction = delta_fraction

    def get_params(self, deep: bool = True) -> dict:
        return {"delta_fraction": self.delta_fraction}

    def set_params(self, **params) -> "RiccatiSensitivityEstimator":
        for key, value in params.items():
            if key not in self.get_params():
                raise ValidationError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, qdp: QdpProblem, y=None) -> "RiccatiSensitivityEstimator":
        self.problem_ = qdp
        self.factorization_ = fac = factorize(qdp, self.delta_fraction)
        self.gamma_, self.delta_ = fac.gamma, fac.delta
        self.convexified_, self.riccati_ = fac.convexified, fac.riccati
        self.n_features_in_ = qdp.dims.n_dir
        return self

    def _require_fit(self):
        if not hasattr(self, "riccati_"):
            raise NotFitted("call fit() before predict()/transform()")

    def predict(self, L) -> np.ndarray:
        """Stacked derivative trajectory for every row of L."""
        self._require_fit()
        arr = check_direction_array(L, self.n_features_in_)
        fac = self.factorization_
        return forward_solve_block(fac.riccati, fac.convexified.as_qdp(), arr)

    def transform(self, L) -> np.ndarray:
        return self.predict(L)

    def solve_direction(self, l: PerturbationDirection) -> SensitivityResult:
        """Rich per-direction result (norms, fit, metadata) from the fitted factorization."""
        self._require_fit()
        return self.factorization_.solve(l)
