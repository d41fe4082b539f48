"""Exception types raised across the package."""

from __future__ import annotations


class QdpSensError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QdpSensError, ValueError):
    """Malformed input: bad shapes, non-finite entries, broken symmetry."""


class SoscFailed(QdpSensError):
    """The reduced Hessian is not positive definite: the count at sigma = 0 is nonzero."""

    def __init__(self, stage: int, min_eig: float):
        self.stage = stage
        self.min_eig = min_eig
        super().__init__(
            f"second-order sufficient condition fails: control weight W_k at "
            f"stage {stage} of the unshifted cost-to-go recursion has eigenvalue "
            f"{min_eig:.6g}, so gamma <= 0"
        )


class UncertainInertia(QdpSensError):
    """Rounding in a control weight W_k can flip its sign, which the curvature count and the
    backward pass read."""

    def __init__(self, stage: int, min_eig: float, threshold: float):
        self.stage = stage
        self.min_eig = min_eig
        self.threshold = threshold
        super().__init__(
            f"control weight at stage {stage} has eigenvalue {min_eig:.6g} within its "
            f"rounding bound {threshold:.3e} (cost-to-go growth cancels in B' K B); "
            f"rounding decides its sign"
        )


class NonInvertibleRtilde(QdpSensError):
    """The convexification recursion hit a numerically singular R-block."""

    def __init__(self, stage: int, min_abs_eig: float, threshold: float):
        self.stage = stage
        self.min_abs_eig = min_abs_eig
        self.threshold = threshold
        super().__init__(
            f"transformed control block at stage {stage} is numerically "
            f"singular (|eig|_min = {min_abs_eig:.3e} <= {threshold:.3e}, its floor "
            f"relative to its largest |eigenvalue|); recursion undefined"
        )


class NotPositiveDefinite(QdpSensError):
    """A block that must be positive definite has a negative eigenvalue."""

    def __init__(self, stage: int, min_eig: float):
        self.stage = stage
        self.min_eig = min_eig
        super().__init__(
            f"transformed control block at stage {stage} has negative "
            f"eigenvalue {min_eig:.6g}; shift outside its sufficient "
            f"interval, or the curvature condition fails"
        )


class IndefiniteW(QdpSensError):
    """Backward recursion control-weight block is not positive definite."""

    def __init__(self, stage: int, min_eig: float, threshold: float):
        self.stage = stage
        self.min_eig = min_eig
        self.threshold = threshold
        super().__init__(
            f"control weight at stage {stage} has minimum eigenvalue "
            f"{min_eig:.6g} <= {threshold:.3e}, its floor relative to its largest "
            f"|eigenvalue|; indefinite input beyond the reach of the backward recursion"
        )


class SingularKkt(QdpSensError):
    """The dense saddle-point system could not be solved reliably."""


class SolverDiverged(QdpSensError):
    """The equality-constrained Newton iteration failed to converge."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"Newton iteration did not converge after {iterations} steps "
            f"(residual {residual:.3e})"
        )


class InsufficientData(QdpSensError):
    """Too few stages above the numerical floor to fit a decay rate."""


class ControllabilityFailed(QdpSensError):
    """No admissible evolution length certifies the reachability bound."""

    def __init__(self, stage: int, lambda_c: float):
        self.stage = stage
        self.lambda_c = lambda_c
        super().__init__(f"no reachability window from stage {stage} clears lambda_c = {lambda_c:g}")


class MultiplierRecoveryError(QdpSensError):
    """Multipliers recovered by the adjoint recursion leave a large stationarity residual."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"stationarity residual {residual:.3e} after adjoint "
            f"multiplier recovery exceeds 1e-6; base point is not optimal "
            f"or derivatives are inconsistent"
        )


class NotFitted(QdpSensError):
    """Estimator method requiring a prior fit() was called before it."""
