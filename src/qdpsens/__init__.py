"""Directional sensitivities of equality-constrained stagewise programs.

Convexifies the indefinite quadratic program that characterizes the
directional derivative of the optimal trajectory, solves it by a backward
and forward recursion, and certifies exponential decay of the sensitivity
away from the perturbed stage with computable constants.
"""

from .convexify import ConvexifiedQdp, convexify, shifted_problem
from .curvature import gamma_bracket
from .estimator import RiccatiSensitivityEstimator, check_direction_array
from .exceptions import (
    ControllabilityFailed,
    IndefiniteW,
    InsufficientData,
    MultiplierRecoveryError,
    NonInvertibleRtilde,
    NotFitted,
    NotPositiveDefinite,
    QdpSensError,
    SingularKkt,
    SolverDiverged,
    SoscFailed,
    UncertainInertia,
    ValidationError,
)
from .model import (
    Dims,
    NldpModel,
    QdpProblem,
    QdpStage,
    Trajectory,
    assemble_qdp_from_nldp,
    eval_qdp_objective,
    load_qdp,
    recover_multipliers,
    rollout_dynamics,
    save_qdp,
)
from .nullspace import (
    ConstraintSystem,
    NullspaceBasis,
    assemble_constraints,
    nullspace_basis,
    reduced_hessian_gamma,
    staircase_jacobian,
)
from .presets import (
    BUILTIN_NAMES,
    builtin_qdp,
    staircase_kernel_basis,
    tracking_toy_model,
    tridiagonal_chain_qdp,
)
from .riccati import (
    CostToGo,
    RiccatiSolution,
    backward_pass,
    cost_to_go,
    cost_to_go_terms,
    forward_solve,
)
from .sensitivity import (
    BoundsReport,
    ControllabilityReport,
    DecayFit,
    Factorization,
    PerturbationDirection,
    SensitivityResult,
    auto_controllability,
    controllability,
    direction_in_block,
    factorize,
    finite_difference_sensitivity,
    fit_decay_rate,
    lambda_bcs,
    select_delta,
    solve_sensitivity,
    theoretical_constants,
    unit_direction,
    write_decay_csv,
)
from .verify import (
    DerivativeCheckReport,
    EquivalenceReport,
    KktSolution,
    NewtonResult,
    closed_form_p,
    closed_loop_product_norm,
    dense_kkt_solve,
    finite_diff_hessian_check,
    materialize_influence,
    model_with_fd_derivatives,
    newton_equality_solve,
    random_sosc_qdp,
    reachability_matrix,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
