"""Reshuffled SGD with per-block zeroth-order/first-order updates.

The x-block of a point can be updated from a two-point Gaussian directional
estimate of the gradient (no backprop through that block), the y-block from
exact gradients, both from the same pre-update iterate.  The package bundles
the estimator, the optimizer loop, finite-difference curvature probes,
a learning-rate planner, and slow reference oracles for validating all of it.
"""
from .core import (
    Block,
    BlockLayout,
    HybridPoint,
    NumericError,
    RngStream,
    fmt17,
    sample_gaussian,
    sample_unit_sphere,
    shuffle_permutation,
)
from .estimator import (
    PerturbationUnderflowWarning,
    ZoConfig,
    estimate_block_gradient,
    estimate_x_gradient,
)
from .objectives import (
    BlockQuadratic,
    CoshObjective,
    DenseQuadratic,
    FiniteSumObjective,
    LinearObjective,
    LogisticObjective,
    load_objective,
    objective_from_dict,
)
from .optimizer import (
    BlockMode,
    DivergenceError,
    LearningRates,
    Mode,
    OptimizerConfig,
    RunResult,
    TraceRecord,
    run,
    run_epoch,
    step,
    write_trace_csv,
)
from .oracle import (
    BoundCheckReport,
    MonteCarloGradient,
    check_estimator_bounds,
    check_hybrid_smoothness,
    dense_hessian,
    fd_gradient,
    smoothed_gradient_reference,
)
from .planner import (
    PlanInputs,
    RatePlan,
    SmoothnessConstants,
    binding_term,
    epoch_budget,
    estimate_constants,
    plan_rates,
)
from .probe import (
    ProbeConfig,
    ProbeReport,
    estimate_block_lipschitz,
    trajectory_scan,
    write_probe_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockLayout",
    "BlockMode",
    "BlockQuadratic",
    "BoundCheckReport",
    "CoshObjective",
    "DenseQuadratic",
    "DivergenceError",
    "FiniteSumObjective",
    "HybridPoint",
    "LearningRates",
    "LinearObjective",
    "LogisticObjective",
    "Mode",
    "MonteCarloGradient",
    "NumericError",
    "OptimizerConfig",
    "PerturbationUnderflowWarning",
    "PlanInputs",
    "ProbeConfig",
    "ProbeReport",
    "RatePlan",
    "RngStream",
    "RunResult",
    "SmoothnessConstants",
    "TraceRecord",
    "ZoConfig",
    "binding_term",
    "check_estimator_bounds",
    "check_hybrid_smoothness",
    "dense_hessian",
    "epoch_budget",
    "estimate_block_lipschitz",
    "estimate_block_gradient",
    "estimate_constants",
    "estimate_x_gradient",
    "fd_gradient",
    "fmt17",
    "load_objective",
    "objective_from_dict",
    "plan_rates",
    "run",
    "run_epoch",
    "sample_gaussian",
    "sample_unit_sphere",
    "shuffle_permutation",
    "smoothed_gradient_reference",
    "step",
    "trajectory_scan",
    "write_trace_csv",
]
