"""Restart schemes for first-order convex optimization.

Scheduled, accuracy-scheduled, criterion-based, and grid-searched
restarts around backtracking accelerated/universal gradient methods,
together with closed-form convergence envelopes for checking traces
against their guarantees.
"""

from .bounds import (
    GenericBound,
    bound_accelerated,
    bound_adaptive,
    bound_generic,
    bound_gradient_descent,
    bound_holder,
    bound_rounded,
    bound_smooth,
    bound_universal,
    optimal_constant_holder,
    optimal_constant_smooth,
    restart_count,
    schedule_threshold,
    schedule_total,
    ufgm_constant,
)
from .core import (
    DerivedConditioning,
    DivergenceError,
    ProximalOracle,
    QuadraticForm,
    RegularityParams,
    check_sharpness_bound,
    check_suboptimality_upper_bound,
    derive_conditioning,
    gradient_finite_difference_error,
)
from .problems import (
    DatasetFormatError,
    ProblemInstance,
    load_dataset,
    make_dual_svm,
    make_lasso,
    make_least_squares,
    make_logistic,
    make_norm_power,
    make_quadratic,
    make_sharp_norm,
    reference_solve,
    sample_validation_points,
    soft_threshold,
    synthetic_classification,
    synthetic_regression,
)
from .restarts import (
    GridOutcome,
    Schedule,
    adaptive_grid,
    criterion_restart,
    h_restart,
    monotone_restart,
    optimal_schedule_holder,
    optimal_schedule_smooth,
    restart_scheduled,
)
from .solvers import (
    Trace,
    TraceEntry,
    accelerated,
    gradient_descent,
    universal_fast_gradient,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
