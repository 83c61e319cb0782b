"""Implicit-explicit multistep integrators for semilinear parabolic
problems, with the stability and convergence tooling around them.

The modules compose bottom-up, each importing only from lines above its own:

    errors
    bdf_coeffs, expressions
    stability, operators
    norms
    imex_stepper
    convergence_harness
    config, reports
    cli

``bdf_coeffs`` makes the scheme coefficients and ``stability`` analyses
them; ``operators`` and ``norms`` supply discretized problems and their
measures, ``imex_stepper`` advances solutions, ``convergence_harness``
runs manufactured-solution studies, ``config`` and ``reports`` read runs
and write results, and ``cli`` is the ``imexbdf`` command.
"""

from types import ModuleType as _ModuleType

from .bdf_coeffs import (
    MAX_STEP_NUMBER,
    BdfScheme,
    OrderConditionReport,
    bdf_scheme,
    delta_coeffs,
    gamma_coeffs,
    mu_coeffs,
    verify_order_conditions,
)
from .config import (
    BuiltProblem,
    RunConfig,
    build_nonlinearity,
    build_problem,
    override,
    parse_config,
)
from .convergence_harness import (
    ConsistencyResult,
    ConvergenceReport,
    ConvergenceRow,
    ManufacturedProblem,
    OrderFit,
    ThresholdReport,
    ThresholdRow,
    consistency_errors,
    convergence_study,
    default_threshold_ratios,
    fit_order,
    scalar_convergence_study,
    threshold_experiment,
)
from .errors import (
    CoercivityError,
    ComputationError,
    ConfigError,
    DomainError,
    FitError,
    ImexBdfError,
    ReportError,
    StepError,
    UnsupportedOperationError,
)
from .imex_stepper import (
    DIVERGENCE_FACTOR,
    Trajectory,
    bootstrap_starting_values,
    imex_step,
    make_starting_values,
    run,
)
from .norms import (
    H1,
    L2,
    LINF,
    W1INF,
    NormKind,
    NormPart,
    lp_time_norm,
    parse_norm_token,
    spatial_norm,
)
from .operators import (
    DIRICHLET,
    PERIODIC,
    DivergenceFormTerm,
    GradientFormTerm,
    Grid,
    LaplacianPointwiseTerm,
    LinearOperator,
    NonlinearTerm,
    PointwiseTerm,
    ScaledSumTerm,
    SparseDiffusionOperator,
    SpectralDiagonalOperator,
    assemble_example1,
    assemble_example2,
    assemble_example3,
    assemble_example4,
    dirichlet_grid,
    fourier_frequencies,
    periodic_grid,
)
from .stability import (
    CoefficientLambda,
    RootSweepResult,
    StabilityReport,
    a_alpha_angle,
    angle_of_analyticity_check,
    coefficient_lambda,
    lambda_threshold,
    stability_constant,
    stability_report,
    von_neumann_sweep,
)

__version__ = "0.1.0"

# every public name imported above; the submodules are bound here too
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
