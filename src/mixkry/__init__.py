"""Matrix-free hybrid projection solvers for mixed Gaussian priors.

The solver expands a generalized Golub-Kahan subspace one matrix-vector
product at a time, augments it with a QR-factored second covariance
branch, and picks the regularization and mixing parameters on the small
projected problem at every iteration.
"""

from .errors import (
    ArgumentError,
    BreakdownError,
    ConditioningError,
    ConfigError,
    DefinitenessError,
    DegenerateDataError,
    DegenerateTraceError,
    FitError,
    MixkryError,
    ParameterDomainError,
    RankError,
    SearchError,
)
from .operators import (
    DiagonalOperator,
    Grid,
    KernelOperator,
    KernelSpec,
    LinearOperator,
    PriorSpec,
    SampleFactor,
    build_kernel_operator,
    identity_operator,
    kernel_eval,
    load_matrix,
    load_samples,
    load_vector,
    noise_whitener,
    sample_covariance,
    save_matrix,
    save_vector,
    zero_operator,
)
from .mixgk import (
    MixGKState,
    mixgk_init,
    mixgk_step,
    qr_append_update,
    qr_recompute,
)
from .projected import (
    PenaltyBasis,
    ProjectedSystem,
    build_projected,
    penalty_basis,
    recover_iterate,
    solve_cells,
    solve_column,
    trace_term,
)
from .params import (
    METHODS,
    RunRecord,
    SearchConfig,
    SelectionResult,
    StopDecision,
    StoppingPolicy,
    gcv_objective,
    select_params,
    stopping_check,
    upre_objective,
    wgcv_objective,
)
from .learn import (
    FitResult,
    fit_bounds,
    hutchinson_objective,
    learn_matern,
    rademacher_probes,
    rblw_gamma,
)
from .testproblems import (
    TomoProblem,
    TrainingSet,
    add_noise,
    circle_mask,
    crosswell_tomo,
    gen_training_images,
    read_pgm,
    spherical_tomo,
    write_pgm,
)
from .cli import HybridResult, Workload, assemble_workload, run_hybrid

__version__ = "0.1.0"
