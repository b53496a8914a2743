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
    FitError,
    MixkryError,
    ParameterDomainError,
    RankError,
    SearchError,
)
from .operators import (
    CSRMatrix,
    DiagonalOperator,
    Grid,
    KernelSpec,
    LinearOperator,
    PriorSpec,
    SampleFactor,
    build_kernel_operator,
    identity_operator,
    kernel_eval,
    kernel_table,
    kernel_tables,
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
    penalty_basis,
    recover_iterate,
    solve_cells,
    trace_term,
)
from .params import (
    METHODS,
    RunRecord,
    SearchConfig,
    SelectionResult,
    StoppingPolicy,
    objective_cells,
    select_params,
    stopping_check,
)
from .learn import (
    FitResult,
    fit_bounds,
    frobenius_mismatch,
    hutchinson_objective,
    learn_matern,
    rademacher_probes,
    rblw_gamma,
)
from .testproblems import (
    TomoProblem,
    add_noise,
    circle_mask,
    crosswell_tomo,
    gen_training_images,
    spherical_tomo,
    write_pgm,
)
from .cli import HybridResult, Workload, assemble_workload, run_hybrid

__version__ = "0.1.0"
