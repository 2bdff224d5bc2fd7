"""Discrete fractional calculus on the step-h time scale.

Operators (fractional sums, Riemann-Liouville and Caputo differences), an
implicit convolution-quadrature solver for fractional initial value
problems, and a numerical Lyapunov certification engine for their stability.
"""

from .special import (
    GammaPoleError,
    HFactorialPoleError,
    binomial_weights,
    gamma,
    gamma_sign,
    h_factorial,
    log_gamma,
    reciprocal_gamma,
)
from .operators import (
    GridFunction,
    GridMismatchError,
    HGrid,
    InsufficientPointsError,
    ShiftedGridFunction,
    caputo_difference,
    caputo_difference_direct,
    forward_difference,
    fractional_sum,
    read_grid_csv,
    rl_difference,
    rl_difference_direct,
    summation_by_parts_residual,
    write_grid_csv,
)
from .solver import (
    EquilibriumError,
    OperatorKind,
    SolverDivergenceError,
    StepRecord,
    SystemDef,
    Trajectory,
    caputo_solve,
    reconstruct_from_difference,
    residual_check,
    rl_solve,
    solve,
    write_step_csv,
)
from .lyapunov import (
    CertificateReport,
    DecayReport,
    LatticeSampler,
    NonnegativityError,
    NotPositiveDefiniteError,
    PowerCondition,
    QuadraticCondition,
    certify_theorem,
    decay_report,
    lattice_points,
    power_inequality_margin,
    power_inequality_margins,
    power_margin_suite,
    quadratic_form_margin,
    quadratic_form_margins,
    quadratic_margin_suite,
    random_spd_matrix,
)
from .expr import (
    ExprEvalError,
    ExprSyntaxError,
    evaluate,
    load_system_file,
    parse,
    parse_system_source,
    to_source,
)
from .systems import BUILTIN_SYSTEMS, BuiltinSystem, get_builtin

__version__ = "0.1.0"
