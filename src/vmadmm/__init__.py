"""Variable-metric proximal ADMM with primal-dual certificates.

Solves composite problems ``min f(x) + h(x) + g(Ax)`` by alternating exact
proximal subproblems under per-iteration PSD metrics, and certifies the runs
numerically: ergodic gap bounds, contraction inequalities, feasibility decay
rates, KKT residuals, and trajectory equivalence with two classical methods.
"""

from .errors import (
    AssumptionError,
    CapabilityError,
    ConfigError,
    DimensionMismatch,
    NonFiniteIterate,
    NotPositiveSemidefinite,
    OracleError,
    SingularSubproblem,
    StrategyError,
    UnsupportedMetric,
    UnsupportedSetting,
    VmAdmmError,
)
from .functions import (
    BoxIndicator,
    ConvexFunction,
    Huber,
    L1Norm,
    Quadratic,
    SquaredL2,
    Zero,
)
from .linops import (
    LinearMap,
    MetricOperator,
    as_vector,
    forward_difference,
    loewner_geq,
    min_eigenvalue,
    operator_norm,
)
from .problems import build_problem, oracle, toy1d_saddle
from .solver import (
    AssumptionReport,
    ConstantSchedule,
    GeometricDecaySchedule,
    ProblemSpec,
    ShiftedGramSchedule,
    SolverState,
    StoppingRule,
    initial_state,
    run,
    step,
    validate_assumptions,
    x_update,
    y_update,
    z_update,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionError",
    "AssumptionReport",
    "BoxIndicator",
    "CapabilityError",
    "ConfigError",
    "ConstantSchedule",
    "ConvexFunction",
    "DimensionMismatch",
    "GeometricDecaySchedule",
    "Huber",
    "L1Norm",
    "LinearMap",
    "MetricOperator",
    "NonFiniteIterate",
    "NotPositiveSemidefinite",
    "OracleError",
    "ProblemSpec",
    "Quadratic",
    "ShiftedGramSchedule",
    "SingularSubproblem",
    "SolverState",
    "SquaredL2",
    "StoppingRule",
    "StrategyError",
    "UnsupportedMetric",
    "UnsupportedSetting",
    "VmAdmmError",
    "Zero",
    "as_vector",
    "build_problem",
    "forward_difference",
    "initial_state",
    "loewner_geq",
    "min_eigenvalue",
    "operator_norm",
    "oracle",
    "run",
    "step",
    "toy1d_saddle",
    "validate_assumptions",
    "x_update",
    "y_update",
    "z_update",
]
