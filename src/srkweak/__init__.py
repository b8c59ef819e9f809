"""Weak approximation of Ito SDEs by explicit stochastic Runge-Kutta
schemes.

The package provides coefficient tableaux and their serialization,
algebraic order conditions with order inference, parametrised scheme
families with admissibility checking, the discrete weak increment
law, a vectorised stepping engine with evaluation-count accounting,
benchmark problems with known functional expectations, and Monte
Carlo weak-error estimation with convergence-order fits.
"""

from .tableau import (
    Error,
    TableauShapeError,
    TableauValueError,
    TableauFormatError,
    CoefficientTableau,
    OrderClaim,
    Violation,
    validate,
    serialize,
    deserialize,
)
from .conditions import (
    DEFAULT_TOL,
    UnknownConditionError,
    ConditionSpec,
    ConditionReport,
    CONDITIONS,
    WEAK_ORDER1_IDS,
    WEAK_ORDER2_IDS,
    DET_ORDER3_IDS,
    DET_ORDER4_IDS,
    NODE_IDS,
    evaluate_all,
    infer_orders,
)
from .families import (
    FAMILY_IDS,
    NAMED_SCHEMES,
    UnknownFamilyError,
    UnknownSchemeError,
    FamilyParameterError,
    ConstraintViolation,
    FamilyParams,
    family_id_from_cli,
    make_family,
    named_scheme,
)
from .increments import (
    MAX_ENUM_M,
    IncrementError,
    WeakIncrementBatch,
    CountingStream,
    substream,
    derive_seed,
    draw,
    support_batch,
)
from .integrator import (
    SdeProblem,
    StepContext,
    EvaluationCost,
    StepPlan,
    usage_plan,
    evaluation_cost,
    srk_step,
    terminal_values,
    exact_expectation,
    exact_one_step_expectation,
)
from .problems import (
    PROBLEM_IDS,
    UnknownProblemError,
    NamedProblem,
    problem_nonlinear,
    problem_2d,
    problem_linear,
    problem_from_cli,
)
from .estimator import (
    DEFAULT_BATCHES,
    EXTRAPOLATED,
    EstimatorError,
    WeakErrorReport,
    FittedOrder,
    estimate,
    fit_order,
    run_study,
    write_errors_csv,
    write_orders_csv,
)

__version__ = "0.1.0"
