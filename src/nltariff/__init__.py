"""Optimal nonlinear electricity tariffs for a provider screening CRRA consumers.

The library solves the provider's contract-design problem against a continuum
of private types, for constant or strictly concave type-dependent outside
options, and ships an independent check that certifies the closed forms: a
Lagrangian-dual upper bound on the constant-reservation optimum. The test
suite referees them further against every type's grid-search best response.
See the README for the CLI entry points.
"""

from .agent import (
    IndirectUtility,
    ParticipationSet,
    participation_set,
)
from .closed_form import R_gamma, ell_ab
from .errors import (
    AssumptionViolation,
    ConfigError,
    ConvergenceError,
    DomainError,
    InfeasibleSet,
    InvalidParams,
    InvalidReservation,
)
from .model import (
    ConcaveReservation,
    ConstantReservation,
    ModelParams,
    ScenarioConfig,
    Table,
    TasteMap,
    UniformTypes,
    canonical_params,
    eval_cost,
    eval_marginal_cost,
    eval_utility,
    g_K,
    g_K_inverse,
)
from .oracle import oracle_relaxed_maximize_const_h
from .solver_const_h import (
    SolveReport,
    build_tariff_const_h,
    capacity_A,
    ell_const,
    solve_x0_star,
)
from .solver_typed_h import (
    TypedHSolution,
    build_bridge,
    build_tariff_typed_h,
    constraint_check_A2prime,
    solve_a0_b0_star,
    validate_assumptions,
)
from .tariff import ConjugateSegment, Tariff, TariffSegment
from .uconvex import SampledFunctionOfType, check_u_convexity

__version__ = "0.1.0"
