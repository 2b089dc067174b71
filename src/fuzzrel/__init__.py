"""Consistency and Chebyshev-approximation diagnostics for systems of
min-implication fuzzy relational equations.

Quick start::

    from fuzzrel import FuzzySystem, ImplicationKind, check_consistency, distance_report

    system = FuzzySystem(
        gamma=((0.6, 0.49), (0.26, 0.9)),
        beta=(0.1, 0.4),
        kind=ImplicationKind.GODEL,
    )
    check_consistency(system)      # inconsistent, residual 0.16
    distance_report(system).nabla  # 0.15000000000000002
"""

from .algebra import (
    ImplicationKind,
    Matrix,
    Vector,
    max_t_compose,
    min_impl_compose,
    residuum,
    shifted_bounds,
    sup_distance,
    t_norm,
    transpose,
    unit,
    unit_matrix,
    unit_vector,
)
from .approximation import (
    ApproximationResult,
    ApproximationStatus,
    NearApproximation,
    build_approximation,
    near_approximation,
    verify_lowest,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    FuzzrelError,
    KindMismatch,
    PredicateNotUpClosed,
    ReportMismatch,
)
from .operators import (
    DEFAULT_TOL,
    ConsistencyResult,
    FuzzySystem,
    MaxTSystem,
    check_consistency,
    closure,
    maxt_closure,
    potential_solution,
)
from .oracle import (
    OracleEstimate,
    bisect_infimum,
    exact_maxt_distance,
    exact_maxt_membership,
    exact_membership,
    generate_random_system,
    sample_consistent_rhs,
    tolerance_membership,
)
from .report import (
    Attainability,
    ChebyshevReport,
    GodelCellStats,
    GoguenCellStats,
    LukaCellStats,
    RowDiagnostics,
    distance_report,
    godel_cell,
    godel_distance,
    godel_threshold,
    goguen_cell,
    goguen_distance,
    goguen_threshold,
    luka_cell,
    luka_distance,
    luka_threshold,
    maxluka_threshold,
    maxprod_ratio,
    maxprod_threshold,
    maxt_distance,
)

__version__ = "0.1.0"


__all__ = [
    "Attainability",
    "ApproximationResult",
    "ApproximationStatus",
    "ChebyshevReport",
    "ConsistencyResult",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "DomainError",
    "FuzzrelError",
    "FuzzySystem",
    "GodelCellStats",
    "GoguenCellStats",
    "ImplicationKind",
    "KindMismatch",
    "LukaCellStats",
    "Matrix",
    "MaxTSystem",
    "NearApproximation",
    "OracleEstimate",
    "PredicateNotUpClosed",
    "ReportMismatch",
    "RowDiagnostics",
    "Vector",
    "bisect_infimum",
    "build_approximation",
    "check_consistency",
    "closure",
    "distance_report",
    "exact_maxt_distance",
    "exact_maxt_membership",
    "exact_membership",
    "generate_random_system",
    "godel_cell",
    "godel_distance",
    "godel_threshold",
    "goguen_cell",
    "goguen_distance",
    "goguen_threshold",
    "luka_cell",
    "luka_distance",
    "luka_threshold",
    "max_t_compose",
    "maxluka_threshold",
    "maxprod_ratio",
    "maxprod_threshold",
    "maxt_closure",
    "maxt_distance",
    "min_impl_compose",
    "near_approximation",
    "potential_solution",
    "residuum",
    "sample_consistent_rhs",
    "shifted_bounds",
    "sup_distance",
    "t_norm",
    "tolerance_membership",
    "transpose",
    "unit",
    "unit_matrix",
    "unit_vector",
    "verify_lowest",
]
