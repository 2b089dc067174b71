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

Names load on first use: `import fuzzrel` imports none of its submodules,
and reading a public name, or a submodule such as `fuzzrel.oracle`, imports
the submodule that defines it.  So a `fuzzrel` process compiles only the
layers its subcommand runs.  The public names are the keys of one table,
`_ORIGIN`, from each name to its submodule, and `__all__` is those keys
sorted.
"""

from importlib import import_module

#: The submodule that defines each public name.  Nothing is imported with
#: the package: `__getattr__` imports a name's submodule when the name is
#: first read, and `from fuzzrel import X` and `import *` read through it.
_ORIGIN = {
    name: module
    for module, names in {
        "algebra": "GodelCellStats GoguenCellStats ImplicationKind LukaCellStats Matrix"
        " RowDiagnostics Vector max_t_compose min_impl_compose residuum shifted_bounds"
        " sup_distance t_norm transpose unit unit_matrix unit_vector",
        "approximation": "ApproximationResult ApproximationStatus NearApproximation"
        " build_approximation near_approximation verify_lowest",
        "errors": "DimensionMismatch DomainError FuzzrelError KindMismatch"
        " PredicateNotUpClosed ReportMismatch",
        "operators": "DEFAULT_TOL ConsistencyResult FuzzySystem MaxTSystem check_consistency"
        " closure maxt_closure potential_solution",
        "oracle": "OracleEstimate bisect_infimum exact_maxt_distance exact_maxt_membership"
        " exact_membership generate_random_system sample_consistent_rhs tolerance_membership",
        "report": "Attainability ChebyshevReport distance_report godel_cell godel_distance"
        " godel_threshold goguen_cell goguen_distance goguen_threshold luka_cell luka_distance"
        " luka_threshold maxluka_threshold maxprod_ratio maxprod_threshold maxt_distance",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    """A submodule of `_ORIGIN`, or a public name read from its submodule
    and kept in the package's globals, so the hook runs once per name."""
    if name in _ORIGIN.values():
        return import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_ORIGIN[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_ORIGIN, *_ORIGIN.values()})
