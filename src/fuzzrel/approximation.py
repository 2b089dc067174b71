"""Best consistent right-hand sides at the Chebyshev distance.

When the distance nabla of a report is achieved, the vector

    closure(system, lower_shift(beta, nabla))

is the componentwise-least consistent right-hand side at distance nabla from
beta, and

    xi = max_t_compose(gamma^t, kind, lower_shift(beta, nabla))

solves the system perturbed to that right-hand side.  The t-norm used for xi
is the one matched to the system's implication kind.  When the distance is
only an infimum (possible for the Godel kind alone) no right-hand side at
distance nabla exists at all; `near_approximation` then provides a
consistent right-hand side at any chosen tolerance above nabla, explicitly
labelled non-optimal, and rejects a tolerance whose vector it cannot bring
that close.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .algebra import FLOAT, Vector, _dict_init, checked_tolerance, sup_distance, unit
from .errors import DomainError, ReportMismatch
from .operators import DEFAULT_TOL, FuzzySystem, closure, solve_and_recompose
from .report import Attainability, ChebyshevReport


class ApproximationStatus(Enum):
    MINIMUM_ATTAINED = "minimum_attained"
    APPROXIMATION_SET_EMPTY = "approximation_set_empty"


@_dict_init
@dataclass(frozen=True, init=False)
class ApproximationResult:
    """Lowest approximation of a right-hand side, if one exists.

    Both vectors are present exactly when status is MINIMUM_ATTAINED, in
    which case achieved_distance equals the report's nabla up to float
    drift.
    """

    status: ApproximationStatus
    lowest_approximation: Vector | None
    approximate_solution: Vector | None
    achieved_distance: float | None


@_dict_init
@dataclass(frozen=True, init=False)
class NearApproximation:
    """A consistent right-hand side near an unattainable distance.

    Returned for callers who want a usable vector when the approximation set
    is empty; `optimal` is always False because no vector achieves the
    distance itself.
    """

    delta: float
    vector: Vector
    solution: Vector
    achieved_distance: float
    optimal: bool = False


def build_approximation(system: FuzzySystem, report: ChebyshevReport) -> ApproximationResult:
    """Construct the lowest approximation described by `report`.

    The report must have been produced for `system`: a report of another
    kind or with another number of rows raises ReportMismatch.
    """
    if report.kind is not system.kind:
        raise ReportMismatch(
            f"report kind {report.kind.value!r} does not match system kind "
            f"{system.kind.value!r}"
        )
    if len(report.rows) != system.m:
        raise ReportMismatch(f"report has {len(report.rows)} rows, system has {system.m}")
    if report.verdict is Attainability.INFIMUM:
        return ApproximationResult(
            ApproximationStatus.APPROXIMATION_SET_EMPTY, None, None, None
        )
    if report.verdict is not Attainability.MINIMUM:
        raise ReportMismatch("report carries no attainability verdict")
    lower = FLOAT.lower_shift(system.beta, report.nabla)
    solution, lowest = solve_and_recompose(system, lower)
    achieved = sup_distance(system.beta, lowest)
    return ApproximationResult(
        ApproximationStatus.MINIMUM_ATTAINED, lowest, solution, achieved
    )


def near_approximation(system: FuzzySystem, delta: float) -> NearApproximation:
    """Consistent right-hand side within `delta` of beta, without any
    optimality claim.  Useful when the approximation set is empty: any
    delta strictly above the report's nabla yields a vector.  A delta whose
    vector lands farther than delta (+ DEFAULT_TOL) from beta, as one at or
    below the distance may, raises DomainError."""
    delta = unit(delta, "delta")
    lower = FLOAT.lower_shift(system.beta, delta)
    solution, vector = solve_and_recompose(system, lower)
    achieved = sup_distance(system.beta, vector)
    if achieved > delta + DEFAULT_TOL:
        raise DomainError(
            f"delta: the approximation at {delta!r} lies {achieved!r} from beta; "
            "delta must exceed the distance"
        )
    return NearApproximation(delta, vector, solution, achieved)


def verify_lowest(
    system: FuzzySystem,
    result: ApproximationResult,
    trials: int = 500,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Sample the approximation set and check the lowest vector really is lowest.

    Draws random vectors inside the sup-norm band of radius achieved_distance
    around beta, projects them through the closure map (every image is a
    consistent right-hand side) and keeps those still inside the band; each
    kept vector is a member of the approximation set.  Returns True iff the
    result's lowest_approximation is componentwise below every sampled
    member, vacuously so when no sampled vector stays in the band.  Trials
    are keyed by (seed, index) so they are independent and order-insensitive.
    A `trials` that is not a positive int raises ValueError, since no trial
    would run, and so does a `tol` that is not a finite non-negative number,
    as in `check_consistency`, since NaN, an infinite tol or True, read as
    1, would pass any vector; a result whose lowest vector has another
    length than beta raises ReportMismatch.
    """
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive int, got {trials!r}")
    checked_tolerance(tol, "tol")
    if result.status is not ApproximationStatus.MINIMUM_ATTAINED:
        raise ValueError("verify_lowest requires a MINIMUM_ATTAINED result")
    nabla = result.achieved_distance
    lowest = result.lowest_approximation
    if len(lowest) != system.m:
        raise ReportMismatch(
            f"lowest approximation has {len(lowest)} entries, system has {system.m}"
        )
    lower, upper = FLOAT.shifted_bounds(system.beta, nabla)
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        candidate = tuple(
            lo + rng.random() * (hi - lo) for lo, hi in zip(lower, upper)
        )
        member = closure(system, candidate)
        if sup_distance(system.beta, member) > nabla + tol:
            continue
        if any(lw > mj + tol for lw, mj in zip(lowest, member)):
            return False
    return True
