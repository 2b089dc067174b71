"""Independent verification tools: membership predicates, bisection, sampling.

The closed-form distance solvers are validated against a second computation
path that never looks at cell statistics: the set of workable tolerances

    { delta : closure(system, lower_shift(beta, delta)) <= upper_shift(beta, delta) }

is upward closed and contains 1, so its infimum (which equals the Chebyshev
distance) can be bracketed by plain bisection on `tolerance_membership`.
`generate_random_system` and `sample_consistent_rhs` supply deterministic
random instances for agreement suites.
"""

from __future__ import annotations

import random

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import FLOAT, Arithmetic, ImplicationKind, arithmetic, leq, unit
from .errors import PredicateNotUpClosed
from .maxt import MaxTSystem
from .operators import FuzzySystem, closure


@dataclass(frozen=True)
class OracleEstimate:
    """Bisection bracket of the infimum of an up-closed predicate.

    inf_value lies within bracket_width of the true infimum and the
    predicate is guaranteed to hold at inf_value + bracket_width.
    member_at_inf is the predicate evaluated at inf_value itself; treat it
    as a cross-check only, since evaluating a float predicate exactly at an
    infimum is inherently fragile.
    """

    inf_value: float
    bracket_width: float
    member_at_inf: bool


def tolerance_membership(
    system: FuzzySystem,
    delta: float,
    row: int | None = None,
    slack: float = 0.0,
) -> bool:
    """Is `delta` a workable tolerance for the system (or for one row)?

    Tests closure(lower_shift(beta, delta)) <= upper_shift(beta, delta),
    componentwise when `row` is None and on the single component otherwise.
    `slack` absorbs float drift when the two sides are equal in exact
    arithmetic, which happens systematically at the distance itself.
    """
    return _membership(
        FLOAT, system.gamma, system.beta, system.kind, unit(delta, "delta"), row, slack
    )


def _membership(ar: Arithmetic, gamma, beta, kind, delta, row, slack) -> bool:
    lower, upper = ar.shifted_bounds(beta, delta)
    image = ar.closure(gamma, kind, lower)
    if row is None:
        return leq(image, upper, slack)
    if not 0 <= row < len(beta):
        raise IndexError(f"row {row} out of range for {len(beta)} rows")
    return image[row] <= upper[row] + slack


#: The shared formulas of `fuzzrel.algebra` in exact rational arithmetic.
EXACT = arithmetic(Fraction(0), Fraction(1))


def _exact_vector(values) -> tuple[Fraction, ...]:
    # repr of a float is its shortest round-tripping decimal, so this reads
    # each value "as written" rather than as its binary expansion.
    return tuple(Fraction(repr(float(value))) for value in values)


def _exact_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(map(_exact_vector, rows))


def _snap_delta(delta, snap_digits: int) -> Fraction:
    # Fractions pass through untouched: callers supply them when the exact
    # threshold is known (e.g. from exact_maxt_distance).
    if isinstance(delta, Fraction):
        return delta
    return Fraction(repr(round(float(delta), snap_digits)))


def exact_membership(
    system: FuzzySystem,
    delta,
    row: int | None = None,
    snap_digits: int = 12,
) -> bool:
    """Decide `tolerance_membership` in exact rational arithmetic.

    Float evaluation of the membership inequality exactly at the distance is
    unreliable: both sides are equal there in exact arithmetic, and one ulp
    of drift on the input of a residuum can cross its branch point and move
    the output by a macroscopic amount.  This variant sidesteps the problem
    by re-reading every entry as the (exact) rational value of its shortest
    round-tripping decimal, rounding `delta` to `snap_digits` decimal digits
    and evaluating the same closure formulas with Fraction arithmetic
    throughout.

    For inputs stated in a few decimals, whose derived thresholds live on a
    coarse decimal grid, the answer is exact.  For arbitrary floats it is
    the exact answer at the snapped delta.
    """
    return _membership(
        EXACT,
        _exact_matrix(system.gamma),
        _exact_vector(system.beta),
        system.kind,
        _snap_delta(delta, snap_digits),
        row,
        EXACT.zero,
    )


def exact_maxt_membership(
    system: MaxTSystem,
    delta,
    snap_digits: int = 12,
) -> bool:
    """Exact-rational membership test for max-t-norm systems.

    Decides lower_shift(b, delta) <= maxt_closure(a, kind, upper_shift(b,
    delta)) with Fraction arithmetic, reading entries and delta the same way
    as `exact_membership`.  Pass the Fraction from `exact_maxt_distance` to
    test attainment exactly at the distance.
    """
    lower, upper = EXACT.shifted_bounds(_exact_vector(system.b), _snap_delta(delta, snap_digits))
    return leq(lower, EXACT.maxt_closure(_exact_matrix(system.a), system.kind, upper), EXACT.zero)


def exact_maxt_distance(system: MaxTSystem) -> Fraction:
    """Closed-form max-t distance evaluated in exact rational arithmetic.

    Runs the formulas of `maxt_distance` on the Fraction instance of
    `fuzzrel.algebra.arithmetic`, with entries read as their shortest
    round-tripping decimals; used to place the attainment test exactly on
    the threshold, where float evaluation cannot be trusted.
    """
    return EXACT.maxt_distance(_exact_matrix(system.a), _exact_vector(system.b), system.kind)


def bisect_infimum(
    predicate: Callable[[float], bool],
    tol: float = 1e-9,
    max_iter: int = 60,
) -> OracleEstimate:
    """Locate inf{delta in [0, 1] : predicate(delta)} for an up-closed predicate.

    Maintains a bracket [lo, hi] with predicate(lo) False and predicate(hi)
    True until its width drops below `tol` (or `max_iter` splits, enough for
    widths down to 2^-60).  Up-closedness is sanity-checked on a coarse probe
    grid first; a hit there, or a predicate false at 1, raises
    PredicateNotUpClosed.

    The returned inf_value is the shortest decimal inside the final bracket
    rather than a raw dyadic endpoint: thresholds of interest are short
    decimals far more often than dyadics, and evaluating the predicate at
    such a point makes member_at_inf meaningful.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    probes = (0.0, 0.25, 0.5, 0.75, 1.0)
    truths = [bool(predicate(p)) for p in probes]
    for k in range(len(probes) - 1):
        if truths[k] and not truths[k + 1]:
            raise PredicateNotUpClosed(
                f"predicate holds at {probes[k]} but not at {probes[k + 1]}"
            )
    if not truths[-1]:
        raise PredicateNotUpClosed("predicate must hold at 1.0")
    if truths[0]:
        return OracleEstimate(0.0, 0.0, True)

    # Narrow the initial bracket using the probes already evaluated.
    lo, hi = 0.0, 1.0
    for p, t in zip(probes, truths):
        if t:
            hi = p
            break
        lo = p

    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid

    inf_value = _shortest_decimal_within(lo, hi)
    return OracleEstimate(inf_value, hi - lo, bool(predicate(inf_value)))


def _shortest_decimal_within(lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    for digits in range(18):
        candidate = round(mid, digits)
        if lo <= candidate <= hi:
            return candidate
    return mid


def sample_consistent_rhs(system: FuzzySystem, seed: int = 0) -> tuple[float, ...]:
    """Draw a uniform vector and project it to a consistent right-hand side."""
    rng = random.Random(seed)
    xi = tuple(rng.random() for _ in range(system.m))
    return closure(system, xi)


def generate_random_system(
    m: int,
    n: int,
    kind: ImplicationKind,
    seed: int = 0,
    decimals: int | None = None,
) -> FuzzySystem:
    """Deterministic random system with uniform entries.

    `decimals` rounds every entry, which both mimics hand-written inputs and
    makes strict-inequality corner cases reproducible; agreement suites use
    decimals=2.
    """
    if m < 1 or n < 1:
        raise ValueError(f"system dimensions must be at least 1, got m={m}, n={n}")
    rng = random.Random(seed)

    def draw() -> float:
        x = rng.random()
        return round(x, decimals) if decimals is not None else x

    gamma = tuple(tuple(draw() for _ in range(n)) for _ in range(m))
    beta = tuple(draw() for _ in range(m))
    return FuzzySystem(gamma, beta, kind)
