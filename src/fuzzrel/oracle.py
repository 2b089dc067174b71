"""Independent verification tools: membership predicates, bisection, sampling.

The closed-form distance solvers are validated against a second computation
path that never looks at cell statistics: the set of workable tolerances

    { delta : closure(system, lower_shift(beta, delta)) <= upper_shift(beta, delta) }

is upward closed and contains 1, so its infimum (which equals the Chebyshev
distance) can be bracketed by plain bisection on `tolerance_membership`.
`generate_random_system` and `sample_consistent_rhs` supply deterministic
random instances for agreement suites.

The exact functions read every entry as the rational value of its shortest
round-tripping decimal and run the shared formulas on `EXACT`, the Fraction
instance of `fuzzrel.algebra.arithmetic`.  `exact_maxt_distance` does so by
a float filter with an exact fallback: a float scan of the max-t cells picks
the rows and cells that can still decide the distance, and only those are
evaluated in Fractions.  Every float cell is within MAXT_ETA = 2^-49 of its
exact cell (derived in its docstring, subnormal entries included), so
keeping every row within 2 MAXT_ETA of the best float row minimum, and in it
every cell within 2 MAXT_ETA of its minimum, keeps the exact maximizing row
and its exact minimizing cell: the result is the full exact scan's.

`exact_membership` and `exact_maxt_membership` decide their closure
inequality row by row, by an interval pass in floats and an exact fallback
for the rows it leaves open (interval enclosure: Moore, Interval Analysis,
1966).  Each closure is two levels, an inner composition over the columns
of one shifted bound and an outer one over the rows, and row i holds when
one side, the outer level or a shifted bound, is at most the other.  The
pass encloses every exact quantity in float bounds [lo, hi]:

- An entry or float(delta), v.  Its exact reading, the shortest decimal of
  v or a Fraction delta rounded to v, lies within half an ulp of v, so it
  lies in [nextafter(v, 0), nextafter(v, 1)], which stays in [0, 1].
- A shifted bound or a level: the same FLOAT formula (`shifted_bounds`, or
  `Arithmetic.t_norms` and `Arithmetic.residua` through the two
  compositions), evaluated at the corners of the bounds of its arguments.  Every t-norm is non-decreasing in both arguments, every
  residuum non-increasing in its first and non-decreasing in its second,
  (v - delta)^+ and min(v + delta, 1) are monotone in v and delta, and so
  are max and min.  So the exact value at the exact arguments lies between
  the exact values at the low corner and at the high corner.  This holds
  across a branch point with no case split: where x <= y may go either way,
  the low corner of a residuum takes the high x and the low y, hence its
  low branch, and the high corner its high branch; the Goguen quotient y/x
  is enclosed by the same two corners.
- Rounding.  At a corner, every argument is a float in [0, 1] and the float
  result differs from the exact one by one or two roundings, eps = 2^-53:
  x y and y / x by eps plus an underflow term of at most 2^-1075, (x + y -
  1)^+ by eps, since fl(x + y) - 1 is exact where it is not negative, 1 - x
  + y by 1.5 eps, and v - delta and v + delta by eps; min, max, (.)^+ and every comparison are
  exact.  So each is within 2 eps of its exact corner value.  The low bound
  is fl(r - W) and the high bound fl(r + W), W = MEMBERSHIP_PAD = 2^-50 = 8
  eps, each of which rounds by at most eps once more, and both are then
  clamped to [0, 1], where every exact quantity lies.  As 8 eps > 2 eps +
  eps, each bound is on its side of the exact value.

A row whose bounds do not overlap is decided: it holds when the high bound
of the smaller side is at most the low bound of the larger, and it fails
when the low bound of the smaller exceeds the high bound of the larger.  At
the distance at least one row is tight in exact arithmetic and so left
open.  An open row is evaluated with the EXACT tables over only the outer
terms that can still attain the outer min (low bound at most the min's high
bound) or max (high bound at least the max's low bound); each inner entry
those terms read is evaluated once, over the inner terms that can attain
it; and only the entries and right-hand sides these touch are read as
Fractions.  The term that attains an exact min is at most every other
term, so its low bound is at most the min's high bound, and symmetrically
for a max: each aggregate over the kept terms is the aggregate over all
of them.  So every row gets its exact verdict and the result is that of
the full exact evaluation on `_exact_matrix` and `_exact_vector`.
"""

from __future__ import annotations

import math
import random

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat
from math import nextafter
from typing import Callable

from .algebra import (
    FLOAT, Arithmetic, ImplicationKind, arithmetic, checked_index, column_scan, leq, transpose,
    unit,
)
from .errors import DomainError, PredicateNotUpClosed
from .operators import FuzzySystem, MaxTSystem, closure


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
    arithmetic, which happens systematically at the distance itself.  A
    slack that is not finite and non-negative raises ValueError: NaN would
    make every delta fail, and an infinite slack every delta hold.
    """
    if not 0.0 <= slack < math.inf:
        raise ValueError(f"slack must be a finite non-negative number, got {slack!r}")
    return _membership(
        FLOAT, system.gamma, system.beta, system.kind, unit(delta, "delta"), row, slack
    )


def _membership(ar: Arithmetic, gamma, beta, kind, delta, row, slack) -> bool:
    if row is not None:
        row = checked_index(row, len(beta), "row", "rows")
    lower, upper = ar.shifted_bounds(beta, delta)
    _, image = ar.solve_and_recompose(gamma, kind, lower)
    if row is None:
        return leq(image, upper, slack)
    return image[row] <= upper[row] + slack


#: The shared formulas of `fuzzrel.algebra` in exact rational arithmetic.
EXACT = arithmetic(Fraction(0), Fraction(1), Fraction(0))


def _exact(value) -> Fraction:
    # repr of a float is its shortest round-tripping decimal, so this reads
    # a value "as written" rather than as its binary expansion.  Through
    # Decimal it parses in about half the time of Fraction's own parser.
    return Fraction(Decimal(repr(float(value))))


def _exact_vector(values) -> tuple[Fraction, ...]:
    return tuple(map(_exact, values))


def _exact_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(map(_exact_vector, rows))


#: Decimal digits a float delta is rounded to before the exact membership
#: tests read it as a rational.
SNAP_DIGITS = 12

def _exact_delta(delta) -> Fraction:
    """A delta in [0, 1] as a Fraction: a float is validated by `unit` and
    snapped to SNAP_DIGITS decimals, a Fraction is range-checked and kept
    as is, since callers supply one when the exact threshold is known (e.g.
    from exact_maxt_distance)."""
    if isinstance(delta, Fraction):
        if not 0 <= delta <= 1:
            raise DomainError(f"delta: {delta} is outside [0, 1]")
        return delta
    return _exact(round(unit(delta, "delta"), SNAP_DIGITS))


def exact_membership(system: FuzzySystem, delta, row: int | None = None) -> bool:
    """Decide `tolerance_membership` in exact rational arithmetic.

    Float evaluation of the membership inequality exactly at the distance is
    unreliable: both sides are equal there in exact arithmetic, and one ulp
    of drift on the input of a residuum can cross its branch point and move
    the output by a macroscopic amount.  This variant sidesteps the problem
    by re-reading every entry as the (exact) rational value of its shortest
    round-tripping decimal, rounding a float `delta` to SNAP_DIGITS decimal
    digits and deciding the closure inequality in Fraction arithmetic.  A
    delta outside [0, 1] raises DomainError, as in `tolerance_membership`.

    The result is that of the full exact evaluation, _membership(EXACT,
    _exact_matrix(gamma), _exact_vector(beta), kind, delta, row,
    EXACT.zero), computed by the interval pass and per-row exact fallback
    of the module docstring.  The inner level is x = max_t_compose(gamma^t,
    kind, lower), the outer one image = min_impl_compose(gamma, kind, x),
    and row i holds when image[i] <= upper[i].  The pass evaluates the
    FLOAT t-norm at the low and the high ends of its arguments and the
    residuum at (high x, low y) and (low x, high y), since the t-norm rises
    in both and the residuum falls in x and rises in y; each bound is
    padded by MEMBERSHIP_PAD = 2^-50, more than the 3 * 2^-53 that one
    formula and the padding itself round by.  So the bounds enclose the
    exact values, a decided row has its exact verdict, and an open row is
    evaluated in Fractions over every term that can attain its min or max.

    For inputs stated in a few decimals, whose derived thresholds live on a
    coarse decimal grid, the answer is exact.  For arbitrary floats it is
    the exact answer at the snapped delta.
    """
    delta = _exact_delta(delta)
    rows = range(system.m) if row is None else (checked_index(row, system.m, "row", "rows"),)
    return _decided(system.gamma, system.beta, system.kind, delta, False, rows)


def exact_maxt_membership(system: MaxTSystem, delta) -> bool:
    """Exact-rational membership test for max-t-norm systems.

    Decides lower_shift(b, delta) <= maxt_closure(a, kind, upper_shift(b,
    delta)) with Fraction arithmetic, reading entries and delta the same way
    as `exact_membership`.  Pass the Fraction from `exact_maxt_distance` to
    test attainment exactly at the distance.

    The result is that of the full exact evaluation, leq(lower,
    EXACT.maxt_closure(_exact_matrix(a), kind, upper), EXACT.zero), computed
    by the interval pass and per-row exact fallback of the module docstring.
    The inner level is y = min_impl_compose(a^t, kind, upper), the outer one
    c = max_t_compose(a, kind, y), and row i holds when lower[i] <= c[i].
    The residuum is evaluated at (high x, low y) and (low x, high y) and
    the t-norm at the low and the high ends of its arguments, each bound
    padded by MEMBERSHIP_PAD = 2^-50; as in `exact_membership`, monotonicity
    and the padding make the bounds enclose the exact values, so decided
    rows and the exact fallback give the full evaluation's verdict.
    """
    delta = _exact_delta(delta)
    return _decided(system.a, system.b, system.kind, delta, True, range(system.n))


#: Padding of every bound of the interval pass behind `exact_membership` and
#: `exact_maxt_membership`: 8 * 2^-53, against at most 2 * 2^-53 for the
#: rounding of one scalar formula and 2^-53 for that of the padding itself
#: (derived in the module docstring).
MEMBERSHIP_PAD = 2.0 ** -50


def _enclosure(values) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Float bounds (lo, hi) of the exact readings of floats in [0, 1]: their
    neighbouring floats towards 0 and towards 1, so that 0 and 1 are their
    own bounds."""
    return tuple(map(nextafter, values, repeat(0.0))), tuple(map(nextafter, values, repeat(1.0)))


def _padded(lo, hi) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Float results at the low and high corners, widened by MEMBERSHIP_PAD
    and clamped to [0, 1]: bounds of the exact values."""
    return (
        tuple(max(v - MEMBERSHIP_PAD, 0.0) for v in lo),
        tuple(min(v + MEMBERSHIP_PAD, 1.0) for v in hi),
    )


def _level(residual: bool, kind, lo_rows, hi_rows, v_lo, v_hi):
    """Bounds of min_impl_compose (`residual`) or max_t_compose of the matrix
    enclosed by lo_rows, hi_rows and the vector enclosed by v_lo, v_hi.  A
    residuum falls in its matrix argument, so its low corner takes hi_rows."""
    if residual:
        compose, low_rows, high_rows = FLOAT.min_impl_compose, hi_rows, lo_rows
    else:
        compose, low_rows, high_rows = FLOAT.max_t_compose, lo_rows, hi_rows
    return _padded(compose(low_rows, kind, v_lo), compose(high_rows, kind, v_hi))


def _attaining(residual: bool, kind, hi_row, v_lo, v_hi, lo, hi) -> list[int]:
    """The terms of one entry of a `_level`, enclosed in [lo, hi], whose own
    bounds let them attain its exact min (`residual`) or max: a term of a
    min whose low bound is at most hi, a term of a max whose high bound is
    at least lo.  Both bounds take hi_row: the low corner of a residuum and
    the high corner of a t-norm."""
    if residual:
        terms = map(FLOAT.residua[kind], hi_row, v_lo)
        return [k for k, t in enumerate(terms) if t - MEMBERSHIP_PAD <= hi]
    terms = map(FLOAT.t_norms[kind], hi_row, v_hi)
    return [k for k, t in enumerate(terms) if t + MEMBERSHIP_PAD >= lo]


def _decided(matrix, rhs, kind, delta: Fraction, maxt: bool, rows) -> bool:
    """Whether every row in `rows` satisfies the closure inequality of
    `exact_membership` (maxt False) or `exact_maxt_membership` (maxt True),
    in exact arithmetic: the interval pass decides what it can and the
    undecided rows are evaluated in Fractions over their attaining terms."""
    d_lo, d_hi = nextafter(float(delta), 0.0), nextafter(float(delta), 1.0)
    b_lo, b_hi = _enclosure(rhs)
    lo_rows, hi_rows = zip(*map(_enclosure, matrix))
    lo_columns, hi_columns = transpose(lo_rows), transpose(hi_rows)
    lower = _padded(FLOAT.shifted_bounds(b_lo, d_hi)[0], FLOAT.shifted_bounds(b_hi, d_lo)[0])
    upper = _padded(FLOAT.shifted_bounds(b_lo, d_lo)[1], FLOAT.shifted_bounds(b_hi, d_hi)[1])
    # The closure level by level: the inner one over columns of the shift,
    # the outer one over rows; the max-t closure takes the residua first.
    shift, bound = (upper, lower) if maxt else (lower, upper)
    inner = _level(maxt, kind, lo_columns, hi_columns, *shift)
    outer = _level(not maxt, kind, lo_rows, hi_rows, *inner)
    small, big = (bound, outer) if maxt else (outer, bound)
    undecided = []
    for i in rows:
        if small[0][i] > big[1][i]:
            return False
        if small[1][i] > big[0][i]:
            undecided.append(i)
    if not undecided:
        return True
    # The fallback: the terms that can still attain the outer min or max of
    # an undecided row, the terms that can attain the inner entries those
    # read, and only the entries and right-hand sides all of them touch.
    outer_terms = [
        (i, _attaining(not maxt, kind, hi_rows[i], *inner, outer[0][i], outer[1][i]))
        for i in undecided
    ]
    inner_terms = {
        j: _attaining(maxt, kind, hi_columns[j], *shift, inner[0][j], inner[1][j])
        for _, terms in outer_terms
        for j in terms
    }
    read = {*undecided, *chain.from_iterable(inner_terms.values())}
    exact_lower, exact_upper = (
        dict(zip(read, bounds))
        for bounds in EXACT.shifted_bounds(tuple(_exact(rhs[k]) for k in read), delta)
    )
    exact_shift, exact_bound = (exact_upper, exact_lower) if maxt else (exact_lower, exact_upper)
    aggregate, op = _exact_level(maxt, kind)
    exact_inner = {
        j: aggregate(op(_exact(matrix[k][j]), exact_shift[k]) for k in terms)
        for j, terms in inner_terms.items()
    }
    aggregate, op = _exact_level(not maxt, kind)
    for i, terms in outer_terms:
        value = aggregate(op(_exact(matrix[i][j]), exact_inner[j]) for j in terms)
        if (exact_bound[i] > value) if maxt else (value > exact_bound[i]):
            return False
    return True


def _exact_level(residual: bool, kind):
    """The aggregate and the EXACT operation of min_impl_compose (`residual`)
    or max_t_compose."""
    return (min, EXACT.residua[kind]) if residual else (max, EXACT.t_norms[kind])


#: A bound on |float cell - exact cell| over the cells of `exact_maxt_distance`,
#: derived in its docstring: every cell errs by less than 8 * 2^-53.
MAXT_ETA = 2.0 ** -49


def exact_maxt_distance(system: MaxTSystem) -> Fraction:
    """Closed-form max-t distance evaluated in exact rational arithmetic.

    The result is the value of the formulas of `maxt_distance` on the
    Fraction instance `EXACT`, with entries read as their shortest
    round-tripping decimals, i.e. EXACT.maxt_distance(_exact_matrix(a),
    _exact_vector(b), kind); it places the attainment test exactly on the
    threshold, where float evaluation cannot be trusted.  It is computed by
    a float filter with an exact fallback (Fortune and Van Wyk, ACM TOG 1996;
    Shewchuk, DCG 1997):

    1. `column_scan` over the kind's float reducer and cell formula in
       `FLOAT.maxt_cells` gives the float cells F[i][j], their row minima
       f_i and R = max_i f_i.
    2. With E[i][j] the exact cells and |F[i][j] - E[i][j]| <= ETA for every
       cell (ETA = MAXT_ETA, bound below), a row is kept when f_i >= R - 2 ETA,
       and in a kept row a cell when F[i][j] <= f_i + 2 ETA.
    3. Only the kept cells are evaluated, by `EXACT.maxt_cells`, reading as
       Fractions just a[i][j], b[i] and the pairs the float reducer keeps in
       column j; only the columns of kept cells are reduced again for this.
       The float reducer of the kind serves the exact cell.  For max-min
       and max-product it is the `front`: reading a float as its
       shortest decimal is strictly increasing, so the decimal pairs have
       their front in the same rows.  For max-Lukasiewicz it is
       `fuzzrel.algebra.top_pairs`, which keeps every pair whose float key
       a[k][j] - b[k] lies within KEY_WINDOW = 2^-50 of the greatest.  The
       exact threshold depends on the pair only through the exact key, and
       does not decrease with it; the decimal pair of greatest exact key
       has a float key within 3 * 2^-53 of the greatest float key, so it
       is kept (derived in `top_pairs`).
       The result is max(0, max over kept rows of the min over their kept
       cells).

    Why this is the full exact scan.  Let e_i = min_j E[i][j], so that
    |e_i - f_i| <= ETA.  If row i attains max_i e_i and row r attains R, then
    f_i >= e_i - ETA >= e_r - ETA >= f_r - 2 ETA = R - 2 ETA: row i is kept.
    If cell j attains e_i and cell k attains f_i, then F[i][j] <= E[i][j] +
    ETA <= E[i][k] + ETA <= f_i + 2 ETA: cell j is kept.  So every kept row
    yields its e_i and the best row is kept.  The two windows are compared
    in floats; rounding is monotone, so a float on the right side of a real
    bound is on the right side of that bound rounded.

    The bound (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    2-3), with eps = 2^-53 and s = 2^-1075, half the least subnormal:

    - Reading.  The shortest decimal of a float x rounds to x, so it lies
      within half an ulp of x: within eps * x when x is normal, within s when
      x is subnormal, and within eps for every entry of [0, 1].
    - Rounding.  fl(p op q) = (p op q)(1 + d) with |d| <= eps; a sum or
      difference is exact when it is subnormal, and a product, a quotient or
      a halving may add an underflow term of at most s.
    - max, min and (.)^+ move by no more than their arguments, so a cell, a
      max of thresholds over the same kept rows, errs by at most its worst
      threshold.  The branches agree: a float is 0 iff its decimal is.
    - A difference of two entries, x - u or y - z: two readings and one
      rounding of a result in [-1, 1], 3 eps; halved, 1.5 eps + s.  This
      covers the max-min cell and both terms (x - u)^+ and (y - z)^+ of the
      product threshold.
    - Max-Lukasiewicz, v = x + (1 - u) - 1 and (v + y - z)^+ / 2: v takes two
      readings and roundings of results bounded by 1, 2 and 1, 6 eps; v + y -
      z adds two readings and two roundings of results bounded by 2, 12 eps,
      halved to 6 eps + s; min with x keeps 6 eps + s.
    - Max-product, min(r, (y - z)^+) with r = (x y - u z)^+ / (u + y) when
      u > 0 (r = x, one reading, when u = 0).  If the float y is below eps,
      both the float and the exact min lie in [0, y], y read either way, so
      they differ by less than eps (1 + eps) + s.  Otherwise D = u + y >= eps,
      which is the relative-error regime: each product carries two relative
      readings and one rounding, the difference one more, so the numerator
      errs by (4 eps + O(eps^2)) (x y + u z) + 10 s, at most (4 eps +
      O(eps^2)) D as x y + u z <= D (1 + eps); the denominator errs by a
      relative 2 eps + O(eps^2), the quotient by one more eps, and r <= x <=
      1, so r errs by 7 eps + O(eps^2).  The underflow terms, divided by
      D >= eps, are below 2^-1000.  The cap by (y - z)^+ is what makes a
      tiny y safe: there r alone may be off by a percent when u and y are
      subnormal (5e-324 reads as a decimal 1.2% above the float), and the
      subnormal entries need no other branch.

    Every cell thus errs by less than 8 eps; ETA = 16 eps = 2^-49 leaves a
    factor of two for the second-order terms.
    """
    a, b, kind = system.a, system.b, system.kind
    kernel = FLOAT.maxt_cells[kind]
    rows = column_scan(a, b, kernel)
    lows = tuple(map(min, rows))
    floor = max(lows) - 2 * MAXT_ETA
    kept = [
        (i, [j for j, f in enumerate(rows[i]) if f <= low + 2 * MAXT_ETA])
        for i, low in enumerate(lows)
        if low >= floor
    ]
    exact_columns = {}
    for j in {j for _, cells in kept for j in cells}:
        pairs = kernel.column(tuple(zip([row[j] for row in a], b)))
        exact_columns[j] = tuple((_exact(y), _exact(z)) for y, z in pairs)
    cell = EXACT.maxt_cells[kind].cell
    best = EXACT.zero
    for i, cells in kept:
        x = _exact(b[i])
        best = max(best, min(cell(_exact(a[i][j]), x, exact_columns[j]) for j in cells))
    return best


#: Most bisection splits `bisect_infimum` makes, enough for bracket widths
#: down to 2^-60.
MAX_SPLITS = 60


def bisect_infimum(predicate: Callable[[float], bool], tol: float = 1e-9) -> OracleEstimate:
    """Locate inf{delta in [0, 1] : predicate(delta)} for an up-closed predicate.

    Maintains a bracket [lo, hi] with predicate(lo) False and predicate(hi)
    True until its width drops below `tol` or MAX_SPLITS splits are made.
    Up-closedness is sanity-checked on a coarse probe grid first; a hit
    there, or a predicate false at 1, raises PredicateNotUpClosed.

    The returned inf_value is the shortest decimal inside the final bracket
    rather than a raw dyadic endpoint: thresholds of interest are short
    decimals far more often than dyadics, and evaluating the predicate at
    such a point makes member_at_inf meaningful.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")

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

    for _ in range(MAX_SPLITS):
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
