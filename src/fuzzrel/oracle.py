"""Independent verification tools: membership predicates, bisection, sampling.

The closed-form distance solvers are validated against a second computation
path that never looks at cell statistics: the set of workable tolerances

    { delta : closure(system, lower_shift(beta, delta)) <= upper_shift(beta, delta) }

is upward closed and contains 1, so its infimum (which equals the Chebyshev
distance) can be bracketed by plain bisection on `tolerance_membership`.

Each test needs only a yes or no, so `tolerance_membership` does not
evaluate the closure.  It runs `FLOAT.membership[kind]`, which stops each
row at its first residuum at most upper[j] + slack, with lower, upper =
shifted_bounds(beta, delta), and computes an entry x[i] of the inner level
x = max_t_compose(gamma^t, kind, lower) only when a row first reads it,
over column i's front pairs (gamma[l][i], beta[l]) only, the system's
`fronts`.  It computes lower[l] only at front pairs and upper[j] only at
the rows it visits, by the float operations of `shifted_bounds`, so each
is the same float.  Its verdict is that of leq(closure(system, lower),
upper, slack), bit for bit:

- The front keeps x exact.  Every float t-norm, fl(min(g, y)), fl(g y) and
  fl(fl(g + y) - 1)^+, is non-decreasing in both arguments, and lower[l] =
  fl(beta[l] - delta)^+ is non-decreasing in beta[l], since rounding is
  monotone.  So a row whose pair (gamma[l][i], beta[l]) is dominated by a
  pair on the rising front of column i (Kung, Luccio and Preparata, JACM
  1975) never has a greater term, and the max over the front equals the
  max over the column.
- Signs of zero.  No term is -0.0: a validated entry is not -0.0, lower is
  +0.0 or positive, and neither a product nor (.)^+ of such values is
  -0.0.  So equal values are equal bits, and which of equal terms a max
  keeps does not matter.
- The early stop.  min_i r_i <= c holds iff some r_i <= c.  Both tests
  compare the same floats exactly, and a validated system holds no NaN.
- Entries on first read.  x[i] depends on column i's front and delta
  alone, so the float computed at its first read and kept for the later
  rows of the call is the float a loop computing every entry up front
  would give.  A row reads its entries in column order up to its first
  witness, as the up-front loop does, so every row compares the same
  floats, and an entry that no row reaches takes part in no comparison.
  The entries live for one call: another delta computes them anew.
- Subnormal Goguen entries.  The float operations are the same ones, so
  they underflow exactly as the closure's do.

The test suite keeps the same test by full evaluation through
`Arithmetic.solve_and_recompose`, on either instance, as the reference of
the exact tests below.  `generate_random_system` and
`sample_consistent_rhs` supply deterministic random instances for
agreement suites.

The exact functions read every entry as the rational value of its shortest
round-tripping decimal and run the shared formulas on `EXACT`, the Fraction
instance of `fuzzrel.algebra.arithmetic`.  They read each value through
the system's `readings`, a memo (`_Readings`) that reads a value on its
first lookup and keeps it, so a system parses each distinct value once
across all its exact calls.  `exact_maxt_distance` does so by
a float filter with an exact fallback: a float scan of the max-t cells picks
the rows and cells that can still decide the distance, and only those are
evaluated in Fractions.  Every float cell is within MAXT_ETA = 2^-49 of its
exact cell, and so is the float cell of a single pair (derived in its
docstring, subnormal entries included), so keeping every row within 2
MAXT_ETA of the best float row minimum, in it every cell within 2 MAXT_ETA
of its minimum, and in that cell every pair whose one-pair cell is within 2
MAXT_ETA of the cell, keeps the exact maximizing row, its exact minimizing
cell and that cell's exact maximizing pair: the result is the full exact
scan's, and only the kept pairs are read as Fractions.

`exact_membership` and `exact_maxt_membership` decide their closure
inequality row by row, by an interval pass in floats and an exact fallback
for the rows it leaves open (interval enclosure: Moore, Interval Analysis,
1966).  Each closure is two levels, an inner composition over the columns
of one shifted bound and an outer one over the rows, and row i holds when
one side, the outer level or a shifted bound, is at most the other.  The
pass bounds each quantity it reads by a low and a high float:

- a right-hand side value v, shifted by float(delta) on the side the
  closure reads it, padded down to its low and up to its high bound;
- an inner entry, the float aggregate over its column's front of the
  kind's t-norm or residuum (`Arithmetic.t_norms`, `Arithmetic.residua`)
  of the float entry and the low or the high bound of the shift, padded
  down or up;
- an outer term, the t-norm or residuum of the float entry and the low or
  the high bound of the inner entry it reads, padded on the same side.

The pad is a shift of `FLOAT` by W = MEMBERSHIP_PAD = 2^-50 = 8 eps, eps =
2^-53: a float value r goes to a low bound fl(r - W), `shift_down`, and a
high bound fl(r + W), `shift_up`, clamped to [0, 1], where every exact
quantity lies.  Every t-norm and every residuum is non-decreasing in its
vector argument, so the low bound of a vector gives the low bound of its
level.  Why the bounds hold:

- Reading error.  The exact reading of an entry or of a beta value, its
  shortest decimal, and that of delta, a Fraction that float(delta) rounds
  to nearest, lie within half an ulp of the float: at most eps/2, relative
  for a normal float, 2^-1075 for a subnormal one.
- Margin.  Every padded bound lies at least 4.5 eps outside its exact
  value, or is clamped at 0 or 1.  The 8 eps pad loses eps to its own
  rounding, at most 2 eps to the formula's rounding and eps/2 to reading a
  matrix entry: x y and y / x round once and may underflow by 2^-1075,
  (x + y - 1)^+ rounds once, as fl(x + y) - 1 is exact where it is not
  negative, 1 - x + y by 1.5 eps, and a shift by eps, to which reading v
  and delta add eps; min, max, (.)^+ and every comparison are exact.
- Away from the jump.  Reading a matrix entry x exactly, as X, moves a
  formula by at most eps/2: the t-norms and 1 - x + y are 1-Lipschitz in
  x, and on its branch x > y the Goguen quotient y / x is at most 1, so
  its error is relative.
- At the jump x == v of a residuum at a vector bound v, the margin is
  larger than the reading error, so the float branch is one the exact
  value allows:
  - at the low bound, x <= v with v unclamped implies X < V exactly, so
    both are 1; for x > v the exact value is 1 or the branch formula at
    X > V, at least the float one less eps/2 and the rounding;
  - at the high bound, x > v with v unclamped implies X > V, so both take
    the branch formula, and the float one at v > V is at least the exact
    one less eps/2 and the rounding; for x <= v the float value is 1;
  - a clamped bound gives the formula's extreme, which is on the right
    side: at 0 the residuum is 1 only at x = 0 = X, at 1 it is 1;
  - a subnormal x lies below every unclamped bound, which is at least
    2^-102, the ulp of W, so the Goguen quotient reads a subnormal x only
    at a low bound clamped to 0, where it is 0.

The pass reads the bounds row by row, as `Arithmetic.membership` does, and
each is the float that whole padded compositions of every column and row
give, bit for bit (`tests/helpers.py` keeps that form as the reference):

- Fronts.  An inner entry aggregates over the front of its column only:
  the system's `fronts`, rising for `exact_membership`, whose inner level
  is a max of t-norms, and falling for `exact_maxt_membership`, whose inner
  level is a min of residua.  The float shifts, the pads and the rounding
  of a float operation are non-decreasing, so the padded shift of b is
  non-decreasing in b; each float t-norm is non-decreasing in both
  arguments, and each float residuum non-increasing in its entry and
  non-decreasing in its vector argument.  The Lukasiewicz residuum is one
  where x <= y and fl(fl(1 - x) + y) <= 1 where x > y, so it keeps that
  order across its clamp to 1 too.  So a pair beaten on its column's front
  never has a greater t-norm, or a smaller residuum, than the pair that
  beats it, and the aggregate over the front is the one over the column;
  no term is -0.0, so equal values are equal bits.
- Pads commute with min and max.  A pad is non-decreasing, so the pad of
  a min or a max is the min or max of the pads: a row's outer bound at the
  side that can settle it true (the high bound of a min, the low one of a
  max) clears the row's bound exactly when one of its padded terms does,
  and the row stops at its first such term.  Only a row with none is
  scanned at its other side, where it fails when no padded term there can
  reach the row's bound.
- Unclamped term pads.  A term compared with a bound takes its pad as
  fl(t - W) or fl(t + W) with no clamp: each is compared with a bound that
  its clamp cannot cross, a high pad with a padded-down bound below 1 (or,
  against a max, any bound at most 1) and a low pad with a padded-up bound
  above 0 (or, against a min, any bound at least 0).
- Entries on first read.  An inner bound depends on its column and delta
  alone, and is computed when a row first reads it and kept for the call,
  so a column no row reaches is never reduced.

A row whose bounds do not overlap is decided: it holds when the high bound
of the smaller side is at most the low bound of the larger, and it fails
when the low bound of the smaller exceeds the high bound of the larger.  At
the distance at least one row is tight in exact arithmetic and so left
open.  An open row is evaluated with the EXACT tables over only the outer
terms that can still attain the outer min (low bound at most the min's high
bound) or max (high bound at least the max's low bound); each inner entry
those terms read is evaluated once, over the pairs of its column's front
that can attain it; and only the entries and right-hand sides these touch
are read as Fractions, through the system's `readings`, so each distinct
value is parsed once per system, however many calls read it.  Each exact
shift, once per value and call, is taken on the
one side its values read, by `EXACT.shift_down` or `EXACT.shift_up`: the
shift of the inner level (down for `exact_membership`, up for
`exact_maxt_membership`) at the front pairs, the other, the bound, at the
open rows.  Reading a float as its shortest decimal is strictly
increasing, so a pair beaten on the float front is beaten by the decimal
readings of the pair that beats it, and the exact t-norms, residua and
shifts are monotone as the float ones are: the exact aggregate over a
front is the one over its column.  The term that attains an exact min is
at most every other term, so its low bound is at most the min's high
bound, and symmetrically for a max: each aggregate over the kept terms is
the aggregate over all of them.  So every row gets its exact verdict and
the result is that of the full exact evaluation on `_exact_matrix` and
`_exact_vector`.
"""

from __future__ import annotations

import random

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import ge, gt, le, lt
from typing import Callable

from .algebra import (
    FLOAT, ImplicationKind, _dict_init, arithmetic, checked_index, checked_tolerance, unit,
)
from .errors import DomainError, PredicateNotUpClosed
from .operators import FuzzySystem, MaxTSystem, closure


@_dict_init
@dataclass(frozen=True, init=False)
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
    slack that is not a finite non-negative number raises ValueError: NaN
    would make every delta fail, an infinite slack every delta hold, and a
    bool would be read as 0 or 1.  The
    test runs `FLOAT.membership[kind]` on the system's `fronts`, which
    returns the verdict of the full closure (module docstring).
    """
    checked_tolerance(slack, "slack")
    delta = unit(delta, "delta")
    gamma, rhs = system.gamma, system.beta
    if row is not None:
        row = checked_index(row, len(gamma), "row", "rows")
        gamma, rhs = (gamma[row],), (rhs[row],)
    return FLOAT.membership[system.kind](gamma, system.fronts, rhs, delta, slack)


#: The shared formulas of `fuzzrel.algebra` in exact rational arithmetic.
EXACT = arithmetic(Fraction(1))


def _exact(value) -> Fraction:
    # repr of a float is its shortest round-tripping decimal, so this reads
    # a value "as written" rather than as its binary expansion.  Through
    # Decimal it parses in about half the time of Fraction's own parser.
    return Fraction(Decimal(repr(float(value))))


class _Readings(dict):
    """A system's `readings`: value -> `_exact(value)`, each read on its
    first lookup and kept.  The exact paths look every entry and
    right-hand side value up here, so a system parses each distinct value
    once however many exact calls read it.  The kept readings are the
    dict's items, so they pickle and copy with the system."""

    def __missing__(self, value):
        reading = self[value] = _exact(value)
        return reading


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

    The result is that of the full exact evaluation, image <= upper with
    lower, upper = EXACT.shifted_bounds(_exact_vector(beta), delta) and
    image the second result of EXACT.solve_and_recompose(
    _exact_matrix(gamma), _exact_matrix(gamma^t), kind, lower), at row `row`
    or at every row when it is None, computed by the interval pass and
    per-row exact fallback of the module docstring.  The inner level is x =
    max_t_compose(gamma^t, kind, lower), the outer one image =
    min_impl_compose(gamma, kind, x), and row i holds when image[i] <=
    upper[i].

    For inputs stated in a few decimals, whose derived thresholds live on a
    coarse decimal grid, the answer is exact.  For arbitrary floats it is
    the exact answer at the snapped delta.
    """
    delta = _exact_delta(delta)
    rows = range(system.m) if row is None else (checked_index(row, system.m, "row", "rows"),)
    return _decided(system, system.fronts, delta, False, rows)


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
    """
    return _decided(system, system.fronts, _exact_delta(delta), True, range(system.n))


#: The pad of every bound of the interval pass, 8 * 2^-53 (module docstring).
MEMBERSHIP_PAD = 2.0 ** -50

#: The two sides of every bound of the interval pass, by index: the low
#: bound is shifted down by MEMBERSHIP_PAD and the high one up, and a term
#: compared with a bound takes its pad as fl(t - MEMBERSHIP_PAD) or fl(t +
#: MEMBERSHIP_PAD), unclamped (module docstring).
_PADS = (FLOAT.shift_down, FLOAT.shift_up)
_SIGNED_PADS = (-MEMBERSHIP_PAD, MEMBERSHIP_PAD)


def _ops(ar, kind, maxt: bool):
    """The operations of the inner and the outer level of the closure of
    `exact_membership` (maxt False: t-norms, then residua) or of
    `exact_maxt_membership` (maxt True: residua, then t-norms) on the
    instance `ar`."""
    t_norm, residuum = ar.t_norms[kind], ar.residua[kind]
    return (residuum, t_norm) if maxt else (t_norm, residuum)


def _decided(system, fronts, delta: Fraction, maxt: bool, rows) -> bool:
    """Whether every row in `rows` satisfies the closure inequality of
    `exact_membership` (maxt False) or `exact_maxt_membership` (maxt True),
    in exact arithmetic: the interval pass decides each row it can, and the
    rows it leaves open are evaluated in Fractions by `_exact_rows`.  The
    matrix and right-hand side are those of `system`, gamma and beta or a
    and b; `fronts[j]`, the system's `fronts` or a mapping that reads them,
    holds the pairs (matrix[k][j], rhs[k]) of column j's front: rising for
    a min of t-norms, falling for a min of residua.

    A row is scanned term by term, as `Arithmetic.membership` scans it, at
    the side of its bounds that can settle it true (the high bound of a
    min, the low one of a max) and stops at its first term that clears the
    row's bound with both pads against it.  A row with no such term is
    scanned at its other side, and fails the call when no term there can
    reach its bound; else it is open.  The bound of an inner entry is
    computed over its column's front when a row first reads it."""
    d = float(delta)
    matrix, rhs = (system.a, system.b) if maxt else (system.gamma, system.beta)
    if maxt:
        holds, better, first, shift, bound_shift = ge, lt, 0, FLOAT.shift_up, FLOAT.shift_down
    else:
        holds, better, first, shift, bound_shift = le, gt, 1, FLOAT.shift_down, FLOAT.shift_up
    inner_op, outer_op = _ops(FLOAT, system.kind, maxt)
    n = len(matrix[0])
    inner = ([None] * n, [None] * n)

    def entry(side, j):
        # the bound at `side` of inner entry j, computed on its first read
        x = inner[side][j]
        if x is None:
            pad = _PADS[side]
            for h, c in fronts[j]:
                t = inner_op(h, pad(shift(c, d), MEMBERSHIP_PAD))
                if x is None or better(t, x):
                    x = t
            x = inner[side][j] = pad(x, MEMBERSHIP_PAD)
        return x

    opened = []
    for i in rows:
        row, b = matrix[i], bound_shift(rhs[i], d)
        for side in (first, 1 - first):
            xs, w = inner[side], _SIGNED_PADS[side]
            limit = _PADS[1 - side](b, MEMBERSHIP_PAD)
            for j, g in enumerate(row):
                x = xs[j]
                if x is None:
                    x = entry(side, j)
                if holds(outer_op(g, x) + w, limit):
                    break
            else:
                continue
            break
        else:
            return False
        if side != first:
            opened.append(i)
    return not opened or _exact_rows(system, matrix, fronts, rhs, delta, maxt, opened, entry)


def _exact_rows(system, matrix, fronts, rhs, delta: Fraction, maxt: bool, opened, entry) -> bool:
    """Whether every row in `opened`, which the interval pass of `_decided`
    left open, satisfies its closure inequality in exact arithmetic.
    `matrix`, `fronts` and `rhs` are those the pass read of `system`, and
    `entry(side, j)` is the pass's bound of inner entry j at `side`.

    Each row is evaluated over the outer terms that can still attain its
    min or max, each inner entry they read over the front pairs that can
    attain it, and only the entries and right-hand sides these touch are
    read as Fractions, from the system's `readings`, which parse each value
    once per system.  The exact shift is taken once per value and call, on
    the one side each value is read at: the shift of the inner level at
    front pairs, the other, the bound, at the open rows."""
    if maxt:
        holds, first, shift, bound_shift = ge, 0, EXACT.shift_up, EXACT.shift_down
    else:
        holds, first, shift, bound_shift = le, 1, EXACT.shift_down, EXACT.shift_up
    other, pad, w = 1 - first, _PADS[first], _SIGNED_PADS[first]
    float_shift = FLOAT.shift_up if maxt else FLOAT.shift_down
    inner_op, outer_op = _ops(FLOAT, system.kind, maxt)
    exact_inner_op, exact_outer_op = _ops(EXACT, system.kind, maxt)
    inner_aggregate, outer_aggregate = (min, max) if maxt else (max, min)
    d, read, shifted, exact_inner = float(delta), system.readings, {}, {}

    def exact_shift(value):
        if value not in shifted:
            shifted[value] = shift(read[value], delta)
        return shifted[value]

    for i in opened:
        row = matrix[i]
        # the row's outer bound at the side that settles rows, and the
        # terms whose other side can reach it
        edge = outer_aggregate(
            [pad(outer_op(g, entry(first, j)), MEMBERSHIP_PAD) for j, g in enumerate(row)]
        )
        terms = [
            j for j, g in enumerate(row)
            if holds(outer_op(g, entry(other, j)) + _SIGNED_PADS[other], edge)
        ]
        for j in terms:
            if j not in exact_inner:
                x = entry(other, j)
                exact_inner[j] = inner_aggregate([
                    exact_inner_op(read[h], exact_shift(c))
                    for h, c in fronts[j]
                    if holds(x, inner_op(h, pad(float_shift(c, d), MEMBERSHIP_PAD)) + w)
                ])
        value = outer_aggregate([exact_outer_op(read[row[j]], exact_inner[j]) for j in terms])
        if not holds(value, bound_shift(read[rhs[i]], delta)):
            return False
    return True


#: A bound on |float cell - exact cell| over the cells of `exact_maxt_distance`,
#: derived in its docstring: every cell errs by less than 8 * 2^-53.
MAXT_ETA = 2.0 ** -49


def exact_maxt_distance(system: MaxTSystem) -> Fraction:
    """Closed-form max-t distance evaluated in exact rational arithmetic.

    The result is the value of the formulas of `maxt_distance` on the
    Fraction instance `EXACT`, with entries read as their shortest
    round-tripping decimals, A and B: EXACT.maxt_value of the rows of
    exact cells E[i][j] = EXACT.maxt_cells[kind](A[i][j], B[i], column j),
    each over every pair (A[k][j], B[k]) of its column.  It places the
    attainment test exactly on the threshold, where float evaluation
    cannot be trusted.  It is computed by
    a float filter with an exact fallback (Fortune and Van Wyk, ACM TOG 1996;
    Shewchuk, DCG 1997):

    1. The system's `float_cells` give the float cells F[i][j], the
       kind's formula in `FLOAT.maxt_cells` over the system's `kept` pairs
       of column j, their row minima f_i and R = max_i f_i.  That scan runs
       once per system and is shared with `fuzzrel.report.maxt_distance`.
    2. With E[i][j] the exact cells and |F[i][j] - E[i][j]| <= ETA for every
       cell (ETA = MAXT_ETA, bound below), a row is kept when f_i >= R - 2 ETA,
       and in a kept row a cell when F[i][j] <= f_i + 2 ETA.
    3. In a kept cell, the pair level: for each pair p of the system's
       `kept` pairs of column j, the float cell of that pair alone,
       F[i][j][p] = cell(a[i][j], b[i], (p,)), is computed again; the cell
       is their max, and a pair is kept when F[i][j][p] >= max_p F[i][j][p]
       - 2 ETA.  For max-min the one-pair cell keeps the floor term (x -
       u)^+ of the cell, so the max of the one-pair cells is the cell.
    4. Only the kept cells are evaluated, by `EXACT.maxt_cells`, each over
       its kept pairs, reading as Fractions just a[i][j], b[i] and those
       pairs, the system's `kept` pairs of the cell's column, which the
       float scan reduced once.  Each value is read through the system's
       `readings`, so `exact_maxt_membership` at the result reads again
       none that this function read.
       The float reduction, `MaxTSystem.kept`, serves the exact cell.  For
       max-min and max-product it keeps the `front`: reading a float as its
       shortest decimal is strictly increasing, so the decimal pairs have
       their front in the same rows.  For max-Lukasiewicz it keeps, by
       `fuzzrel.algebra.top_pairs`, every pair whose float key
       a[k][j] - b[k] lies within 2^-50 of the greatest.  The exact
       threshold depends on the pair only through the exact key, and does
       not decrease with it; the decimal pair of greatest exact key has a
       float key within 3 * 2^-53 of the greatest float key, so it is kept
       (derived in `top_pairs`).
       The result is EXACT.maxt_value of the kept rows, each holding its
       kept cells: max(0, the greatest of their minima).

    Why this is the full exact scan.  Let e_i = min_j E[i][j], so that
    |e_i - f_i| <= ETA.  If row i attains max_i e_i and row r attains R, then
    f_i >= e_i - ETA >= e_r - ETA >= f_r - 2 ETA = R - 2 ETA: row i is kept.
    If cell j attains e_i and cell k attains f_i, then F[i][j] <= E[i][j] +
    ETA <= E[i][k] + ETA <= f_i + 2 ETA: cell j is kept.  So every kept row
    yields its e_i and the best row is kept.  The pair level is the same
    argument one level down: a cell is the max over its pairs of the
    one-pair cells, and each one-pair cell errs by at most ETA, since the
    bound below holds for every threshold and for the floor term.  If pair
    p attains E[i][j] and pair q attains the float max, then F[i][j][p] >=
    E[i][j][p] - ETA >= E[i][j][q] - ETA >= F[i][j][q] - 2 ETA: pair p is
    kept, and the exact cell over the kept pairs is E[i][j].  The three
    windows are compared in floats; rounding is monotone, so a float on
    the right side of a real bound is on the right side of that bound
    rounded.  The pairs that rounding can reorder are those whose one-pair
    cells lie within 2 ETA of each other (`tests/test_exact_maxt.py` pins
    systems where a window of 0 would keep the wrong one).  On the seed-1
    `verify-small` pool, 216 systems, 237 of the 268 kept cells keep one
    pair, 332 of their 554 reduced pairs in all, and the pair level took a
    pass over the pool from about 11 to 8 ms (best of 7, Python 3.11,
    shared 2-core host).

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
    a, b, kind, read = system.a, system.b, system.kind, system.readings
    rows = system.float_cells
    lows = tuple(map(min, rows))
    floor = max(lows) - 2 * MAXT_ETA
    kept = [
        (i, [j for j, f in enumerate(rows[i]) if f <= low + 2 * MAXT_ETA])
        for i, low in enumerate(lows)
        if low >= floor
    ]
    pairs = system.kept
    float_cell, cell = FLOAT.maxt_cells[kind], EXACT.maxt_cells[kind]
    exact_rows = []
    for i, cells in kept:
        x, exact_x, exact_row = b[i], read[b[i]], []
        for j in cells:
            u, column = a[i][j], pairs[j]
            tops = [float_cell(u, x, (pair,)) for pair in column]
            cutoff = max(tops) - 2 * MAXT_ETA
            deciding = [(read[y], read[z]) for (y, z), t in zip(column, tops) if t >= cutoff]
            exact_row.append(cell(read[u], exact_x, deciding))
        exact_rows.append(exact_row)
    return EXACT.maxt_value(exact_rows)


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
    such a point makes member_at_inf meaningful.  When no decimal of 17
    or fewer places lies in the bracket, inf_value falls back to the
    bracket's midpoint.  A `tol` that is not a finite positive number, a
    bool included, raises ValueError.
    """
    checked_tolerance(tol, "tol", positive=True)

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
