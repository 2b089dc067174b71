"""Unit-interval algebra: t-norms, residual implicators, compositions.

Three t-norm / residuum pairs are supported, selected by `ImplicationKind`:

    GODEL        T(x, y) = min(x, y)        x -> y = 1 if x <= y else y
    GOGUEN       T(x, y) = x * y            x -> y = 1 if x <= y else y / x
    LUKASIEWICZ  T(x, y) = (x + y - 1)^+    x -> y = min(1 - x + y, 1)

Each residuum is the adjoint of its t-norm: T(x, z) <= y iff z <= x -> y.
On top of the scalar operations sit the two matrix-vector compositions used
by every solver in this package:

    max_t_compose     out[i] = max_j T(M[i][j], v[j])
    min_impl_compose  out[j] = min_i (M[j][i] -> v[i])

and the shifted bounds of a vector, `shifted_bounds(v, delta)`, which bracket
the closed sup-norm ball of radius delta around v inside the unit cube.

These formulas, together with every scalar threshold and every cell
formula of both system families, are written once in `arithmetic`, over the
zero and one of a number type (no numeric literal appears inside it).  Each
family's cells form a table with one entry per kind, which returns the
cells of a column: `Arithmetic.cells` for the min-implication reports,
whose records `GodelCellStats`, `GoguenCellStats` and `LukaCellStats` are
defined here, and `Arithmetic.maxt_cells` for the max-t distances.
`column_scan` is the one loop over the cells of a system.  Every entry but
the Godel report's is a `Kernel`, which reduces each column once, by its
reducer, `front` or, for the Lukasiewicz kinds, `top_pairs`, and maps its
cell formula down it; the Godel report column is one sweep.  `FLOAT`
binds the formulas to floats and supplies this module's public functions
and the cells of `fuzzrel.report`; the oracle binds them to `Fraction` to
run the same formulas in exact rational arithmetic.  A float operand that
meets a Fraction silently rounds the result to a float, so exact callers
pass only values of the instance's own type, such as its `zero` as a slack.

All functions are pure and all aggregates are tuples, so values are
immutable and safe to share between threads.  Branch-selecting comparisons
(the x <= y test inside a residuum) are exact on purpose: the residua are
genuinely discontinuous there and blurring the branch point with a tolerance
would change results.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from enum import Enum
from functools import partial
from itertools import repeat
from typing import NamedTuple

from .errors import DimensionMismatch, DomainError, InvariantViolation

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]

# Values within CLAMP_EPS of [0, 1] are clamped onto the interval; anything
# further out is rejected.  Decimal inputs survive round-tripping through
# arithmetic that drifts by a few ulps without poisoning invariants.
CLAMP_EPS = 1e-12


class ImplicationKind(Enum):
    """A t-norm together with its residual implicator."""

    GODEL = "godel"
    GOGUEN = "goguen"
    LUKASIEWICZ = "lukasiewicz"


def transpose(matrix: Matrix) -> Matrix:
    return tuple(zip(*matrix))


#: The shared formulas bound to one number type; built by `arithmetic`.
Arithmetic = namedtuple(
    "Arithmetic",
    "zero pos t_norms residua t_norm residuum max_t_compose min_impl_compose"
    " solve_and_recompose maxt_closure"
    " shifted_bounds godel_threshold goguen_threshold luka_threshold maxprod_ratio"
    " maxprod_threshold maxluka_threshold"
    " cells maxt_cells maxt_distance",
)


class Kernel(namedtuple("Kernel", "cell column")):
    """A cell formula `cell(u, x, column)` and the reducer `column(pairs)`
    that keeps the pairs of a column at which the cell's max can be
    attained.

    Called as `kernel(us, xs)` on the entries `us` of a matrix column and
    the right-hand side `xs`, it returns the column's cells in row order: it
    reduces the pairs (us[l], xs[l]) once and maps the cell formula down
    the column.  Every entry of the tables `Arithmetic.cells` and
    `Arithmetic.maxt_cells` is called so by `column_scan`; the Godel report
    entry is a plain function that computes its column in one sweep.
    """

    __slots__ = ()

    def __call__(self, us, xs) -> tuple:
        return tuple(map(self.cell, us, xs, repeat(self.column(tuple(zip(us, xs))))))


#: Width of the window below a column's greatest float key within which the
#: Lukasiewicz reducers of `FLOAT` keep pairs: 8 * 2^-53, derived in
#: `top_pairs`.
KEY_WINDOW = 2.0 ** -50

#: Width of the numeric window around strict-comparison ties inside which
#: the minimum/infimum classification is reported as fragile.  It stays a
#: float in every instance of `arithmetic`: it is only compared, and a
#: Fraction compares with a float exactly.
BORDERLINE_EPS = 1e-9


# The cell records are named tuples, not dataclasses: a report builds m n of
# them, and a tuple costs half as much to build as a frozen dataclass.  They
# iterate and compare equal to plain tuples, and `_replace` amends a field.
class GodelCellStats(NamedTuple):
    """Statistics of one Godel (row, column) cell.

    theta may be negative and is kept signed.  `support` records whether the
    cell's matrix entry is positive, `borderline` whether theta and zeta are
    within BORDERLINE_EPS of each other on a supporting cell.
    """

    theta: float
    zeta: float
    support: bool
    borderline: bool


class GoguenCellStats(NamedTuple):
    """Statistics of one Goguen (row, column) cell; theta is kept signed."""

    theta: float
    zeta: float
    support: bool


class LukaCellStats(NamedTuple):
    """Statistic of one Lukasiewicz (row, column) cell."""

    zeta: float


def checked_kind(kind) -> ImplicationKind:
    """`kind` itself; anything but an ImplicationKind raises TypeError."""
    if not isinstance(kind, ImplicationKind):
        raise TypeError(f"kind: expected ImplicationKind, got {kind!r}")
    return kind


def checked_index(index, size: int, name: str, unit: str) -> int:
    """`index` as an int in range(size).  A bool or a value that is not an
    integer raises TypeError, an integer out of range IndexError; both name
    the index `name`, and `unit` is the plural of what it counts."""
    if isinstance(index, bool):
        raise TypeError(f"{name}: expected an integer index, got bool")
    try:
        index = operator.index(index)
    except TypeError:
        raise TypeError(
            f"{name}: expected an integer index, got {type(index).__name__}"
        ) from None
    if not 0 <= index < size:
        raise IndexError(f"{name} {index} out of range for {size} {unit}")
    return index


def front(pairs, rising: bool = True) -> tuple:
    """The Pareto-maximal pairs (g, b) of `pairs`, in their order in `pairs`.

    A pair is maximal when no other pair has both a g at least as high and a
    b at least as high (`rising`) or as low (not `rising`); of equal pairs
    the first is kept.  A max over the pairs of a function that is
    non-decreasing in g, and in b or in -b by the orientation, is attained
    on the front: each pair dropped is dominated by a kept pair whose value
    is at least as high.  The kept pairs stay in their order, so `max` still
    keeps the first of equal values.  It is the column reducer of the
    Goguen report (rising) and of the max-min and max-product cells
    (falling); the Godel report column runs the same sweep itself, and the
    Lukasiewicz kinds keep fewer pairs, by `top_pairs`.

    One stable sort by (g, b) descending, or by (g, -b) for the falling
    orientation, puts every pair after the pairs that dominate it; a sweep
    then keeps each pair whose b beats all b before it.  O(m log m) for m
    pairs.
    """
    if rising:
        order = sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True)
    else:
        order = sorted(range(len(pairs)), key=lambda l: (pairs[l][0], -pairs[l][1]), reverse=True)
    kept = []
    best = None
    for l in order:
        b = pairs[l][1]
        if best is None or (b > best if rising else b < best):
            kept.append(l)
            best = b
    kept.sort()
    return tuple(map(pairs.__getitem__, kept))


def top_pairs(pairs, keys, window) -> tuple:
    """The pairs whose key is within `window` of the greatest of `keys`, in
    their order in `pairs`; keys[l] is the key of pairs[l].  O(m) for m
    pairs, with no sort.

    The Lukasiewicz reducers of `arithmetic` keep a column this way.  In
    exact arithmetic `luka_threshold` depends on its column pair (gl, bl)
    only through the key gl + bl - 1, and `maxluka_threshold` on its pair
    (y, z) only through y - z, non-decreasing in both (ROADMAP item 2): the
    pairs of greatest key attain the column's max, and `EXACT` keeps them
    with a window of zero.  `FLOAT` keeps every pair within KEY_WINDOW =
    2^-50 = 8 eps of the greatest float key, eps = 2^-53.  Why that keeps
    both the float cell and the exact one:

    - Rounding.  A real r with |r| <= 2 rounds to the nearest float by at
      most eps / 2 when |r| < 1 and by at most eps otherwise; min, max,
      (.)^+, halving and every comparison are non-decreasing.  The key of a
      pair is computed as the threshold computes it: P = fl(bl - fl(1 -
      gl)), its term x - v, for the report cells `cells[LUKASIEWICZ]`,
      and P = fl(y - z) for the max-t cells.  It lies within eps / 2 of
      the exact difference p of the two floats it subtracts, since |p| <=
      1.
    - The float min-implication threshold, with u = fl(1 - g) and y = b
      from the cell, v = fl(1 - gl) and x = bl from the pair, is max((u -
      y)^+, min(P^+, Q^+ / 2)) with Q = fl(fl(fl(x - y) + u) - v).  Its
      sums lie in [-1, 1], [-1, 2] and [-2, 2], so Q is within eps / 2 +
      eps + eps = 2.5 eps of p + (u - y), and u - y is the same for every
      pair of the cell.  The float max-Lukasiewicz threshold `maxluka(c, x,
      y, z)` is min(x, max(v^+, Q^+ / 2)) with v = fl(fl(x + c) - 1) the
      cell's own and Q = fl(fl(v + y) - z); its sums lie in [-1, 2] and
      [-2, 2], so Q is within 2 eps of v + p.  Either threshold is
      non-decreasing in (P, Q).
    - The float cell.  Let k be a pair of greatest key P_k.  A pair l is
      dropped only when P_l < fl(P_k - KEY_WINDOW), hence P_l < P_k -
      KEY_WINDOW, since rounding is monotone.  Then p_k - p_l > KEY_WINDOW
      - eps, and Q_k - Q_l > KEY_WINDOW - eps - 2 (2.5 eps) = 2 eps.  So
      P_l < P_k and Q_l < Q_k, the dropped pair's threshold is at most pair
      k's, and the max over the kept pairs is the max over the column.  No threshold
      is -0.0 ((.)^+ returns +0.0 for a zero, and the max-Lukasiewicz cap x
      is the cell's own for every pair), so equal values are equal bits:
      the float cell is the full scan's, bit for bit.
    - The exact cell.  `oracle.exact_maxt_distance` evaluates the exact
      max-Lukasiewicz threshold at the decimal readings Y, Z of the kept
      pairs.  Each reading lies within eps / 2 of its float, so the exact
      key D = Y - Z lies within 1.5 eps of P.  A pair e of greatest D has
      P_e >= D_e - 1.5 eps >= D_k - 1.5 eps >= P_k - 3 eps > P_k -
      KEY_WINDOW: it is kept, and the exact max over the kept pairs is the
      full exact scan's.  For the min-implication key, two readings and
      two roundings put the exact gl + bl - 1 within 2 eps of P, so its
      exact argmax has P_e >= P_k - 4 eps and is kept too.
    """
    floor = max(keys) - window
    return tuple([pair for pair, key in zip(pairs, keys) if key >= floor])


def column_scan(matrix, rhs, cells) -> tuple:
    """Rows of cells, for any number type: cell (j, i) of column i.

    `cells(us, xs)` is a table entry, `Arithmetic.cells` or
    `Arithmetic.maxt_cells`, which returns the cells of a column from its
    matrix entries `us` and the right-hand side `xs`, in row order; the
    columns are transposed to rows.

    Every cell formula is a max over its column of thresholds that are
    monotone in the pair, so a column needs only its pairs that can attain
    it.  A `Kernel` reduces each column once, to the `front` of the pairs
    in the orientation in which its thresholds rise (Goguen, max-min and
    max-product) or to `top_pairs` (the Lukasiewicz kinds), and maps its
    cell formula down it: O(m log m), or O(m) for `top_pairs`, per column
    plus O(m k), with k the number of kept pairs (k = 1 for nearly every
    Lukasiewicz column), in place of O(m^2).  The Godel report column costs
    O(m log m) for its two sorts plus about 2 m threshold evaluations, by
    one sweep (`fuzzrel.report` states why).  The kept pairs stay in row
    order: the cells keep the first of equal values, so the order decides
    which of 0.0 and -0.0 a cell reports.
    """
    return tuple(zip(*[cells(column, rhs) for column in zip(*matrix)]))


def _width_check(name: str, matrix: Matrix, vec: Vector) -> None:
    if not matrix or len(matrix[0]) != len(vec):
        raise DimensionMismatch(
            f"{name}: matrix has {len(matrix[0]) if matrix else 0} columns, "
            f"vector has {len(vec)} entries"
        )


def arithmetic(zero, one, window) -> Arithmetic:
    """Bind the shared formulas to the number type of `zero` and `one`.

    Every literal the formulas need is derived from these two once, here, so
    the functions never mix number types: given operands of that type, each
    returns a value of that type.  `window`, of the same type, is the width
    within which the Lukasiewicz reducers keep pairs below a column's
    greatest key: KEY_WINDOW in floats, zero in exact arithmetic (see
    `top_pairs`).  Each kind-dependent formula is a table with one entry per
    ImplicationKind, looked up once per call.
    """
    # The scalar formulas run m n k times per system, so they are written
    # without builtin calls: a two-argument min(a, b) as `b if b < a else a`
    # and max(a, b) as `b if b > a else a`, the builtins' own tie rules (the
    # first argument is kept unless the second is strictly smaller or
    # larger), and a max over a column as a loop that replaces its best only
    # on a strictly greater value, so the first of equal values still wins.
    # Measured with timeit, min(a, b) against the conditional costs 219/66
    # ns on Python 3.10, 229/31 ns on 3.11, 302/27 ns on 3.12 and 68/33 ns
    # on 3.13; max(<generator>) over 5 floats costs 846 ns on 3.11.  For
    # the same reason they write a positive part as `x if x > zero else
    # zero`, the body of `pos`, in place of a call to it.
    two = one + one
    godel, goguen, luka = ImplicationKind

    def pos(x):
        """Positive part, max(x, 0)."""
        return x if x > zero else zero

    # The scalar formulas of each kind, also read directly by the oracle's
    # exact membership tests, which evaluate them term by term.  Every t-norm
    # is non-decreasing in both arguments; every residuum is non-increasing
    # in x and non-decreasing in y.
    t_norms = {
        godel: lambda x, y: x if x < y else y,
        goguen: lambda x, y: x * y,
        luka: lambda x, y: pos(x + y - one),
    }
    # The branch x > y implies x > 0, so the Goguen quotient never divides
    # by zero.
    residua = {
        godel: lambda x, y: one if x <= y else y,
        goguen: lambda x, y: one if x <= y else y / x,
        luka: lambda x, y: one if x <= y else one - x + y,
    }

    def t_norm(kind: ImplicationKind, x, y):
        """Apply the t-norm selected by `kind`."""
        return t_norms[checked_kind(kind)](x, y)

    def residuum(kind: ImplicationKind, x, y):
        """Apply the residual implicator selected by `kind`."""
        return residua[checked_kind(kind)](x, y)

    def max_t_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
        """Row-wise max of t-norms: out[i] = max_j T(matrix[i][j], vec[j])."""
        _width_check("max_t_compose", matrix, vec)
        t = t_norms[checked_kind(kind)]
        return tuple(max(map(t, row, vec)) for row in matrix)

    def min_impl_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
        """Row-wise min of residua: out[j] = min_i (matrix[j][i] -> vec[i])."""
        _width_check("min_impl_compose", matrix, vec)
        r = residua[checked_kind(kind)]
        return tuple(min(map(r, row, vec)) for row in matrix)

    def solve_and_recompose(gamma: Matrix, kind: ImplicationKind, xi: Vector):
        """(x, min_impl_compose(gamma, kind, x)) with x = max_t_compose(gamma^t,
        kind, xi); see `fuzzrel.operators.solve_and_recompose`."""
        x = max_t_compose(transpose(gamma), kind, xi)
        return x, min_impl_compose(gamma, kind, x)

    def maxt_closure(a: Matrix, kind: ImplicationKind, c: Vector) -> Vector:
        """max_t_compose(a, kind, min_impl_compose(a^t, kind, c)); see
        `fuzzrel.operators.maxt_closure`."""
        return max_t_compose(a, kind, min_impl_compose(transpose(a), kind, c))

    def shifted_bounds(vec: Vector, delta) -> tuple[Vector, Vector]:
        """Componentwise lower/upper shift of `vec` by `delta`, clipped to [0, 1].

        lower[i] = (vec[i] - delta)^+ and upper[i] = min(vec[i] + delta, 1), so
        for any c in the unit cube: ||vec - c||_inf <= delta iff lower <= c <= upper.
        """
        lower = tuple([w if (w := v - delta) > zero else zero for v in vec])
        upper = tuple([one if one < (w := v + delta) else w for v in vec])
        return lower, upper

    def godel_threshold(x, y, z):
        """Least delta with min(y, (x - delta)^+) <= min(z + delta, 1).

        Equals min((x - z)^+ / 2, (y - z)^+).
        """
        a, b = x - z, y - z
        a = (a if a > zero else zero) / two
        b = b if b > zero else zero
        return b if b < a else a

    def goguen_threshold(u, x, y, z):
        """Least delta with y * (x - delta)^+ / u <= min(z + delta, 1).

        Defined as 0 when u = 0 or y = 0; otherwise

            max((x - u/y)^+, min((x*y - u*z)^+ / (u + y), 1 - z)).

        The zero cases make the division total; no epsilon-regularisation is
        applied.
        """
        if u == zero or y == zero:
            return zero
        a, b = x * y - u * z, one - z
        a = (a if a > zero else zero) / (u + y)
        a = b if b < a else a
        b = x - u / y
        b = b if b > zero else zero
        return a if a > b else b

    def luka_threshold(u, v, x, y):
        """Least delta with ((x - delta)^+ - v)^+ <= min(y + delta, 1) - u.

        Equals max((u - y)^+, min((x - v)^+, (x - y + u - v)^+ / 2)), evaluated
        in exactly this expanded form so float behaviour matches hand-checked
        values.
        """
        a, b = x - v, x - y + u - v
        a = a if a > zero else zero
        b = (b if b > zero else zero) / two
        a = b if b < a else a
        b = u - y
        b = b if b > zero else zero
        return a if a > b else b

    def maxprod_ratio(u, x, y, z):
        """Quotient term of the product threshold: (x*y - u*z)^+ / (u + y), or x
        when u = 0."""
        if u == zero:
            return x
        r = x * y - u * z
        return (r if r > zero else zero) / (u + y)

    def maxprod_threshold(u, x, y, z):
        """Scalar threshold for max-product systems:
        max((x - u)^+, min(maxprod_ratio(u, x, y, z), (y - z)^+))."""
        a, b = maxprod_ratio(u, x, y, z), y - z
        b = b if b > zero else zero
        a = b if b < a else a
        b = x - u
        b = b if b > zero else zero
        return a if a > b else b

    def maxluka_threshold(u, x, y, z):
        """Scalar threshold for max-Lukasiewicz systems:
        min(x, max(v^+, (v + y - z)^+ / 2)) with v = x + u - 1."""
        v = x + u - one
        a, b = v if v > zero else zero, v + y - z
        b = (b if b > zero else zero) / two
        b = b if b > a else a
        return b if b < x else x

    def luka_column(pairs):
        """The pairs (gl, bl) of a min-implication Lukasiewicz column whose
        key bl - (1 - gl) is within `window` of the greatest (`top_pairs`)."""
        return top_pairs(pairs, [bl - (one - gl) for gl, bl in pairs], window)

    def maxluka_column(pairs):
        """The pairs (y, z) of a max-Lukasiewicz column whose key y - z is
        within `window` of the greatest (`top_pairs`)."""
        return top_pairs(pairs, [y - z for y, z in pairs], window)

    # The cells of a min-implication report; `fuzzrel.report` states their
    # formulas and why these evaluations of them are the full scan's.
    def godel_column(us, xs):
        """The Godel cells of a column, from its gamma entries `us` and the
        right-hand side `xs`, in row order.

        theta: a stable sort of the pairs by (g, b) descending puts every
        pair l with gl >= g before or level with the cell's own; the running
        max of bl down that order, of equal values the one of the first row,
        less g, is theta.  The pairs whose b beats every b before them are
        the column's front, g falling and b rising.  zeta: along the front A
        = (bl - b)^+ / 2 never falls and B = (gl - b)^+ never rises, so a
        threshold min(A, B) is A before the first pair with A >= B and B
        from it on, and zeta = max(A before it, B at it).  The walk keeps
        that crossing between `before` and `after`, the stack `below` holding
        the front before `before` and `above` the front after `after`, and
        moves it for each right-hand side value in increasing order, testing
        A >= B at every step.  The sentinels (two, zero) below and (zero,
        two) above the front have A >= B false and true and contribute a
        zero A and B.
        """
        pairs = tuple(zip(us, xs))
        thetas = [None] * len(pairs)
        below = [(two, zero)]
        best = first = None
        for l in sorted(range(len(pairs)), key=pairs.__getitem__, reverse=True):
            gl, bl = pairs[l]
            if best is None or bl > best:
                best, first = bl, l
                below.append(pairs[l])
            elif bl == best and l < first:
                best, first = bl, l
            thetas[l] = best - gl
        zetas = {}
        before, after, above = below.pop(), (zero, two), []
        for b in sorted(set(xs)):
            while True:
                gl, bl = before
                a = bl - b
                a = (a if a > zero else zero) / two
                # A < B at `before`, with B = (gl - b)^+ and A >= 0
                if a < gl - b:
                    gl, bl = after
                    c = gl - b
                    c = c if c > zero else zero
                    t = bl - b
                    if (t if t > zero else zero) / two >= c:
                        break
                    below.append(before)
                    before, after = after, above.pop()
                else:
                    above.append(after)
                    before, after = below.pop(), before
            zetas[b] = c if c > a else a
        cells = []
        for g, b, theta in zip(us, xs, thetas):
            zeta = zetas[b]
            support = g > zero
            cells.append(GodelCellStats(
                theta, zeta, support, support and abs(theta - zeta) <= BORDERLINE_EPS
            ))
        return tuple(cells)

    # Cell (j, i) of a Goguen or Lukasiewicz report, from g = gamma[j][i], b
    # = beta[j] and the pairs (gamma[l][i], beta[l]) of column i that the
    # kind's reducer keeps.
    def goguen_stats(g, b, column):
        theta = ratio = None
        for gl, bl in column:
            if gl > zero:
                t = bl * gl - g * b
                t = (t if t > zero else zero) / (g + gl)
                if ratio is None or t > ratio:
                    ratio = t
                if g <= gl:
                    t = bl - g / gl
                    if theta is None or t > theta:
                        theta = t
        if g > zero:
            if theta is None:
                # A supporting cell always dominates its own row, so the
                # empty-set convention theta = 0 is only ever reachable on
                # non-supporting cells.
                raise InvariantViolation(f"supporting cell with entry {g!r} dominates no row")
            zeta = one - b
            zeta = ratio if ratio < zeta else zeta
            floor = theta if theta > zero else zero
            return GoguenCellStats(theta, zeta if zeta > floor else floor, True)
        return GoguenCellStats(zero if theta is None else theta, zero, False)

    def luka_stats(g, b, column):
        u = one - g
        zeta = None
        for gl, bl in column:
            t = luka_threshold(u, one - gl, bl, b)
            if zeta is None or t > zeta:
                zeta = t
        return LukaCellStats(zeta)

    cells = {
        godel: godel_column,
        goguen: Kernel(goguen_stats, front),
        luka: Kernel(luka_stats, luka_column),
    }

    # Cell (i, j) of a max-t distance, from u = a[i][j], x = b[i] and the
    # pairs (a[k][j], b[k]) of column j that the kind's reducer keeps.  Every
    # threshold here is non-decreasing in a[k][j] and non-increasing in b[k],
    # so the front of the pairs that keeps high a and low b holds the max;
    # the max-Lukasiewicz threshold depends on the pair only through
    # a[k][j] - b[k], so the pairs of greatest difference hold it.  See
    # `fuzzrel.report.maxt_distance`; the oracle's `exact_maxt_distance`
    # scans these cells in floats and then re-evaluates a few of them in
    # Fractions.
    def godel_maxt_cell(u, x, column):
        best = x - u
        best = best if best > zero else zero
        for y, z in column:
            t = godel_threshold(x, y, z)
            if t > best:
                best = t
        return best

    def goguen_maxt_cell(u, x, column):
        best = None
        for y, z in column:
            t = maxprod_threshold(u, x, y, z)
            if best is None or t > best:
                best = t
        return best

    def luka_maxt_cell(u, x, column):
        complement = one - u
        best = None
        for y, z in column:
            t = maxluka_threshold(complement, x, y, z)
            if best is None or t > best:
                best = t
        return best

    falling = partial(front, rising=False)
    maxt_cells = {
        godel: Kernel(godel_maxt_cell, falling),
        goguen: Kernel(goguen_maxt_cell, falling),
        luka: Kernel(luka_maxt_cell, maxluka_column),
    }

    def maxt_distance(a: Matrix, b: Vector, kind: ImplicationKind):
        """Chebyshev distance of `b` to the consistent right-hand sides of the
        max-t system with matrix `a` (see `fuzzrel.report.maxt_distance`)."""
        kernel = maxt_cells[checked_kind(kind)]
        return max(zero, *map(min, column_scan(a, b, kernel)))

    scope = locals()
    return Arithmetic(*(scope[name] for name in Arithmetic._fields))


FLOAT = arithmetic(0.0, 1.0, KEY_WINDOW)
pos = FLOAT.pos
t_norm = FLOAT.t_norm
residuum = FLOAT.residuum
max_t_compose = FLOAT.max_t_compose
min_impl_compose = FLOAT.min_impl_compose
shifted_bounds = FLOAT.shifted_bounds


def unit(value, name: str = "value") -> float:
    """Validate a scalar as a unit-interval value.

    Rejects NaN and anything further than CLAMP_EPS outside [0, 1]; values
    within the clamp window are snapped onto the interval.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name}: expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name}: integer too large to be a unit-interval value") from None
    if math.isnan(x):
        raise DomainError(f"{name}: NaN is not a unit-interval value")
    if x <= 0.0:  # also turns -0.0 into 0.0
        if x < -CLAMP_EPS:
            raise DomainError(f"{name}: {x!r} is outside [0, 1]")
        return 0.0
    if x > 1.0:
        if x > 1.0 + CLAMP_EPS:
            raise DomainError(f"{name}: {x!r} is outside [0, 1]")
        return 1.0
    return x


def _entries(values, name: str, row: int | None = None):
    """enumerate(values); a value that is not a sequence is a DomainError
    naming `name`, or `name[row]` for a row of a matrix."""
    try:
        return enumerate(values)
    except TypeError:
        where = name if row is None else f"{name}[{row}]"
        raise DomainError(f"{where}: expected an array, got {type(values).__name__}") from None


_FLOATS = {float}


def _kept(values) -> bool:
    """Whether `unit` would return every entry of the list or tuple `values`
    unchanged: each entry is exactly a float, none is NaN, none is negative
    or -0.0, and none exceeds 1.

    min and max skip a NaN that is not first, so NaN is found by the sum,
    which is finite for floats in [0, 1].  A row whose least entry is not
    positive has its signs read: that rejects -0.0, which `0.0 <= lo` would
    let through, and every negative entry.  An empty row has no float type.
    """
    if {*map(type, values)} != _FLOATS:
        return False
    lo = min(values)
    total = sum(values)
    return (max(values) <= 1.0 and total == total
            and (lo > 0.0 or min(map(math.copysign, repeat(1.0), values)) > 0.0))


def _unit_row(values, name: str, row: int | None = None) -> Vector:
    """`values` validated as `unit_vector` does, its entries named
    `name[j]`, or `name[row][j]` for a row of a matrix; the empty tuple for
    an empty row."""
    if (type(values) is tuple or type(values) is list) and _kept(values):
        return tuple(values)
    where = name if row is None else f"{name}[{row}]"
    return tuple(unit(v, f"{where}[{j}]") for j, v in _entries(values, name, row))


def unit_vector(values, name: str = "vector") -> Vector:
    """Validate a non-empty sequence of unit-interval values.

    A list or tuple whose entries are all plain floats in [0, 1] is checked
    in bulk and kept as a tuple, with no call per entry.  It is exactly what
    `unit` would return entry by entry, because the bulk check keeps only
    rows that `unit` returns unchanged: no NaN (which min and max would
    skip), no -0.0 (which `unit` turns into 0.0 and `>= 0.0` would pass), no
    float subclass, int or bool (which `unit` converts to float), and
    nothing outside [0, 1] (which `unit` clamps or rejects).  Any other
    sequence, an iterator included, is read once, entry by entry, by `unit`,
    so its clamping and its errors are unchanged.
    """
    entries = _unit_row(values, name)
    if not entries:
        raise DomainError(f"{name}: must have at least one entry")
    return entries


def unit_matrix(rows, name: str = "matrix") -> Matrix:
    """Validate a non-empty rectangular grid of unit-interval values.

    Each row is validated as by `unit_vector`: a list or tuple of plain
    floats in [0, 1], with no NaN and no -0.0, is kept in bulk, any other
    row goes entry by entry through `unit`.  Rows and the sequence of rows
    are read once.  Errors come in the per-entry order: the first bad entry
    in row-major order, then rectangularity.
    """
    grid = tuple(_unit_row(row, name, i) for i, row in _entries(rows, name))
    if not grid or not grid[0]:
        raise DomainError(f"{name}: must have at least one row and one column")
    width = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != width:
            raise DimensionMismatch(
                f"{name}: row {i} has {len(row)} entries, expected {width}"
            )
    return grid


def unit_system(system, matrix: str, vector: str) -> None:
    """Validate a frozen system dataclass in place: its field `matrix` by
    `unit_matrix`, its field `vector` by `unit_vector` with one entry per
    matrix row, and its `kind` as an ImplicationKind."""
    rows = unit_matrix(getattr(system, matrix), matrix)
    rhs = unit_vector(getattr(system, vector), vector)
    if len(rows) != len(rhs):
        raise DimensionMismatch(
            f"{matrix} has {len(rows)} rows but {vector} has {len(rhs)} entries"
        )
    checked_kind(system.kind)
    object.__setattr__(system, matrix, rows)
    object.__setattr__(system, vector, rhs)


def sup_distance(u: Vector, v: Vector) -> float:
    """Sup-norm distance max_i |u[i] - v[i]|."""
    if len(u) != len(v):
        raise DimensionMismatch(f"sup_distance: lengths {len(u)} and {len(v)} differ")
    return max(abs(a - b) for a, b in zip(u, v))


def leq(u: Vector, v: Vector, slack: float = 0.0) -> bool:
    """Componentwise u <= v, optionally allowing `slack` of float drift.

    Exact callers pass a slack of their own number type; the float default
    would round a Fraction comparison.
    """
    if len(u) != len(v):
        raise DimensionMismatch(f"leq: lengths {len(u)} and {len(v)} differ")
    return all(a <= b + slack for a, b in zip(u, v))
