"""The two families of fuzzy relational systems and their closure maps.

A `FuzzySystem` pairs a matrix gamma (m rows, n columns) with a right-hand
side beta (m entries) under one implication kind; a solution is any vector x
in the unit cube with

    min_i (gamma[j][i] -> x[i]) = beta[j]   for every row j.

A `MaxTSystem`, the max-t-norm family used for cross-validation, pairs a
matrix a (n rows, m columns) with a right-hand side b (n entries); a
solution is any x with

    max_j T(a[i][j], x[j]) = b[i]   for every row i,

T being the t-norm of the system's kind.

`potential_solution` builds the canonical candidate

    epsilon = max_t_compose(gamma^t, kind, beta),

which is the greatest solution whenever any solution exists.
`solve_and_recompose` is the one step behind consistency and approximation:
it solves for a right-hand side xi the same way, x = max_t_compose(gamma^t,
kind, xi), and recomposes x into the right-hand side it actually realises.
`check_consistency` runs it on beta and measures the sup-norm residual.

`closure` is the recomposed half of that step, the map that sends a
candidate right-hand side xi to the right-hand side realised by the best
attempt at solving for it:

    closure(xi) = min_impl_compose(gamma, kind, max_t_compose(gamma^t, kind, xi)).

It is inflationary (xi <= closure(xi)), increasing and idempotent, and its
fixed points are exactly the consistent right-hand sides.  `maxt_closure` is
the analogous map for a `MaxTSystem`'s matrix, used for cross-validation.

A system is prepared when it is built: its entries, shapes and kind are
validated once, and its matrix's transpose is kept as the field `columns`,
which is outside `__init__`, `repr`, equality and hashing.  Nothing
downstream checks or lays the system out again.  The closure steps here
run the kind's composition loops on `gamma` and `columns` through
`FLOAT.solve_and_recompose`.

Each system keeps the front of each column as `fronts`, each built on its
first read and kept (`fuzzrel.algebra.Fronts`), so a column's front is
built at most once per system, and only if some path reads it.  A
`FuzzySystem` keeps the rising `front` of each column's pairs
(gamma[l][i], beta[l]).  Its readers are the Goguen report column, which
reads every column's, and `checked_cell` its own column's (the Godel and
Lukasiewicz entries read none); the oracle's `tolerance_membership`,
which runs `FLOAT.membership` on `gamma` and `fronts` about 33 times per
bisection; and the interval pass of `exact_membership`.  The last two
read only the columns their rows reach.  The closure steps and the
approximations build none.  A `MaxTSystem` keeps the falling front of
each column's pairs (a[k][j], b[k]): the interval pass of
`exact_maxt_membership` reads them, and so do the max-min and max-product
cells, through the system's `kept` pairs.  Each system also keeps
`readings`, its values read as the Fractions of their shortest decimals,
each on its first read: the exact paths of `fuzzrel.oracle` read every
value through it, so a system parses each distinct value once.

Every scan of a system's cells reads `columns`, or the pairs kept from
them: `fuzzrel.report.distance_report` and `checked_cell`,
`MaxTSystem.float_cells` and `fuzzrel.oracle.exact_maxt_distance`.  A
`MaxTSystem` keeps its float max-t cells, `float_cells`, scanned on first
use over its `kept` pairs: `fuzzrel.report.maxt_distance` and
`exact_maxt_distance` share that scan, and `exact_maxt_distance` reads
those pairs again at its pair level.  `kept` is the one place that
reduces a max-t column: by kind, to the falling `fronts` for max-min and
max-product, and to the pairs of greatest key, by
`fuzzrel.algebra.top_pairs`, for max-Lukasiewicz.  `maxt_closure`, which
takes a bare matrix, checks its operands and its kind itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import sub

from .algebra import (
    FLOAT,
    KEY_WINDOW,
    Fronts,
    ImplicationKind,
    Matrix,
    Vector,
    _dict_init,
    checked_kind,
    checked_tolerance,
    sup_distance,
    top_pairs,
    transpose,
    unit_matrix,
    unit_system,
    unit_vector,
)
from .errors import DimensionMismatch

#: Tolerance for equality of computed vectors (consistency residuals,
#: idempotence checks).  The arithmetic behind any component is a handful of
#: additions and multiplications, so 1e-9 dominates accumulated float error
#: while still rejecting genuine mismatches.
DEFAULT_TOL = 1e-9


class _cached:
    """A property computed on its first read and kept, as by
    `functools.cached_property`, without its lock: a non-data descriptor
    whose first read calls `func` on the instance and stores the value in
    the instance's `__dict__` under the property's name, where every later
    read finds it before the descriptor.  On Python 3.10 and 3.11
    `cached_property` takes a lock on every first read: a first read of a
    trivial property took 1.0 us by it and takes 0.23 us here (timeit,
    best of 7, Python 3.11.7, shared 2-core host), and a fresh system's
    Goguen report makes its first read of `fronts`.  Two threads that read a
    property at once may each compute it; both values are equal, and the
    instance keeps one.  Values, pickles and copies are those of
    `cached_property`, which keeps its values in `__dict__` too."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _readings(system) -> dict:
    """The system's memo of exact readings: each value read as the Fraction
    of its shortest round-tripping decimal, on its first read, and kept
    (`fuzzrel.oracle`).  The exact paths of the oracle read a system's
    entries through it, so each distinct value is parsed once per
    system.  The memo comes from the oracle on the system's first exact
    read, so that a process that runs no exact path loads neither
    `fractions` nor `decimal`."""
    from .oracle import _Readings

    return _Readings()


@_dict_init
@dataclass(frozen=True, init=False)
class FuzzySystem:
    """A min-implication system: matrix `gamma`, right-hand side `beta`, kind."""

    gamma: Matrix
    beta: Vector
    kind: ImplicationKind
    #: gamma^t, computed once when the system is built.
    columns: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unit_system(self, "gamma", "beta")
        object.__setattr__(self, "columns", transpose(self.gamma))

    @_cached
    def fronts(self) -> Fronts:
        """Per column i, the rising `front` of its pairs (gamma[l][i],
        beta[l]), in row order.  Each is built on its first read and kept
        (`Fronts`): the Goguen report column, `checked_cell`, the membership
        test of the bisection oracle and the interval pass of
        `exact_membership` read the columns they reach.  Every column's
        front sorts the one order of beta, `beta_order`, by the column's
        own entries."""
        return Fronts(self.columns, self.beta, True)

    readings = _cached(_readings)

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def n(self) -> int:
        return len(self.gamma[0])


@_dict_init
@dataclass(frozen=True, init=False)
class MaxTSystem:
    """A max-t-norm system: matrix `a`, right-hand side `b`, kind."""

    a: Matrix
    b: Vector
    kind: ImplicationKind
    #: a^t, computed once when the system is built.
    columns: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unit_system(self, "a", "b")
        object.__setattr__(self, "columns", transpose(self.a))

    @_cached
    def fronts(self) -> Fronts:
        """Per column j, the falling `front` of its pairs (a[k][j], b[k]):
        the pairs that no other pair beats with an a at least as high and a
        b at least as low, in row order.  Each is built on its first read
        and kept (`Fronts`).  Every residuum is non-increasing in a and
        non-decreasing in b, so a min of residua over a column, the inner
        level of `maxt_closure`, is attained on its front.  The interval
        pass of `fuzzrel.oracle.exact_maxt_membership` reads the columns its
        rows reach, and `kept` reads them all for the max-min and
        max-product cells."""
        return Fronts(self.columns, self.b, False)

    readings = _cached(_readings)

    @_cached
    def kept(self) -> tuple:
        """Per column j, the pairs (a[k][j], b[k]) at which the max of a
        max-t cell of column j can be attained, in row order, computed on
        first use and kept.  This is the one place that reduces a max-t
        column.  The max-min and max-product thresholds are non-decreasing
        in a[k][j] and non-increasing in b[k], so the kept pairs are the
        falling `fronts`; the max-Lukasiewicz threshold depends on the pair
        only through the key a[k][j] - b[k], and does not decrease with it,
        so they are the pairs whose key lies within KEY_WINDOW of the
        column's greatest (`top_pairs`, which derives why that window
        keeps the float cell and the exact one).  The float cells and the
        pair level of `exact_maxt_distance` read them."""
        if self.kind is not ImplicationKind.LUKASIEWICZ:
            return tuple(map(self.fronts.__getitem__, range(self.m)))
        b = self.b
        return tuple(
            [top_pairs(tuple(zip(us, b)), [*map(sub, us, b)], KEY_WINDOW) for us in self.columns]
        )

    @_cached
    def float_cells(self) -> Matrix:
        """The float max-t cells, row by row: cell (i, j) is the formula
        FLOAT.maxt_cells[kind](a[i][j], b[i], kept[j]) over its column's
        `kept` pairs, computed on first use and kept, so that
        `maxt_distance` and `exact_maxt_distance` share one scan."""
        cell, kept = FLOAT.maxt_cells[self.kind], self.kept
        return tuple([tuple(map(cell, row, repeat(x), kept)) for row, x in zip(self.a, self.b)])

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.a[0])


@_dict_init
@dataclass(frozen=True, init=False)
class ConsistencyResult:
    """Outcome of a consistency check.

    `epsilon` is always populated: it is the greatest solution when the
    system is consistent and still the canonical candidate otherwise, so
    downstream code never has to recompute it.
    """

    consistent: bool
    epsilon: Vector
    residual: float


def potential_solution(system: FuzzySystem) -> Vector:
    """Greatest-solution candidate epsilon = max_t_compose(gamma^t, kind, beta)."""
    return FLOAT.max_t_rows[system.kind](system.columns, system.beta)


def solve_and_recompose(system: FuzzySystem, xi: Vector) -> tuple[Vector, Vector]:
    """(x, closure(xi)): the greatest candidate solution x = max_t_compose(
    gamma^t, kind, xi) for right-hand side `xi`, and the right-hand side
    min_impl_compose(gamma, kind, x) it realises.  Only the length of `xi`
    is checked: the system's shapes and kind were checked when it was
    built, and its entries are the caller's to validate."""
    if len(xi) != system.m:
        raise DimensionMismatch(f"xi has {len(xi)} entries, expected {system.m}")
    return FLOAT.solve_and_recompose(system.gamma, system.columns, system.kind, xi)


def check_consistency(system: FuzzySystem, tol: float = DEFAULT_TOL) -> ConsistencyResult:
    """Decide whether the system is solvable.

    Equivalent to testing closure(beta) == beta: the system is consistent
    iff recomposing the candidate epsilon reproduces beta, up to `tol` in
    sup norm.  The residual is reported so callers can re-judge borderline
    inputs with their own threshold.  A `tol` that is not a finite
    non-negative number, a bool included, raises ValueError.
    """
    checked_tolerance(tol, "tol")
    epsilon, recomposed = solve_and_recompose(system, system.beta)
    residual = sup_distance(recomposed, system.beta)
    return ConsistencyResult(residual <= tol, epsilon, residual)


def closure(system: FuzzySystem, xi: Vector) -> Vector:
    """Project a candidate right-hand side onto the consistent set from above.

    closure(xi)[j] = min_i (gamma[j][i] -> max_l T(gamma[l][i], xi[l])).
    Inflationary, increasing and idempotent; closure(xi) is always a
    consistent right-hand side.  Each entry of `xi` is validated like an
    entry of beta.
    """
    return solve_and_recompose(system, unit_vector(xi, "xi"))[1]


def maxt_closure(a: Matrix, kind: ImplicationKind, c: Vector) -> Vector:
    """Closure map for max-t-norm systems with matrix `a`.

    maxt_closure(c) = max_t_compose(a, kind, min_impl_compose(a^t, kind, c)).
    Fixed points are exactly the right-hand sides of consistent max-t systems.
    Each entry of `a` and `c` is validated like an entry of a system, then
    the length of `c` and the kind are checked.
    """
    a = unit_matrix(a, "a")
    c = unit_vector(c, "c")
    if len(c) != len(a):
        raise DimensionMismatch(f"c has {len(c)} entries, expected {len(a)}")
    return FLOAT.maxt_closure(a, checked_kind(kind), c)
