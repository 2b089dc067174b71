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
the closed sup-norm ball of radius delta around v inside the unit cube.  An
`Arithmetic` also has each side alone, `lower_shift` and `upper_shift`, of
which `shifted_bounds` is the pair, for callers that read one side only,
and the shift of one value, `shift_down` and `shift_up`, which those two
map over a vector, for callers that shift a value where they read it.

These formulas, together with every scalar threshold and every cell
formula of both system families, are written once in `arithmetic`, over the
one of a number type (no numeric literal appears inside it).  The
kind-dependent ones are tables with one entry per kind, looked up once per
call: the scalar t-norms and residua; each composition, a loop over the
rows with the kind's t-norm or residuum inline; the membership test of the
bisection oracle, `Arithmetic.membership`, a loop of the same kind over a
system's rows, which computes the solution entry of a column from the
column's front when a row first reads it, so that a column no row reaches
is never reduced, and shifts beta by delta where it reads it; the cells
of the min-implication reports, `Arithmetic.cells`, whose entry returns
the cells of a column and whose records `GodelCellStats`,
`GoguenCellStats` and `LukaCellStats` are defined here; the max-t cells,
`Arithmetic.maxt_cells`, whose entry is the formula `cell(u, x, pairs)` of
one cell over the pairs of its column; and the row rules of the reports,
`Arithmetic.row_rules`, whose entry turns the cells of one row into its
`RowDiagnostics`, defined here too.  `fuzzrel.report` aggregates the rows,
on either instance, into a report.
`column_scan` is the one loop over the cells of a report.  Each column
reduces its pairs once, by `front` or, for the Lukasiewicz kind,
`top_pairs`.  Every front of a system sorts one order of its right-hand
side, `beta_order`, computed once per system, by the column's own entries.
A report entry, `godel_column`, `goguen_column` or `luka_column`, takes a
system's right-hand side and the system, `prepared`, whose column fronts
the Goguen entry reads as `prepared.fronts`; it computes what its columns
share (for Godel the order and the right-hand side's levels) and returns
the function of one column and its index: one sweep down the column with
its threshold written out, which returns plain tuples of each cell's
fields; a row builds their records on the first read of its `cells`
(`RowDiagnostics`).  The max-t cells are reduced in one place,
`fuzzrel.operators.MaxTSystem.kept`, which keeps the pairs of each column
that can attain its cells' max; the float cells and the oracle's exact
max-t distance read them.  `FLOAT` binds the formulas to floats
and supplies this module's public functions and the cells and row rules
of `fuzzrel.report`; the oracle binds them to `Fraction` to run the same
formulas in exact rational arithmetic.  A float operand that meets a
Fraction silently rounds the result to a float, so exact callers pass
only values of the instance's own type, such as its `zero` as a slack.

Which functions check what.  The public functions of this module check
their operands: `max_t_compose` and `min_impl_compose` validate every
entry like an entry of a system (`unit_matrix` / `unit_vector` rules,
`DomainError`), then the shapes (`DimensionMismatch`), then the kind
(`TypeError`); `t_norm` and `residuum` validate `x` and `y` by `unit`,
then check the kind; `shifted_bounds` validates its vector by the
`unit_vector` rules, its entries named `vector[j]`, and `delta` by `unit`.
A system is checked when it is built, by `unit_system`, which runs
`unit_matrix`, `unit_vector`, the row count and `checked_kind`, and
nothing else.  `unit_matrix` and `unit_vector`, like the compositions'
operands, go through `_unit_grid` and `_unit_row`: one Python loop over
all the entries of a grid, or of a row, `_kept`, keeps a list or tuple of
plain floats in [0, 1] as it is; anything else goes row by row and, in a
row that `_kept` does not keep, entry by entry through `unit`, so values
and errors are those of one `unit` call per entry.  `checked_tolerance`
is the one guard of the tolerance and slack arguments of
`fuzzrel.operators`, `fuzzrel.approximation` and `fuzzrel.oracle`.  An
`Arithmetic` checks nothing: its tables,
`membership` and `row_rules` among them, `solve_and_recompose`,
`maxt_closure`, the shifts, the thresholds, the cells and
`column_scan` are for a system validated when it was built, whose
transpose is kept as `columns` and whose column fronts as `fronts` (see
`fuzzrel.operators`), or for operands of the same guarantees.

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
from collections.abc import Mapping, Set
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from itertools import chain, repeat
from typing import NamedTuple

from .errors import DimensionMismatch, DomainError, InvariantViolation

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]

# Values within CLAMP_EPS of [0, 1] are clamped onto the interval; anything
# further out is rejected.  Decimal inputs survive round-tripping through
# arithmetic that drifts by a few ulps without poisoning invariants.
CLAMP_EPS = 1e-12


class ImplicationKind(Enum):
    """A t-norm together with its residual implicator.

    A member hashes by identity, as it compares: every per-kind table is a
    dict keyed by the members, and Enum's own `__hash__`, a Python-level
    hash of the member's name, made a lookup cost 125 ns against 20 ns
    (timeit of `table[kind]`, Python 3.11, shared 2-core host).  A member
    survives pickle and copy as itself, and `ImplicationKind(value)` finds
    it by its value, so no equal member with another hash can arise.
    """

    GODEL = "godel"
    GOGUEN = "goguen"
    LUKASIEWICZ = "lukasiewicz"

    __hash__ = object.__hash__


def transpose(matrix: Matrix) -> Matrix:
    return tuple(zip(*matrix))


#: The shared formulas bound to one number type; built by `arithmetic`.
Arithmetic = namedtuple(
    "Arithmetic",
    "zero pos t_norms residua max_t_rows min_impl_rows membership solve_and_recompose"
    " maxt_closure shift_down shift_up lower_shift upper_shift shifted_bounds godel_threshold"
    " goguen_threshold"
    " luka_threshold maxprod_ratio maxprod_threshold maxluka_threshold"
    " luka_top cells row_rules maxt_cells maxt_value",
)


#: Width of the window below a column's greatest key within which
#: `top_pairs` keeps pairs: 8 * 2^-53, derived there.
KEY_WINDOW = 2.0 ** -50

#: The Goguen quotient (x y - u z)^+ / (u + y) scales u and y by
#: QUOTIENT_SCALE when u + y lies below QUOTIENT_FLOOR, where its float
#: products would underflow (see `goguen_threshold`).
QUOTIENT_FLOOR = 2.0 ** -960
QUOTIENT_SCALE = 2.0 ** 1000

#: Width of the numeric window around strict-comparison ties inside which
#: the minimum/infimum classification is reported as fragile.  `arithmetic`
#: binds it to its number type once, for the sums the Godel row rule takes
#: with it; a Fraction compares with a float exactly, so a comparison may
#: read it as it is.
BORDERLINE_EPS = 1e-9


# The cell records are named tuples, not dataclasses: built by
# `tuple.__new__`, a record takes about 0.17 us, against 0.45 us for a
# frozen dataclass even with the `__init__` of `_dict_init`, such as a
# `RowDiagnostics` (timeit, Python 3.11.7).  They iterate and compare
# equal to plain tuples, and `_replace` amends a field.  The report columns
# of `arithmetic` build no record: they return plain tuples of each cell's
# fields, and a row builds its records on the first read of
# `RowDiagnostics.cells`, with one C-level map per row, `map(tuple.__new__,
# repeat(record), fields)`, never by the record's generated Python-level
# `__new__`.  A report whose cells nobody reads builds none.  A record, an
# instance of a tuple subclass, is allocated anew, counts towards the next
# garbage collection and stays tracked by the collector; a plain tuple usually
# comes from the interpreter's free list, which counts nothing, and the first
# collection that sees it untracks it, since its entries are floats and bools.
# In 10 s of `solve-large`'s op loop the m n records per report drove 6897
# generation-0 and 56 full collections, 6.3% of the wall time; with field
# tuples in their place the loop runs 431 and none, 1.0% (Python 3.11.7,
# shared 2-core host).
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


class _Pending(tuple):
    """The cells of a row before their first read: the pair (record,
    fields) of the row's record type and the plain tuples of its cells'
    fields, which a row rule hands `RowDiagnostics` as its `cells`."""

    __slots__ = ()


class _Cells:
    """The descriptor of the field `RowDiagnostics.cells`.

    It keeps the value in the row's own `__dict__`.  A `_Pending` value
    becomes the tuple of its records on the first read, built by one
    C-level map and stored in its place, so later reads return the same
    tuple; any other value, such as records given to the constructor, is
    returned as given.  Read on the class it raises AttributeError, which
    tells `dataclass` that the field has no default.  Two threads that read
    a row's cells at once may each build its records: both get equal
    tuples, and the row keeps one.
    """

    def __get__(self, row, owner=None):
        if row is None:
            raise AttributeError("cells")
        cells = row.__dict__["cells"]
        if type(cells) is _Pending:
            record, fields = cells
            cells = row.__dict__["cells"] = tuple(map(tuple.__new__, repeat(record), fields))
        return cells

    def __set__(self, row, cells):
        row.__dict__["cells"] = cells


def _dict_init(cls):
    """Give the frozen dataclass `cls`, declared with `init=False`, an
    `__init__` that stores its fields straight into the instance's
    `__dict__`, one item store each, then runs `__post_init__` when the
    class has one.

    Its parameters are those of the `__init__` that `dataclass` generates,
    built from `fields(cls)`: the fields with `init` set, in order, with
    their defaults and annotations.  A field with `init` unset is left to
    `__post_init__`, as the generated `__init__` leaves one that has no
    default.  The generated `__init__` of a frozen class makes one
    `object.__setattr__` call per field: building a `RowDiagnostics` took
    1.34 us by it and takes 0.43 us by this one, against 0.65 us for
    storing a new dict as `__dict__` in one step (timeit, Python 3.11.7,
    shared 2-core host).  On Python 3.11 to 3.13 the dict read from the
    instance shares its keys with the class, as a new dict would not: it
    costs 64 bytes more per instance than the inline values the generated
    `__init__` fills, against 176 for a new dict.  Eq, hash, repr,
    `dataclasses.replace`, pickles and copies, and `FrozenInstanceError`
    are those of the dataclass; the twin classes of `tests/test_records.py`
    hold them to the generated `__init__`.
    """
    params = [f for f in fields(cls) if f.init]
    namespace = {f"_default_{f.name}": f.default for f in params if f.default is not MISSING}
    signature = ", ".join(
        f"{f.name}=_default_{f.name}" if f.default is not MISSING else f.name for f in params
    )
    body = ["_dict = self.__dict__", *(f"_dict[{f.name!r}] = {f.name}" for f in params)]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {signature}):\n    " + "\n    ".join(body), namespace)
    init = cls.__init__ = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**{f.name: f.type for f in params}, "return": None}
    return cls


@_dict_init
@dataclass(frozen=True, init=False)
class RowDiagnostics:
    """Per-row breakdown of the distance computation.

    nabla_j = min(one_minus_beta, tau_j) is the least tolerance that makes
    row `row` satisfiable.  tau_j aggregates the per-column cell statistics
    (convention: one when no column supports the row).  For the Godel kind,
    nabla_tilde_j is the least tolerance known to be achieved on the row
    (convention one when no column certifies achievement) and `attainable`
    records whether nabla_j itself is achieved; for the other kinds
    attainability always holds.  `borderline` marks rows whose
    minimum/infimum classification hinges on a comparison within
    BORDERLINE_EPS, i.e. is numerically fragile.  The values are of the
    number type of the `arithmetic` instance whose row rule built the row.

    `cells` holds the row's cell records, one per column.  A row rule hands
    over the plain field tuples of its cells with their record type, and the
    row builds the records on the first read of `cells` (`_Cells`), so a
    report whose cells nobody reads builds none; the value, its type and
    the row's eq, hash, repr, `dataclasses.replace` and copies are those of
    a row built from the records.  A pickle or copy holds the records.
    """

    row: int
    nabla_j: float
    tau_j: float
    one_minus_beta: float
    attainable: bool
    argmin_col: int | None
    borderline: bool
    cells: tuple = _Cells()
    nabla_tilde_j: float | None = None

    def __getstate__(self):
        """The row's fields, its cells read as records."""
        return {**self.__dict__, "cells": self.cells}


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


def checked_tolerance(value, name: str, positive: bool = False):
    """`value` itself when it is a real number, finite and at least 0, or
    above 0 when `positive`.  Anything else raises ValueError naming
    `name`: NaN, an infinity, a bool, which would be read as 0 or 1, and a
    value that is not a `numbers.Real`, such as a string, None, a Decimal,
    which float arithmetic does not take, or numpy's bool, which is no
    `bool` but orders against a float as 0 or 1.  A plain float is tested
    at once; `numbers` is imported for any other type only, since
    `fuzzrel.cli` loads this module and passes floats."""
    real = type(value) is float
    if not real:
        import numbers

        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and (0.0 < value < math.inf if positive else 0.0 <= value < math.inf):
        return value
    sign = "positive" if positive else "non-negative"
    raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")


def beta_order(xs, rising: bool = True) -> list:
    """The row indices sorted stably by the right-hand side values `xs`:
    descending for a rising `front` and the Godel sweep, ascending for a
    falling front.  Every column of a system reads the same order, so a
    system sorts its right-hand side once and each column reduction sorts
    that order by the column's own entries."""
    return sorted(range(len(xs)), key=xs.__getitem__, reverse=rising)


def front(us, xs, rising: bool = True, order=None) -> tuple:
    """The Pareto-maximal pairs (us[l], xs[l]) of a column `us` and the
    right-hand side `xs`, in row order.

    A pair (g, b) is maximal when no other pair has both a g at least as
    high and a b at least as high (`rising`) or as low (not `rising`); of
    equal pairs the first is kept.  A max over the pairs of a function that
    is non-decreasing in g, and in b or in -b by the orientation, is
    attained on the front: each pair dropped is dominated by a kept pair
    whose value is at least as high.  The kept pairs stay in their order,
    so `max` still keeps the first of equal values.  A system builds each
    of its columns' fronts through `Fronts`: rising for
    `FuzzySystem.fronts`, which `goguen_column` and the membership tests
    read, falling for `MaxTSystem.fronts`, which `MaxTSystem.kept` hands
    to the max-min and max-product cells; `godel_column` runs the same
    sweep itself, and the Lukasiewicz kinds keep fewer pairs, by
    `top_pairs`.

    `order` is `beta_order(xs, rising)`, which a `Fronts` computes once for
    all its columns; without it the front sorts `xs` itself.  One stable
    sort of that order by g descending, with the column's own entries as
    the keys, is the stable sort of the pairs by (g, b) descending, or by
    (g, -b) for the falling orientation: of equal g the order of b, and of
    equal pairs the row order, stays.  It puts every pair after the pairs
    that dominate it, and a sweep then keeps each pair whose b beats all b
    before it.  O(m log m) for m pairs.
    """
    if order is None:
        order = beta_order(xs, rising)
    kept = []
    best = None
    for l in sorted(order, key=us.__getitem__, reverse=True):
        b = xs[l]
        if best is None or (b > best if rising else b < best):
            kept.append(l)
            best = b
    kept.sort()
    return tuple([(us[l], xs[l]) for l in kept])


class Fronts(dict):
    """The `front` of each of a system's columns, by the column's index,
    each built on its first read and kept: fronts[j] is front(columns[j],
    xs, rising, order), with `order` = beta_order(xs, rising) sorted once,
    when the mapping is made.  A system makes it on the first read of its
    `fronts`, by a reader that reads at least one column, so each column's
    front is built at most once per system, and a reader that needs a few
    columns builds only those.  `columns` sizes the solution entries of
    the membership tests.  The kept fronts are the dict's items, so it
    pickles and copies with them."""

    def __init__(self, columns, xs, rising: bool):
        self.columns, self.xs, self.rising = columns, xs, rising
        self.order = beta_order(xs, rising)

    def __missing__(self, j):
        kept = self[j] = front(self.columns[j], self.xs, self.rising, self.order)
        return kept


def top_pairs(pairs, keys, window) -> tuple:
    """The pairs whose key is within `window` of the greatest of `keys`, in
    their order in `pairs`; keys[l] is the key of pairs[l].  O(m) for m
    pairs, with no sort.

    Two readers keep a column this way: `luka_top` of `arithmetic`, for
    the Lukasiewicz report column on either instance, and
    `fuzzrel.operators.MaxTSystem.kept`, for the float max-Lukasiewicz
    cells.  In exact arithmetic `luka_threshold` depends on its column pair
    (gl, bl) only through the key gl + bl - 1, and `maxluka_threshold` on
    its pair (y, z) only through y - z, and neither decreases as its key
    grows, since each takes the key through sums, (.)^+, halving, min and
    max, which are all non-decreasing: the pairs of greatest key attain the
    column's max, so an exact reduction keeps it with any window.  Both
    readers keep each pair within KEY_WINDOW = 2^-50 = 8 eps of the
    greatest key, eps = 2^-53, which is what floats need.  Why that keeps
    both the float cell and the exact one:

    - Rounding.  A real r with |r| <= 2 rounds to the nearest float by at
      most eps / 2 when |r| < 1 and by at most eps otherwise; min, max,
      (.)^+, halving and every comparison are non-decreasing.  The key of a
      pair is computed as the threshold computes it: P = fl(bl - fl(1 -
      gl)), its term x - v, for the report column `luka_column`,
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


def column_scan(columns, rhs, cells, prepared) -> tuple:
    """Rows of cells, for any number type: cell (j, i) of column i.

    `columns` are the columns of the matrix, such as a system's prepared
    `columns`; a matrix passed in their place is read as its own transpose.
    `cells` is a table entry of `Arithmetic.cells`: `cells(rhs, prepared)`
    computes once what the columns share, and returns the function that
    gives the cells of column i from its entries and i, in row order; the
    columns of cells are transposed to rows.  `prepared` is the system
    whose column fronts, `prepared.fronts`, the Goguen entry reads, in the
    number type of `rhs`; no other entry reads it, so a Godel or
    Lukasiewicz report makes no `Fronts`.

    Every cell formula is a max over its column of thresholds that are
    monotone in the pair, so a column needs only its pairs that can attain
    it.  Each column is reduced once, to the `front` of the pairs in the
    orientation in which its thresholds rise (Goguen) or to `top_pairs`
    (Lukasiewicz), and its cells run over the kept pairs.  The Goguen entry
    reads the fronts the system keeps, each built on its first read, so
    the membership tests of the oracle share them.  The right-hand side is
    the same in every column, so it is sorted once per system, by
    `beta_order`, and each front sorts that order by the column's entries
    alone, with float keys: O(m log m) per column, or O(m) with no sort
    for `top_pairs`, plus O(m k), with k the number of kept pairs (k = 1
    for nearly every Lukasiewicz column), in place of O(m^2).  The Goguen
    and Lukasiewicz columns run that pair loop in one frame per column,
    with the per-pair and per-cell terms of their thresholds computed once.
    The Godel column costs one sort of the system's order plus about 2 m
    threshold evaluations, by one sweep over the system's right-hand side
    levels (`fuzzrel.report` states why).  The kept pairs stay in row
    order: the cells keep the first of equal values, so the order decides
    which of 0.0 and -0.0 a cell reports.  An entry gives each cell as the
    plain tuple of its record's fields, and builds no record: the row rules
    hand a row's tuples to `RowDiagnostics`, which builds its records on
    the first read of its `cells`.
    """
    return tuple(zip(*map(cells(rhs, prepared), columns, range(len(columns)))))


def arithmetic(one) -> Arithmetic:
    """Bind the shared formulas to the number type of `one`.

    Every literal the formulas need is derived from `one` once, here, so
    the functions never mix number types: given operands of that type, each
    returns a value of that type.  The guards are read as that type once
    too, a float keeping its bits and a Fraction exact: BORDERLINE_EPS,
    which the Godel row rule adds and subtracts; KEY_WINDOW, the width
    within which `luka_top` keeps pairs below a column's greatest key
    (`top_pairs`); and QUOTIENT_FLOOR and QUOTIENT_SCALE, below which the
    Goguen quotient scales its two gamma entries
    (`goguen_threshold`).  Floats need them; exact arithmetic does not, and
    its values do not change under them: a Goguen quotient does not change
    under a common scale, and the pairs of greatest key are always kept.
    Each kind-dependent formula is a table with one entry per
    ImplicationKind, looked up once per call.
    """
    # The scalar formulas run m n k times per system, and the compositions m
    # n times per closure, so they are written without builtin calls: a
    # two-argument min(a, b) as `b if b < a else a` and max(a, b) as `b if b
    # > a else a`, the builtins' own tie rules (the first argument is kept
    # unless the second is strictly smaller or larger), and a max over a
    # column or a row as a loop that replaces its best only on a strictly
    # greater value, so the first of equal values still wins.  Measured with
    # timeit, min(a, b) against the conditional costs 219/66 ns on Python
    # 3.10, 229/31 ns on 3.11, 302/27 ns on 3.12 and 68/33 ns on 3.13;
    # max(<generator>) over 5 floats costs 846 ns on 3.11, and a 5×5
    # Lukasiewicz max_t_compose 8.8 us as max(map(t_norm, row, vec)) per row
    # against 5.1 us as the loop (3.11, shared 2-core host; a list
    # comprehension per row read 8.9 us).  For the same reason they write a
    # positive part as `x if x > zero else zero`, the body of `pos`, in
    # place of a call to it.
    zero, two = one - one, one + one
    eps, window, tiny, scale = map(
        type(one), (BORDERLINE_EPS, KEY_WINDOW, QUOTIENT_FLOOR, QUOTIENT_SCALE)
    )
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

    # The two compositions of each kind, one loop over the rows with the
    # t-norm or residuum of `t_norms` / `residua` written inline.  Each row
    # starts from its first term and replaces its best only on a strictly
    # greater (max) or smaller (min) term, the tie rule of the builtins, so
    # every result, a NaN or an out-of-range term's included, is that of
    # max(map(t_norms[kind], row, vec)) or min(map(residua[kind], row,
    # vec)).  The Goguen max-t row is that form itself, with the product
    # as `operator.mul`, which makes no Python call per entry either.
    def godel_max_t(matrix, vec):
        out = []
        for row in matrix:
            best = None
            for x, y in zip(row, vec):
                t = x if x < y else y
                if best is None or t > best:
                    best = t
            out.append(best)
        return tuple(out)

    def goguen_max_t(matrix, vec):
        return tuple([max(map(operator.mul, row, vec)) for row in matrix])

    # The Lukasiewicz max-t row is the positive part of its greatest sum less
    # one: fl(s - 1) and (.)^+ are non-decreasing, so they commute with the
    # max, and a zero comes out as +0.0, so the result is the loop's, bit
    # for bit.  `max` keeps a leading NaN sum, which the t-norm reads as 0;
    # such a row, on no validated operand, takes the builtin form itself.
    # A 42x42 composition took 78 us against 142 us for a loop over the
    # t-norms, and an 8x8 one 4.6 against 5.3 us (timeit, best of 7, Python
    # 3.11.7, shared 2-core host).
    def luka_max_t(matrix, vec):
        out = []
        for row in matrix:
            t = max(map(operator.add, row, vec)) - one
            out.append(t if t > zero else zero if t == t else max(map(t_norms[luka], row, vec)))
        return tuple(out)

    def godel_min_impl(matrix, vec):
        out = []
        for row in matrix:
            best = None
            for x, y in zip(row, vec):
                t = one if x <= y else y
                if best is None or t < best:
                    best = t
            out.append(best)
        return tuple(out)

    def goguen_min_impl(matrix, vec):
        out = []
        for row in matrix:
            best = None
            for x, y in zip(row, vec):
                t = one if x <= y else y / x
                if best is None or t < best:
                    best = t
            out.append(best)
        return tuple(out)

    def luka_min_impl(matrix, vec):
        out = []
        for row in matrix:
            best = None
            for x, y in zip(row, vec):
                t = one if x <= y else one - x + y
                if best is None or t < best:
                    best = t
            out.append(best)
        return tuple(out)

    max_t_rows = {godel: godel_max_t, goguen: goguen_max_t, luka: luka_max_t}
    min_impl_rows = {godel: godel_min_impl, goguen: goguen_min_impl, luka: luka_min_impl}

    # The membership test of `fuzzrel.oracle.tolerance_membership`, one loop
    # per kind: is min_impl_compose(gamma, kind, x) <= upper + slack, with x
    # = max_t_compose(gamma^t, kind, lower) and lower, upper =
    # shifted_bounds(beta, delta)?  Each row of `gamma`, whose beta entries
    # are `rhs`, shifts its own up and stops at its first residuum <= that
    # + slack, and the test fails at the first row with none.  A row reads
    # x[i] from column i's front, the pairs (gamma[l][i], beta[l]) that
    # `fronts` holds (a system's `Fronts`, which builds a column's front on
    # its first read): the first row to read x[i] computes it, the kind's
    # t-norm maxed over those pairs only, each shifting its beta[l] down
    # where it reads it, and later rows read the stored float.  A column
    # that no row reads before its witness is never reduced, and its front
    # never built.  The shifts are `shifted_bounds`' own float operations,
    # in its order, computed only where they are read, and the list x, one
    # entry per column of `fronts.columns`, lives for one call.  The oracle
    # docstring states why the verdict is the plain closure's, bit for bit.
    # Measured over the deltas the bisections of the seed-1 `verify-small`
    # pool probe, computing x on first read took a call from 2.95 to 2.51
    # us (best of 7, three alternating rounds, Python 3.11, shared 2-core
    # host); reading x through `zip(row, x, range(n))` in place of
    # `enumerate` was slower.
    def godel_membership(gamma, fronts, rhs, delta, slack):
        x = [None] * len(fronts.columns)
        for row, u in zip(gamma, rhs):
            u = u + delta
            u = (one if one < u else u) + slack
            for i, g in enumerate(row):
                y = x[i]
                if y is None:
                    for h, b in fronts[i]:
                        t = b - delta
                        t = t if t > zero else zero
                        t = h if h < t else t
                        if y is None or t > y:
                            y = t
                    x[i] = y
                if (one if g <= y else y) <= u:
                    break
            else:
                return False
        return True

    def goguen_membership(gamma, fronts, rhs, delta, slack):
        x = [None] * len(fronts.columns)
        for row, u in zip(gamma, rhs):
            u = u + delta
            u = (one if one < u else u) + slack
            for i, g in enumerate(row):
                y = x[i]
                if y is None:
                    for h, b in fronts[i]:
                        t = b - delta
                        t = h * (t if t > zero else zero)
                        if y is None or t > y:
                            y = t
                    x[i] = y
                if (one if g <= y else y / g) <= u:
                    break
            else:
                return False
        return True

    def luka_membership(gamma, fronts, rhs, delta, slack):
        x = [None] * len(fronts.columns)
        for row, u in zip(gamma, rhs):
            u = u + delta
            u = (one if one < u else u) + slack
            for i, g in enumerate(row):
                y = x[i]
                if y is None:
                    for h, b in fronts[i]:
                        t = b - delta
                        t = h + (t if t > zero else zero) - one
                        t = t if t > zero else zero
                        if y is None or t > y:
                            y = t
                    x[i] = y
                if (one if g <= y else one - g + y) <= u:
                    break
            else:
                return False
        return True

    membership = {godel: godel_membership, goguen: goguen_membership, luka: luka_membership}

    def solve_and_recompose(gamma: Matrix, columns: Matrix, kind: ImplicationKind, xi: Vector):
        """(x, min_impl_compose(gamma, kind, x)) with x = max_t_compose(columns,
        kind, xi), where `columns` is gamma^t; see
        `fuzzrel.operators.solve_and_recompose`.  Unchecked: it calls the
        kind's loops directly, for a validated system's prepared `columns`,
        its ImplicationKind and an `xi` with one entry per row of gamma."""
        x = max_t_rows[kind](columns, xi)
        return x, min_impl_rows[kind](gamma, x)

    def maxt_closure(a: Matrix, kind: ImplicationKind, c: Vector) -> Vector:
        """max_t_compose(a, kind, min_impl_compose(a^t, kind, c)); see
        `fuzzrel.operators.maxt_closure`."""
        return max_t_rows[kind](a, min_impl_rows[kind](transpose(a), c))

    def shift_down(v, delta):
        """`v` shifted down by `delta`: (v - delta)^+."""
        w = v - delta
        return w if w > zero else zero

    def shift_up(v, delta):
        """`v` shifted up by `delta`: min(v + delta, 1)."""
        w = v + delta
        return one if one < w else w

    def lower_shift(vec: Vector, delta) -> Vector:
        """`vec` shifted down by `delta`, entry by entry (`shift_down`)."""
        return tuple(map(shift_down, vec, repeat(delta)))

    def upper_shift(vec: Vector, delta) -> Vector:
        """`vec` shifted up by `delta`, entry by entry (`shift_up`)."""
        return tuple(map(shift_up, vec, repeat(delta)))

    def shifted_bounds(vec: Vector, delta) -> tuple[Vector, Vector]:
        """Componentwise lower/upper shift of `vec` by `delta`, clipped to [0, 1].

        lower = lower_shift(vec, delta) and upper = upper_shift(vec, delta), so
        for any c in the unit cube: ||vec - c||_inf <= delta iff lower <= c <= upper.
        A caller that reads one side computes that side alone.
        """
        return lower_shift(vec, delta), upper_shift(vec, delta)

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

        The quotient does not change when u and y are scaled by a common
        factor, so when u + y lies below QUOTIENT_FLOOR = 2^-960 both are
        scaled by QUOTIENT_SCALE = 2^1000 first; in exact arithmetic that
        returns the same value.  In floats the scaling is exact, as u, y <
        2^-960 then and the scaled sum stays below 2^40 (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 2).  Without it both products
        underflow when u and y are subnormal.  Bound, with eps = 2^-53 and
        s = 2^-1075, for the scaled operands u', y' and D' = u' + y': each
        product rounds by eps relative plus s, their difference by eps
        relative (exactly when it is subnormal), so the numerator errs by at
        most (2 eps + eps^2)(x y' + u' z) + 3 s; D' rounds by eps relative;
        and x y' + u' z <= D' as x, z <= 1, so the quotient r <= 1 and the
        float quotient, which rounds once more, errs by at most 4 eps +
        O(eps^2) + 3 s / D' + s.  D' >= 2^-960 on either branch (a scaled D'
        is at least 2^-74), so 3 s / D' + s < 2^-112 and the float quotient
        lies within 5 eps of the exact quotient of its float arguments.  The cap 1 - z, the max and (.)^+
        add no error beyond the eps / 2 of 1 - z.  Where no product
        underflows, the scaled branch returns the unscaled value, bit for
        bit: scaling by a power of two commutes with rounding.
        """
        if u == zero or y == zero:
            return zero
        a, b, d = x * y - u * z, one - z, u + y
        if d < tiny:
            a, d = x * (y * scale) - (u * scale) * z, d * scale
        a = (a if a > zero else zero) / d
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

    def luka_top(pairs):
        """The pairs (gl, bl) of a min-implication Lukasiewicz column whose
        key bl - (1 - gl) is within KEY_WINDOW of the greatest (`top_pairs`)."""
        return top_pairs(pairs, [bl - (one - gl) for gl, bl in pairs], window)

    # The cells of a min-implication report; `fuzzrel.report` states their
    # formulas and why these evaluations of them are the full scan's.  Each
    # entry takes the right-hand side `xs` of a system and the system,
    # `prepared`, computes what its columns share once, and returns the
    # function of a column's gamma entries `us` and index i that gives the
    # column's cells in row order, each the plain tuple of its record's
    # fields.  Only the Goguen entry reads `prepared`, for its fronts.
    def godel_column(xs, prepared):
        """The Godel cells of the columns of a system whose right-hand side
        is `xs`.  The columns share the order `beta_order(xs)` and the
        distinct values of xs in increasing order, its levels, with the rank
        of each row's value among them, all computed once here.

        theta: the stable sort of that order by g descending is the stable
        sort of the pairs by (g, b) descending, and puts every pair l with
        gl >= g before or level with the cell's own; the running max of bl
        down that order, of equal values the one of the first row, less g,
        is theta.  The pairs whose b beats every b before them are the
        column's front, g falling and b rising.  zeta: along the front A =
        (bl - b)^+ / 2 never falls and B = (gl - b)^+ never rises, so a
        threshold min(A, B) is A before the first pair with A >= B and B
        from it on, and zeta = max(A before it, B at it).  The walk keeps
        that crossing between `before` and `after`, the stack `below`
        holding the front before `before` and `above` the front after
        `after`, and moves it for each level in increasing order, testing A
        >= B at every step; a cell reads the zeta of its row's rank.  In
        exact arithmetic a higher level only moves the crossing left, since
        B falls twice as fast as A; in floats rounding can move it right,
        so the walk steps both ways.  The
        sentinels (two, zero) below and (zero, two) above the front have A
        >= B false and true and contribute a zero A and B.  Each cell is
        the plain tuple (theta, zeta, support, borderline), the fields of
        its `GodelCellStats`, which its row builds on the first read of its
        `cells`.
        """
        down = beta_order(xs)
        levels, ranks, last = [], [None] * len(xs), None
        for l in reversed(down):
            if xs[l] != last:
                rank, last = len(levels), xs[l]
                levels.append(last)
            ranks[l] = rank

        def column(us, i):
            thetas = [None] * len(us)
            below = [(two, zero)]
            best = first = None
            for l in sorted(down, key=us.__getitem__, reverse=True):
                gl, bl = us[l], xs[l]
                if best is None or bl > best:
                    best, first = bl, l
                    below.append((gl, bl))
                elif bl == best and l < first:
                    best, first = bl, l
                thetas[l] = best - gl
            zetas = []
            before, after, above = below.pop(), (zero, two), []
            for b in levels:
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
                zetas.append(c if c > a else a)
            cells = []
            for g, theta, zeta in zip(us, thetas, map(zetas.__getitem__, ranks)):
                support = g > zero
                cells.append((theta, zeta, support, support and abs(theta - zeta) <= eps))
            return tuple(cells)

        return column

    def goguen_column(xs, prepared):
        """The Goguen cells of the columns of a system whose right-hand side
        is `xs`.  Column i reads its rising `front`, prepared.fronts[i],
        which the system builds on its first read and keeps (`Fronts`), so
        the report shares each column's front with the membership tests of
        the oracle and builds none again.  On `EXACT` the fronts are the
        readings of the float fronts: reading a float as its shortest
        decimal is strictly increasing, so they are the fronts of the read
        columns, in the same rows.

        The pairs (gl, bl) of the column's front with gl > 0, each with its
        product bl gl, are read by every cell (g, b): theta is the max of bl
        - g / gl over those with g <= gl, and a supporting cell (g > 0)
        takes zeta = max(theta^+, min(max R, 1 - b)) over the quotients R =
        (bl gl - g b)^+ / (g + gl), `goguen_threshold`'s, with its rescale
        below QUOTIENT_FLOOR and its error bound.  Each product is computed
        once, per pair or per cell, by the float operation and on the
        operands the per-pair formula has, so every cell is that formula's,
        bit for bit.  Each cell is the plain tuple (theta, zeta, support),
        the fields of its `GoguenCellStats`, which its row builds on the
        first read of its `cells`.
        """
        fronts = prepared.fronts

        def column(us, i):
            kept = [(gl, bl, bl * gl) for gl, bl in fronts[i] if gl > zero]
            cells = []
            for g, b in zip(us, xs):
                theta = ratio = None
                gb = g * b
                for gl, bl, p in kept:
                    d = g + gl
                    if d < tiny:
                        t, d = bl * (gl * scale) - (g * scale) * b, d * scale
                    else:
                        t = p - gb
                    t = (t if t > zero else zero) / d
                    if ratio is None or t > ratio:
                        ratio = t
                    if g <= gl:
                        t = bl - g / gl
                        if theta is None or t > theta:
                            theta = t
                if g > zero:
                    if theta is None:
                        # A supporting cell always dominates its own row, so
                        # the empty-set convention theta = 0 is only ever
                        # reachable on non-supporting cells.
                        raise InvariantViolation(
                            f"supporting cell with entry {g!r} dominates no row"
                        )
                    zeta = one - b
                    zeta = ratio if ratio < zeta else zeta
                    floor = theta if theta > zero else zero
                    cells.append((theta, zeta if zeta > floor else floor, True))
                else:
                    cells.append((zero if theta is None else theta, zero, False))
            return tuple(cells)

        return column

    def luka_column(xs, prepared):
        """The Lukasiewicz cells of the columns of a system whose right-hand
        side is `xs`.  `luka_top` keeps a column's pairs with no sort, so
        the columns share nothing that is worth computing once.

        Each cell (g, b) is the max of `luka_threshold(1 - g, 1 - gl, bl,
        b)` over the pairs (gl, bl) that `luka_top` keeps, nearly always
        one, written out: the term (bl - (1 - gl))^+ of a pair and (1 - g -
        b)^+ of a cell are computed once each, by the threshold's own float
        operations, so every cell is the threshold's, bit for bit.  Each
        cell is the plain 1-tuple (zeta,), the field of its `LukaCellStats`,
        which its row builds on the first read of its `cells`.
        """
        def column(us, i):
            kept = [
                (one - gl, bl, a if (a := bl - (one - gl)) > zero else zero)
                for gl, bl in luka_top(tuple(zip(us, xs)))
            ]
            zetas = []
            for g, y in zip(us, xs):
                u = one - g
                c = u - y
                c = c if c > zero else zero
                zeta = None
                for v, x, a in kept:
                    t = x - y + u - v
                    t = (t if t > zero else zero) / two
                    t = t if t < a else a
                    t = t if t > c else c
                    if zeta is None or t > zeta:
                        zeta = t
                zetas.append(zeta)
            return tuple(zip(zetas))

        return column

    # The cells of a min-implication report, one column per call.
    cells = {godel: godel_column, goguen: goguen_column, luka: luka_column}

    # The row rules of a min-implication report, `rule(j, b, cells)`: the
    # RowDiagnostics of row j, whose beta entry is b, from its cells by the
    # kind's entry of `cells`; `fuzzrel.report` states their formulas.  Each
    # takes the first column of least value as the row's argmin; a row that
    # no column qualifies for has argmin None and tau one.  Each hands the
    # row its cells' field tuples with the kind's record type, `_Pending`,
    # so the records are built only if the row's `cells` are read.
    def godel_row(j, b, cells):
        """Row whose tau is the least max(theta, zeta) over its supporting
        cells, with the attainability of nabla_j, in one pass over the cells.

        The pass keeps tau and its first column, nabla_tilde_j, whether some
        cell at the least value so far is a robust witness (its theta clears
        its zeta by BORDERLINE_EPS, so its value is its zeta), and the least
        value of a borderline cell (None while there is none), compared with
        tau + BORDERLINE_EPS at the end.
        """
        argmin, tau, nabla_tilde, witness, low = None, one, one, False, None
        for i, (theta, zeta, support, near) in enumerate(cells):
            if support:
                value = zeta if zeta > theta else theta
                robust = theta <= zeta - eps
                if argmin is None or value < tau:
                    argmin, tau, witness = i, value, robust
                elif value == tau and robust:
                    witness = True
                if theta < zeta and zeta < nabla_tilde:
                    nabla_tilde = zeta
                if near and (low is None or value < low):
                    low = value
        one_minus_beta = one - b
        nabla_j = tau if tau < one_minus_beta else one_minus_beta
        attainable = nabla_j == one_minus_beta or nabla_j == nabla_tilde

        # Fragility: a theta/zeta tie at the value deciding tau, or a near
        # miss in either comparison that ruled the row non-attainable.  A row
        # certified attainable by some cell that clears the strictness test
        # with margin, or by tau >= 1 - beta, is not flagged for tie flips
        # elsewhere, though a tie that rounding alone makes can still flip
        # in exact arithmetic (`tests/test_exact_report.py` pins the cases).
        robustly_attainable = attainable and (nabla_j == one_minus_beta or witness)
        borderline = not robustly_attainable and low is not None and low <= tau + eps
        if not attainable:
            borderline = (
                borderline
                or abs(nabla_tilde - nabla_j) <= eps
                or abs(one_minus_beta - tau) <= eps
            )
        return RowDiagnostics(
            j, nabla_j, tau, one_minus_beta, attainable, argmin, borderline,
            _Pending((GodelCellStats, cells)), nabla_tilde,
        )

    def goguen_row(j, b, cells):
        """Row whose tau is the least max(theta, zeta) over its supporting
        cells.

        One pass keeps tau with its first column and the least zeta of the
        same cells.  The Goguen column returns zeta >= theta^+ on supporting
        cells, so the two are the same value, bit for bit; the check guards
        that invariant."""
        argmin, tau, low = None, one, one
        for i, (theta, zeta, support) in enumerate(cells):
            if support:
                value = zeta if zeta > theta else theta
                if argmin is None:
                    argmin, tau, low = i, value, zeta
                else:
                    if value < tau:
                        argmin, tau = i, value
                    if zeta < low:
                        low = zeta
        if tau != low:
            raise InvariantViolation(f"row {j}: tau {tau!r} differs from the least zeta {low!r}")
        one_minus_beta = one - b
        nabla_j = tau if tau < one_minus_beta else one_minus_beta
        return RowDiagnostics(
            j, nabla_j, tau, one_minus_beta, True, argmin, False, _Pending((GoguenCellStats, cells))
        )

    def luka_row(j, b, cells):
        """Row whose tau is the least zeta over all its cells.  The cells are
        1-tuples, so flattening them gives the zetas; `min` and `index` both
        keep the first of equal values."""
        zetas = [*chain.from_iterable(cells)]
        tau = min(zetas)
        one_minus_beta = one - b
        nabla_j = tau if tau < one_minus_beta else one_minus_beta
        return RowDiagnostics(
            j, nabla_j, tau, one_minus_beta, True, zetas.index(tau), False,
            _Pending((LukaCellStats, cells)),
        )

    row_rules = {godel: godel_row, goguen: goguen_row, luka: luka_row}

    # Cell (i, j) of a max-t distance, from u = a[i][j], x = b[i] and the
    # pairs (a[k][j], b[k]) of column j that `MaxTSystem.kept` keeps.  Every
    # threshold here is non-decreasing in a[k][j] and non-increasing in b[k],
    # so the front of the pairs that keeps high a and low b holds the max;
    # the max-Lukasiewicz threshold depends on the pair only through
    # a[k][j] - b[k], so the pairs of greatest difference hold it.  See
    # `fuzzrel.report.maxt_distance`; the oracle's `exact_maxt_distance`
    # scans these cells in floats, evaluates a few of them again in floats
    # one pair at a time, and evaluates those cells in Fractions over the
    # pairs that can decide them.
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

    maxt_cells = {godel: godel_maxt_cell, goguen: goguen_maxt_cell, luka: luka_maxt_cell}

    def maxt_value(rows):
        """The max-t distance from the rows of its cells: the greatest row
        minimum, and at least zero."""
        return max(zero, *map(min, rows))

    scope = locals()
    return Arithmetic(*(scope[name] for name in Arithmetic._fields))


FLOAT = arithmetic(1.0)
pos = FLOAT.pos


def t_norm(kind: ImplicationKind, x, y):
    """Apply the t-norm selected by `kind` to `x` and `y`, each validated by
    `unit` before the kind is checked."""
    x, y = unit(x, "x"), unit(y, "y")
    return FLOAT.t_norms[checked_kind(kind)](x, y)


def residuum(kind: ImplicationKind, x, y):
    """Apply the residual implicator selected by `kind` to `x` and `y`, each
    validated by `unit` before the kind is checked."""
    x, y = unit(x, "x"), unit(y, "y")
    return FLOAT.residua[checked_kind(kind)](x, y)


def shifted_bounds(vec: Vector, delta) -> tuple[Vector, Vector]:
    """Componentwise lower/upper shift of `vec` by `delta`, clipped to
    [0, 1]: `FLOAT.shifted_bounds` of `vec`, validated by `unit_vector`
    (entries named `vector[j]`), and `delta`, validated by `unit`."""
    return FLOAT.shifted_bounds(unit_vector(vec, "vector"), unit(delta, "delta"))


def unit(value, name: str = "value") -> float:
    """Validate a scalar as a unit-interval value.

    Rejects NaN and anything further than CLAMP_EPS outside [0, 1]; values
    within the clamp window are snapped onto the interval.  A plain float
    in (0, 1] is returned at once, as `checked_tolerance` returns its
    argument; every other value, 0.0 and NaN among them, takes the full
    path below.
    """
    if type(value) is float and 0.0 < value <= 1.0:
        return value
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


#: Iterables that are not arrays: a string or a byte string would be read
#: as its characters or bytes, a mapping as its keys, a set in no fixed order.
_NOT_ARRAYS = (str, bytes, bytearray, Mapping, Set)


def _entries(values, name: str, row: int | None = None):
    """enumerate(values); a value that is not an array, whether not iterable
    or one of `_NOT_ARRAYS`, is a DomainError naming `name`, or `name[row]`
    for a row of a matrix.  Iterators are arrays, read once."""
    if not isinstance(values, _NOT_ARRAYS):
        try:
            return enumerate(values)
        except TypeError:
            pass
    where = name if row is None else f"{name}[{row}]"
    raise DomainError(f"{where}: expected an array, got {type(values).__name__}")


_ARRAYS = {tuple, list}


def _kept(arrays) -> bool:
    """Whether `unit` would return every entry of `arrays`, lists or
    tuples, unchanged: each entry is exactly a float, none is NaN, none is
    negative or -0.0, and none exceeds 1.  An input with no entry at all,
    such as a lone empty array, is not kept.

    One Python loop reads the entries in order and stops at the first that
    fails.  Its type is tested first, so a str or None is never compared;
    then `0.0 < v <= 1.0`, which NaN fails.  Only an entry that fails that
    test is read further: it is kept when it is 0.0 with a positive sign,
    which rejects -0.0, as `0.0 <= v` would not.  On a 5x5 system of
    2-decimal entries this loop takes 1.3 us where the five C-level passes
    it replaced (types, sum, max, min, signs) took 3.9 (timeit, Python
    3.11.7, shared 2-core host).
    """
    v = None
    for array in arrays:
        for v in array:
            if type(v) is not float:
                return False
            if not 0.0 < v <= 1.0 and (v != 0.0 or math.copysign(1.0, v) < 0.0):
                return False
    return v is not None


def _unit_row(values, name: str, row: int | None = None) -> Vector:
    """`values` validated as `unit_vector` does, its entries named
    `name[j]`, or `name[row][j]` for a row of a matrix; the empty tuple for
    an empty row."""
    if type(values) in _ARRAYS and _kept((values,)):
        return tuple(values)
    where = name if row is None else f"{name}[{row}]"
    return tuple(unit(v, f"{where}[{j}]") for j, v in _entries(values, name, row))


def _unit_grid(rows, name: str) -> Matrix:
    """The rows of `rows`, each validated as by `_unit_row`, named
    `name[i][j]`.  A list or tuple of list or tuple rows that one `_kept`
    call keeps is kept as tuples; any other grid, or one with a bad entry,
    goes row by row, so its values and errors are those of one `unit` call
    per entry, in row-major order."""
    if type(rows) in _ARRAYS and {*map(type, rows)} <= _ARRAYS and _kept(rows):
        return tuple(map(tuple, rows))
    return tuple(_unit_row(row, name, i) for i, row in _entries(rows, name))


def unit_vector(values, name: str = "vector") -> Vector:
    """Validate a non-empty sequence of unit-interval values.

    A list or tuple whose entries are all plain floats in [0, 1] is checked
    by one `_kept` loop and kept as a tuple, with no call per entry.  It is
    exactly what `unit` would return entry by entry, because `_kept` keeps
    only rows that `unit` returns unchanged: no NaN (which `unit` rejects),
    no -0.0 (which `unit` turns into 0.0 and `0.0 <= v` would pass), no
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

    A list or tuple of list or tuple rows whose entries are all plain
    floats in [0, 1], with no NaN and no -0.0, is kept by one `_kept` call
    over the whole grid.  Any other grid goes row by row: a row of plain
    floats is still kept in one `_kept` call, any other row goes entry by
    entry through `unit`.  Rows and the sequence of rows are read once.
    Errors come in the per-entry order: the first bad entry in row-major
    order, then rectangularity.  A bad entry costs one more `_kept` call per
    row and a call per entry in its own row only.  `unit_system` checks the
    matrix of every system here.
    """
    grid = _unit_grid(rows, name)
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
    `unit_matrix`, then its field `vector` by `unit_vector`, then the row
    count, one vector entry per matrix row, then its `kind` by
    `checked_kind`.  The values, the errors and their order are those of
    one `unit` call per entry; a system of plain floats in [0, 1] costs one
    `_kept` call over its grid and one over its vector."""
    rows = unit_matrix(getattr(system, matrix), matrix)
    rhs = unit_vector(getattr(system, vector), vector)
    if len(rows) != len(rhs):
        raise DimensionMismatch(
            f"{matrix} has {len(rows)} rows but {vector} has {len(rhs)} entries"
        )
    checked_kind(system.kind)
    object.__setattr__(system, matrix, rows)
    object.__setattr__(system, vector, rhs)


def _operands(name: str, matrix, vec, kind) -> tuple[Matrix, Vector, ImplicationKind]:
    """The operands of the composition `name`, checked in this order: every
    entry validated as by `unit_vector`, named `matrix[i][j]` and
    `vector[j]`; then the shapes, a DimensionMismatch naming `name` when the
    matrix has no row, the vector no entry or a row another length than the
    vector (a ragged matrix is named by its first such row); then the kind."""
    rows = _unit_grid(matrix, "matrix")
    vec = _unit_row(vec, "vector")
    widths = {*map(len, rows)}
    if len(widths) > 1:
        row = next(i for i, entries in enumerate(rows) if len(entries) != len(vec))
        raise DimensionMismatch(
            f"{name}: row {row} has {len(rows[row])} entries, vector has {len(vec)}"
        )
    if not vec:
        raise DimensionMismatch(f"{name}: vector has no entries")
    if widths != {len(vec)}:
        raise DimensionMismatch(
            f"{name}: matrix has {len(rows[0]) if rows else 0} columns, "
            f"vector has {len(vec)} entries"
        )
    return rows, vec, checked_kind(kind)


def max_t_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
    """Row-wise max of t-norms: out[i] = max_j T(matrix[i][j], vec[j]).
    Checks its operands (`_operands`), then runs the loop of its kind."""
    matrix, vec, kind = _operands("max_t_compose", matrix, vec, kind)
    return FLOAT.max_t_rows[kind](matrix, vec)


def min_impl_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
    """Row-wise min of residua: out[j] = min_i (matrix[j][i] -> vec[i]).
    Checks its operands (`_operands`), then runs the loop of its kind."""
    matrix, vec, kind = _operands("min_impl_compose", matrix, vec, kind)
    return FLOAT.min_impl_rows[kind](matrix, vec)


def sup_distance(u: Vector, v: Vector) -> float:
    """Sup-norm distance max_i |u[i] - v[i]| of two vectors of one length,
    at least 1; other lengths raise DimensionMismatch."""
    if len(u) != len(v):
        raise DimensionMismatch(f"sup_distance: lengths {len(u)} and {len(v)} differ")
    if not u:
        raise DimensionMismatch("sup_distance: vectors have no entries")
    return max(map(abs, map(operator.sub, u, v)))


def leq(u: Vector, v: Vector, slack: float = 0.0) -> bool:
    """Componentwise u <= v, optionally allowing `slack` of float drift.

    Exact callers pass a slack of their own number type; the float default
    would round a Fraction comparison.
    """
    if len(u) != len(v):
        raise DimensionMismatch(f"leq: lengths {len(u)} and {len(v)} differ")
    return all(a <= b + slack for a, b in zip(u, v))
