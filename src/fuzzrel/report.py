"""Closed-form Chebyshev distances of both system families.

`distance_report` gives the full report of a min-implication `FuzzySystem`;
`maxt_distance` gives the distance of a max-t-norm `MaxTSystem`, the
cross-validation family (its formulas are in its docstring).  The first
reads its cells through `fuzzrel.algebra.column_scan`, the second through
the system's `float_cells`; the thresholds and cell formulas of both,
and the row rules of the first, are written once in
`fuzzrel.algebra.arithmetic`, for any number type.  This module keeps the
report skeleton, which runs on either instance, and the public entry
points, which read the float instance, `FLOAT`.

The three min-implication kinds differ only in the formula of their cell
statistics and in the rule that turns a row's cells into its tau_j, their
entries of `Arithmetic.cells` and `Arithmetic.row_rules`; one column scan
and one report skeleton serve all three.  Every cell statistic
of cell (j, i) is a max over the rows l of column i of a kind-specific
threshold of (gamma[l][i], beta[l]), so a kind supplies only a function
that returns the cells of one column, its entry of `FLOAT.cells`.  Every
such threshold is non-decreasing in gamma[l][i] and in beta[l], so a
column's max is attained on its Pareto front (`fuzzrel.algebra.front`), the
pairs no other pair beats in both entries; a column of m rows usually
keeps only a few.  The theta filters gamma[j][i] <= gamma[l][i] keep their
max on the front too, because the pair that dominates the cell's own row
passes the filter.  Each entry `f(xs, system)` takes beta and the system
once per system and returns the function of a column's gamma entries
`us` and index i that gives its cells: it reduces the pairs (gamma[l][i],
beta[l]) by the kind's reducer, and computes the cell of every row g =
gamma[j][i], b = beta[j] over the kept pairs in one frame, with the
kind's threshold written out; it returns its cells field-major, one flat
tuple per field, and builds neither a tuple per cell nor a record.  The
kind's row rule reduces row j of each field, and the row builds its
records on the first read of its `cells`, so a report whose cells nobody
reads builds none of its m n records.  The Goguen entry reads column
i's front from the system, system.fronts[i], which the system builds on
its first read and keeps, once per system for the report,
`checked_cell` and the membership tests of the oracle alike;
every front sorts the system's one order of beta (`beta_order`) by the
column's own gamma entries only.  The Godel entry sorts beta itself, once
per report, and computes its whole column in one sweep; neither it nor
the Lukasiewicz entry, which sorts nothing, reads the system's fronts.

A column i with gamma[j][i] > 0 "supports" row j.  Every kind has

    nabla_j = min(1 - beta[j], tau_j),   nabla = max_j nabla_j,

with tau_j = 1 when no column qualifies.

Godel:

    theta[j][i] = max over {l : gamma[j][i] <= gamma[l][i]} of (beta[l] - gamma[j][i])
    zeta[j][i]  = max over all l of godel_threshold(beta[l], gamma[l][i], beta[j])
    tau_j       = min over supporting i of max(theta[j][i], zeta[j][i])

Unlike the other two kinds, the distance here is not always achieved.  A row
achieves nabla_j iff nabla_j = 1 - beta[j], or nabla_j equals

    nabla_tilde_j = min over {supporting i : theta[j][i] < zeta[j][i]} of zeta[j][i]

(1 if the set is empty).  The strictness of theta < zeta is essential: the
minimum/infimum dichotomy genuinely flips on it, so the comparison is made
exactly on the computed floats and a `borderline` flag is raised whenever a
decision sits within BORDERLINE_EPS of the tie, letting callers know the
verdict is numerically fragile.

A Godel column costs one sort and about two threshold evaluations per row,
and its floats are the full scan's, bit for bit.  What every column of the
system shares is computed once: the row order of beta, descending, and
the distinct values of beta in increasing order, its levels, with the
rank of each row's value among them.

- theta.  Sort the system's order of beta by the column's g, descending,
  stably: that is the stable sort of the column's pairs by (g, b)
  descending, as of equal g the order of b, and of equal pairs the row
  order, stays.  The pairs with gamma[l][i] >= g lie before or level with
  the cell's own, and those level with it and after it have no greater b;
  so the running max of b down that order, less g, is theta.  Subtracting the same g is monotone,
  so this is the full scan's max(beta[l] - g); of equal b the running max
  keeps the first row's, as the scan does, which decides the sign of a
  zero theta.
- zeta depends on beta[j] = b alone.  Along the front in sweep order g
  strictly falls and b strictly rises, so A_l = fl(fl(bl - b)^+) / 2 never
  falls and B_l = fl(gl - b)^+ never rises: rounding is monotone.  The
  float test A_l >= B_l is therefore false, then true, and the threshold
  min(A_l, B_l) is A_l before its first true index p and B_l from p on,
  so zeta = max(A_{p-1}, B_p), the full scan's float.
- In exact arithmetic A_l >= B_l iff b >= min(gl, 2 gl - bl), a bound that
  falls along the front, so p never moves right while b increases.  The
  column visits the levels of beta in increasing order and walks p from
  where it was, testing the float A >= B at every step; the walk's length
  is amortised, and its result never depends on that.  Each cell reads the
  zeta of its row's rank.

Goguen, adapted to the product t-norm:

    theta[j][i] = max over {l : gamma[j][i] <= gamma[l][i], gamma[l][i] > 0}
                  of (beta[l] - gamma[j][i] / gamma[l][i])        (0 if empty)
    zeta[j][i]  = max over all l of
                  goguen_threshold(gamma[j][i], beta[l], gamma[l][i], beta[j])
    tau_j       = min over supporting i of max(theta[j][i], zeta[j][i])

On supporting cells theta <= zeta always holds, so tau_j is also the min of
the zetas; the row rule checks that both forms agree and raises
InvariantViolation when they do not.

The Goguen cell makes no `goguen_threshold` call.  For g = gamma[j][i] > 0,
a pair with 0 < gl < g has fl(g / gl) >= 1, so its term (bl - g / gl)^+ is
0, and the terms of the other pairs with gl > 0 are those of theta.  A max
commutes with max, and with min against a constant, so

    zeta = max(theta^+, min(max_l R_l, 1 - b)),
    R_l  = (bl gl - g b)^+ / (g + gl) over the pairs with gl > 0,

by the same float operations as `goguen_threshold`, its rescale included:
g and gl are scaled by QUOTIENT_SCALE when g + gl lies below
QUOTIENT_FLOOR, so subnormal entries do not underflow.  For g = 0 every
threshold, and zeta, is 0.  The column drops the front pairs with gl = 0
and computes each bl gl once per pair and g b once per cell: the same
float products of the same operands, so the cells are bit-identical to a
per-pair evaluation.  The column gives the zeta of a supporting cell
and, on a cell with g = 0, a sentinel above every zeta, so the row rule
takes tau, the least zeta, and its column by `min` and `index`.

Lukasiewicz, whose bounded-sum arithmetic collapses a cell to one value:

    zeta[j][i] = max over all l of
                 luka_threshold(1 - gamma[j][i], 1 - gamma[l][i], beta[l], beta[j])
    tau_j      = min over ALL columns i of zeta[j][i]

tau_j ranges over every column here, including those with a zero matrix
entry, because the aggregation sets genuinely differ between kinds.  For
Goguen and Lukasiewicz the distance is always achieved, so their reports
carry the MINIMUM verdict.  With p = gamma[l][i] + beta[l] - 1, the
threshold is max(s^+, min(p^+, (p + s)^+ / 2)) for an s of the cell's own,
so it depends on the pair through p alone and does not decrease with it:
a column's max is attained at its pair of greatest p.  The column reducer
of `FLOAT.cells[LUKASIEWICZ]` (`fuzzrel.algebra.top_pairs`) keeps the pairs
whose float key beta[l] - (1 - gamma[l][i]) is within KEY_WINDOW = 2^-50 of
the column's greatest, nearly always one pair, in O(m) with no sort; the
window is proven wide enough for the float cell to be the full scan's, bit
for bit.  A Lukasiewicz cell then costs one threshold, written out in the
column's loop, with (p)^+ computed once per kept pair and s^+ once per
cell.

The skeleton, `_report(ar, kind, gamma, columns, beta, prepared)`, looks
the kind up once in `ar.cells`, for the cells of its columns, and once in
`ar.row_rules`, for its row rule; it evaluates every cell by
`column_scan`, lets the row rule turn each row's gamma entries and flat
field tuples into a `RowDiagnostics` and aggregates the rows into a
`ChebyshevReport`.  Every value it builds is of the number type of `ar`:
the literals are the instance's own, and BORDERLINE_EPS is only compared
here.  `distance_report` runs it on `FLOAT` and the system's `gamma` and
prepared `columns`, with the system itself for the fronts.
`checked_cell` takes one cell of the column that the kind's entry of
`FLOAT.cells`, given the system's beta and the system, returns, and
builds its record by the kind's entry of `FLOAT.records`, as a row does,
for the public `*_cell` functions, which check the system's kind first as
the `*_distance` functions do.  A Goguen cell builds the front of its own
column only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import (
    BORDERLINE_EPS, FLOAT, GodelCellStats, GoguenCellStats, ImplicationKind, LukaCellStats,
    RowDiagnostics, _dict_init, checked_index, column_scan,
)
from .errors import KindMismatch
from .operators import FuzzySystem, MaxTSystem

godel_threshold = FLOAT.godel_threshold
goguen_threshold = FLOAT.goguen_threshold
luka_threshold = FLOAT.luka_threshold
maxprod_ratio = FLOAT.maxprod_ratio
maxprod_threshold = FLOAT.maxprod_threshold
maxluka_threshold = FLOAT.maxluka_threshold


class Attainability(Enum):
    """Whether the Chebyshev distance is actually achieved by some
    consistent right-hand side (MINIMUM) or only approached (INFIMUM)."""

    MINIMUM = "minimum"
    INFIMUM = "infimum"


@_dict_init
@dataclass(frozen=True, init=False)
class ChebyshevReport:
    """Chebyshev distance of a right-hand side to the consistent set.

    nabla = max_j nabla_j.  The verdict is MINIMUM when every row attaining
    the max achieves its row distance, INFIMUM otherwise (possible only for
    the Godel kind).  `borderline` is True when some row that decides the
    verdict is numerically fragile.
    """

    kind: ImplicationKind
    nabla: float
    verdict: Attainability
    rows: tuple[RowDiagnostics, ...]
    borderline: bool = False


def _report(ar, kind: ImplicationKind, gamma, columns, beta, prepared) -> ChebyshevReport:
    """Chebyshev distance report, on the instance `ar`, of the system of
    kind `kind` whose matrix has the rows `gamma` and the columns `columns`
    and whose right-hand side is `beta`, all of the number type of `ar`;
    the Godel row rule reads a cell's support off its row's gamma
    entries.  The Goguen entry reads the rising `front` of column i's
    pairs, of the same type, as prepared.fronts[i]; `prepared` is the
    system itself on `FLOAT`, and no other entry reads it.

    nabla is the max of the row distances.  The verdict is MINIMUM when
    every row at nabla is attainable.  Rows strictly below the max cannot
    affect membership at nabla, except when they sit within BORDERLINE_EPS
    of it: a row tied with nabla in exact arithmetic but split off by float
    rounding could change the verdict, so such near-ties are reported as
    fragile too.
    """
    rule = ar.row_rules[kind]
    fields = column_scan(columns, beta, ar.cells[kind], prepared)
    rows = tuple(map(rule, range(len(beta)), beta, gamma, *fields))
    nabla = max(r.nabla_j for r in rows)
    verdict = (
        Attainability.MINIMUM
        if all(r.attainable for r in rows if r.nabla_j == nabla)
        else Attainability.INFIMUM
    )
    borderline = any(
        (r.borderline or (not r.attainable and r.nabla_j != nabla))
        and abs(r.nabla_j - nabla) <= BORDERLINE_EPS
        for r in rows
    )
    return ChebyshevReport(kind, nabla, verdict, rows, borderline)


def distance_report(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report of `system`, by the solver of its kind: the
    skeleton `_report` on `FLOAT` and the system's `gamma`, prepared
    `columns` and `fronts`."""
    return _report(FLOAT, system.kind, system.gamma, system.columns, system.beta, system)


def maxt_distance(system: MaxTSystem) -> float:
    """Chebyshev distance of `b` to the consistent set of the max-t system.

    For each t-norm the distance has a closed form over the cells (i, j),
    with the max over k running over the rows of column j:

        min t-norm   max_i min_j max((b[i] - a[i][j])^+,
                                     max_k godel_threshold(b[i], a[k][j], b[k]))
        product      max_i min_j max_k maxprod_threshold(a[i][j], b[i], a[k][j], b[k])
        Lukasiewicz  max_i min_j max_k maxluka_threshold(1 - a[i][j], b[i], a[k][j], b[k])

    It equals min{delta : lower_shift(b, delta) <= maxt_closure(a, kind,
    upper_shift(b, delta))} and is always achieved.
    Cell (i, j) is the kind's formula in the table `maxt_cells` of
    `fuzzrel.algebra.arithmetic`, over the pairs of column j that the
    system keeps, `MaxTSystem.kept`: only those can attain its max over k.
    `fuzzrel.oracle.exact_maxt_distance` gives the same formulas' exact value
    on rationals: it scans these float cells and re-evaluates in Fractions
    only those within twice a proven error bound of a row minimum, in the
    rows within twice that bound of the max.  Both read the system's
    `float_cells`, which it scans once.
    """
    return FLOAT.maxt_value(system.float_cells)


def checked_cell(system: FuzzySystem, row: int, col: int):
    """Cell statistics of the (row, col) cell (0-based) of `system`, by the
    cell formula of its kind, as the kind's record; an index that is not an
    integer raises TypeError and a pair outside the system's matrix
    IndexError."""
    row = checked_index(row, system.m, "row", "rows")
    col = checked_index(col, system.n, "col", "columns")
    us, kind = system.columns[col], system.kind
    fields = FLOAT.cells[kind](system.beta, system)(us, col)
    (cell,) = FLOAT.records[kind]((us[row],), *((field[row],) for field in fields))
    return cell


def _of_kind(system: FuzzySystem, expected: ImplicationKind) -> FuzzySystem:
    """`system` itself; a system of another kind raises KindMismatch."""
    if system.kind is not expected:
        raise KindMismatch(
            f"expected a {expected.value.capitalize()} system, got kind {system.kind.value!r}"
        )
    return system


def godel_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Godel-implication system."""
    return distance_report(_of_kind(system, ImplicationKind.GODEL))


def goguen_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Goguen-implication system."""
    return distance_report(_of_kind(system, ImplicationKind.GOGUEN))


def luka_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Lukasiewicz-implication system."""
    return distance_report(_of_kind(system, ImplicationKind.LUKASIEWICZ))


def godel_cell(system: FuzzySystem, row: int, col: int) -> GodelCellStats:
    """Godel cell statistics of one (row, col) pair (0-based)."""
    return checked_cell(_of_kind(system, ImplicationKind.GODEL), row, col)


def goguen_cell(system: FuzzySystem, row: int, col: int) -> GoguenCellStats:
    """Goguen cell statistics of one (row, col) pair (0-based)."""
    return checked_cell(_of_kind(system, ImplicationKind.GOGUEN), row, col)


def luka_cell(system: FuzzySystem, row: int, col: int) -> LukaCellStats:
    """Lukasiewicz cell statistic of one (row, col) pair (0-based)."""
    return checked_cell(_of_kind(system, ImplicationKind.LUKASIEWICZ), row, col)
