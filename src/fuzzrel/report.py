"""Closed-form Chebyshev distances of both system families.

`distance_report` gives the full report of a min-implication `FuzzySystem`;
`maxt_distance` gives the distance of a max-t-norm `MaxTSystem`, the
cross-validation family (its formulas are in its docstring).  Both read
their cells through `fuzzrel.algebra.column_scan`, and the thresholds of
both are written once in `fuzzrel.algebra.arithmetic`; this module binds
their float instance.

The three min-implication kinds differ only in the formula of their cell
statistics and in the rule that turns a row's cells into its tau_j; one
column scan and one report skeleton serve all three.  Every cell statistic
of cell (j, i) is a max over the rows l of column i of a kind-specific
threshold of (gamma[l][i], beta[l]), so a kind supplies only the formula
`stats(g, b, column)` of one cell, with g = gamma[j][i], b = beta[j] and
`column` the pairs (gamma[l][i], beta[l]) in row order that the kind's
column reducer keeps.  Every such threshold is non-decreasing in
gamma[l][i] and in beta[l], so for Godel and Goguen `column_scan` hands a
cell only the column's Pareto front (`fuzzrel.algebra.front`), the pairs no
other pair beats in both entries: the max over the front is the max over
the column, and a column of m rows usually keeps only a few pairs.  The
theta filters gamma[j][i] <= gamma[l][i] keep their max on the front too,
because the pair that dominates the cell's own row passes the filter.

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

Goguen, adapted to the product t-norm:

    theta[j][i] = max over {l : gamma[j][i] <= gamma[l][i], gamma[l][i] > 0}
                  of (beta[l] - gamma[j][i] / gamma[l][i])        (0 if empty)
    zeta[j][i]  = max over all l of
                  goguen_threshold(gamma[j][i], beta[l], gamma[l][i], beta[j])
    tau_j       = min over supporting i of max(theta[j][i], zeta[j][i])

On supporting cells theta <= zeta always holds, so tau_j is also the min of
the zetas; the row rule checks that both forms agree and raises
InvariantViolation when they do not.

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
a column's max is attained at its pair of greatest p.  The column reducer,
`FLOAT.luka_column` (`fuzzrel.algebra.top_pairs`), keeps the pairs whose
float key beta[l] - (1 - gamma[l][i]) is within KEY_WINDOW = 2^-50 of the
column's greatest, nearly always one pair, in O(m) with no sort; the window
is proven wide enough for the float cell to be the full scan's, bit for
bit.  A Lukasiewicz cell then costs one threshold.

`SOLVERS` maps each kind to its cell formula, column reducer and row rule;
`distance_report` looks the system's kind up there once, evaluates every
cell by `column_scan`, lets the row rule turn each row's cells into a
`RowDiagnostics` from `base_row` and aggregates the rows into a
`ChebyshevReport`.  `checked_cell` evaluates one cell by the same table for
the public `*_cell` functions, which check the system's kind first as the
`*_distance` functions do.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .algebra import FLOAT, ImplicationKind, checked_index, column_scan, front
from .errors import InvariantViolation, KindMismatch
from .operators import FuzzySystem, MaxTSystem

#: Width of the numeric window around strict-comparison ties inside which
#: the minimum/infimum classification is reported as fragile.
BORDERLINE_EPS = 1e-9

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


@dataclass(frozen=True)
class RowDiagnostics:
    """Per-row breakdown of the distance computation.

    nabla_j = min(one_minus_beta, tau_j) is the least tolerance that makes
    row `row` satisfiable.  tau_j aggregates the per-column cell statistics
    (convention: 1.0 when no column supports the row).  For the Godel kind,
    nabla_tilde_j is the least tolerance known to be achieved on the row
    (convention 1.0 when no column certifies achievement) and `attainable`
    records whether nabla_j itself is achieved; for the other kinds
    attainability always holds.  `borderline` marks rows whose
    minimum/infimum classification hinges on a comparison within 1e-9,
    i.e. is numerically fragile.
    """

    row: int
    nabla_j: float
    tau_j: float
    one_minus_beta: float
    attainable: bool
    argmin_col: int | None
    borderline: bool
    cells: tuple
    nabla_tilde_j: float | None = None


@dataclass(frozen=True)
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


def least(candidates) -> tuple[int | None, float]:
    """The first (column, value) pair of least value among `candidates`, or
    (None, 1.0) when there are none.  A loop, not `min` with a key: on the
    few candidates of a small row it costs less than half as much."""
    argmin, tau = None, 1.0
    for i, value in candidates:
        if argmin is None or value < tau:
            argmin, tau = i, value
    return argmin, tau


def base_row(system, row: int, cells: tuple, candidates) -> RowDiagnostics:
    """Diagnostics of a row, attainable and not borderline; tau and its
    column are the `least` of the (column, value) `candidates`.  Godel rows
    amend the attainability fields with `dataclasses.replace`."""
    argmin, tau = least(candidates)
    one_minus_beta = 1.0 - system.beta[row]
    return RowDiagnostics(
        row=row,
        nabla_j=tau if tau < one_minus_beta else one_minus_beta,
        tau_j=tau,
        one_minus_beta=one_minus_beta,
        attainable=True,
        argmin_col=argmin,
        borderline=False,
        cells=cells,
    )


def _supported_row(system, j: int, cells: tuple) -> RowDiagnostics:
    """Row whose tau is the least max(theta, zeta) over its supporting cells."""
    return base_row(
        system,
        j,
        cells,
        ((i, c.zeta if c.zeta > c.theta else c.theta) for i, c in enumerate(cells) if c.support),
    )


# The cell formulas take theta and zeta in one pass over the column, each a
# running max that a value replaces only when strictly greater, so the first
# of equal values wins as with `max` (see `fuzzrel.algebra.arithmetic`).
def _godel_stats(g: float, b: float, column) -> GodelCellStats:
    # The cell's own row always qualifies, so theta is never a max over an
    # empty set.
    theta = zeta = None
    for gl, bl in column:
        t = godel_threshold(bl, gl, b)
        if zeta is None or t > zeta:
            zeta = t
        if g <= gl:
            t = bl - g
            if theta is None or t > theta:
                theta = t
    support = g > 0.0
    borderline = support and abs(theta - zeta) <= BORDERLINE_EPS
    return GodelCellStats(theta, zeta, support, borderline)


def _godel_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    row = _supported_row(system, j, cells)
    tau, nabla_j, one_minus_beta = row.tau_j, row.nabla_j, row.one_minus_beta

    nabla_tilde = min((c.zeta for c in cells if c.support and c.theta < c.zeta), default=1.0)
    attainable = nabla_j == one_minus_beta or nabla_j == nabla_tilde

    # Fragility: a theta/zeta tie at the value deciding tau, or a near miss
    # in either comparison that ruled the row non-attainable.  A row
    # certified attainable by some cell that clears the strictness test with
    # margin is immune to tie flips elsewhere.
    robustly_attainable = attainable and (
        nabla_j == one_minus_beta
        or any(
            cell.support
            and cell.zeta == tau
            and cell.theta <= cell.zeta - BORDERLINE_EPS
            for cell in cells
        )
    )
    borderline = not robustly_attainable and any(
        cell.borderline and max(cell.theta, cell.zeta) <= tau + BORDERLINE_EPS
        for cell in cells
        if cell.support
    )
    if not attainable:
        borderline = (
            borderline
            or abs(nabla_tilde - nabla_j) <= BORDERLINE_EPS
            or abs(one_minus_beta - tau) <= BORDERLINE_EPS
        )

    return replace(row, attainable=attainable, borderline=borderline, nabla_tilde_j=nabla_tilde)


def _goguen_stats(g: float, b: float, column) -> GoguenCellStats:
    theta = zeta = None
    for gl, bl in column:
        t = goguen_threshold(g, bl, gl, b)
        if zeta is None or t > zeta:
            zeta = t
        if gl > 0.0 and g <= gl:
            t = bl - g / gl
            if theta is None or t > theta:
                theta = t
    support = g > 0.0
    if theta is None:
        # A supporting cell always dominates its own row, so the empty-set
        # convention theta = 0 is only ever reachable on non-supporting cells.
        if support:
            raise InvariantViolation(f"supporting cell with entry {g!r} dominates no row")
        theta = 0.0
    return GoguenCellStats(theta, zeta, support)


def _goguen_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    row = _supported_row(system, j, cells)
    # theta <= zeta on supporting cells, so the min of the zetas is an
    # equivalent form of tau (up to one ulp when a tie is split by float
    # rounding).
    _, tau_via_zeta = least((i, c.zeta) for i, c in enumerate(cells) if c.support)
    if not abs(row.tau_j - tau_via_zeta) <= 1e-12:
        raise InvariantViolation(
            f"row {j}: tau {row.tau_j!r} differs from the least zeta {tau_via_zeta!r}"
        )
    return row


def _luka_stats(g: float, b: float, column) -> LukaCellStats:
    u = 1.0 - g
    zeta = None
    for gl, bl in column:
        t = luka_threshold(u, 1.0 - gl, bl, b)
        if zeta is None or t > zeta:
            zeta = t
    return LukaCellStats(zeta)


def _luka_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    return base_row(system, j, cells, enumerate(cell.zeta for cell in cells))


#: A kind's cell formula `cell(g, b, column)`, the reducer `column(pairs)`
#: that keeps the pairs of a column its cells can attain their max at, and
#: its row rule `row(system, j, cells)`; a `fuzzrel.algebra.Kernel` with a
#: row rule.
Solver = namedtuple("Solver", "cell column row")

SOLVERS = {
    ImplicationKind.GODEL: Solver(_godel_stats, front, _godel_row),
    ImplicationKind.GOGUEN: Solver(_goguen_stats, front, _goguen_row),
    ImplicationKind.LUKASIEWICZ: Solver(_luka_stats, FLOAT.luka_column, _luka_row),
}


def distance_report(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report of `system`, by the solver of its kind.

    nabla is the max of the row distances.  The verdict is MINIMUM when
    every row at nabla is attainable.  Rows strictly below the max cannot
    affect membership at nabla, except when they sit within BORDERLINE_EPS
    of it: a row tied with nabla in exact arithmetic but split off by float
    rounding could change the verdict, so such near-ties are reported as
    fragile too.
    """
    solver = SOLVERS[system.kind]
    cells = column_scan(system.gamma, system.beta, solver)
    rows = tuple(solver.row(system, j, row) for j, row in enumerate(cells))
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
    return ChebyshevReport(system.kind, nabla, verdict, rows, borderline)


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
    The cells are the table `maxt_cells` of `fuzzrel.algebra.arithmetic`.
    `fuzzrel.oracle.exact_maxt_distance` gives the same formulas' exact value
    on rationals: it scans these float cells and re-evaluates in Fractions
    only those within twice a proven error bound of a row minimum, in the
    rows within twice that bound of the max.
    """
    return FLOAT.maxt_distance(system.a, system.b, system.kind)


def checked_cell(system: FuzzySystem, row: int, col: int):
    """Cell statistics of the (row, col) cell (0-based) of `system`, by the
    cell formula of its kind; an index that is not an integer raises
    TypeError and a pair outside the system's matrix IndexError."""
    row = checked_index(row, system.m, "row", "rows")
    col = checked_index(col, system.n, "col", "columns")
    solver = SOLVERS[system.kind]
    column = solver.column(tuple(zip([entry[col] for entry in system.gamma], system.beta)))
    return solver.cell(system.gamma[row][col], system.beta[row], column)


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
