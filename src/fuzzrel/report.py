"""Closed-form Chebyshev distances of both system families.

`distance_report` gives the full report of a min-implication `FuzzySystem`;
`maxt_distance` gives the distance of a max-t-norm `MaxTSystem`, the
cross-validation family (its formulas are in its docstring).  Both read
their cells through `fuzzrel.algebra.column_scan`, and the thresholds and
cell formulas of both are written once in `fuzzrel.algebra.arithmetic`,
for any number type; this module reads their float instance, `FLOAT`, and
adds the row rules, which run on floats.

The three min-implication kinds differ only in the formula of their cell
statistics and in the rule that turns a row's cells into its tau_j; one
column scan and one report skeleton serve all three.  Every cell statistic
of cell (j, i) is a max over the rows l of column i of a kind-specific
threshold of (gamma[l][i], beta[l]), so a kind supplies only a function
that returns the cells of one column, its entry of `FLOAT.cells`.  Every
such threshold is non-decreasing in gamma[l][i] and in beta[l], so a
column's max is attained on its Pareto front (`fuzzrel.algebra.front`), the
pairs no other pair beats in both entries; a column of m rows usually
keeps only a few.  The theta filters gamma[j][i] <= gamma[l][i] keep their
max on the front too, because the pair that dominates the cell's own row
passes the filter.  The Goguen and Lukasiewicz entries are a
`fuzzrel.algebra.Kernel`: a cell formula `cell(g, b, column)`, with g =
gamma[j][i], b = beta[j] and `column` the pairs (gamma[l][i], beta[l]) in
row order that the kind's column reducer keeps, mapped down the column.
The Godel entry computes its whole column in one sweep.

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

A Godel column costs two sorts and about two threshold evaluations per row,
and its floats are the full scan's, bit for bit:

- theta.  Sort the column's pairs by (g, b) descending, stably.  The pairs
  with gamma[l][i] >= g lie before or level with the cell's own, and those
  level with it and after it have no greater b; so the running max of b
  down that order, less g, is theta.  Subtracting the same g is monotone,
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
  column visits the distinct values of beta in increasing order and walks
  p from where it was, testing the float A >= B at every step; the walk's
  length is amortised, and its result never depends on that.

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

by the same float operations as `goguen_threshold`, and with its subnormal
underflow (ROADMAP item 5).  For g = 0 every threshold, and zeta, is 0.

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
for bit.  A Lukasiewicz cell then costs one threshold.

`distance_report` looks the system's kind up once in `FLOAT.cells`, for its
column of cells, and once in `_ROW_RULES`, for its row rule; it evaluates
every cell by `column_scan`, lets the row rule turn each row's cells into a
`RowDiagnostics` and aggregates the rows into a `ChebyshevReport`.
`checked_cell` takes one cell of the column that the same entry of
`FLOAT.cells` returns, for the public `*_cell` functions, which check the
system's kind first as the `*_distance` functions do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .algebra import (
    BORDERLINE_EPS, FLOAT, GodelCellStats, GoguenCellStats, ImplicationKind, LukaCellStats,
    checked_index, column_scan,
)
from .errors import InvariantViolation, KindMismatch
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
    column are the `least` of the (column, value) `candidates`.  The Goguen
    and Lukasiewicz rows are these; the Godel row rule builds its rows in
    its own pass."""
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


def _godel_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    """Row whose tau is the least max(theta, zeta) over its supporting cells,
    with the attainability of nabla_j, in one pass over the cells.

    The pass keeps tau and its first column, nabla_tilde_j, whether some
    cell at the least value so far is a robust witness (its theta clears
    its zeta by BORDERLINE_EPS, so its value is its zeta), and the least
    value of a borderline cell, compared with tau + BORDERLINE_EPS at the
    end.
    """
    argmin, tau, nabla_tilde, witness, low = None, 1.0, 1.0, False, math.inf
    for i, cell in enumerate(cells):
        if cell.support:
            theta, zeta = cell.theta, cell.zeta
            value = zeta if zeta > theta else theta
            robust = theta <= zeta - BORDERLINE_EPS
            if argmin is None or value < tau:
                argmin, tau, witness = i, value, robust
            elif value == tau and robust:
                witness = True
            if theta < zeta and zeta < nabla_tilde:
                nabla_tilde = zeta
            if cell.borderline and value < low:
                low = value
    one_minus_beta = 1.0 - system.beta[j]
    nabla_j = tau if tau < one_minus_beta else one_minus_beta
    attainable = nabla_j == one_minus_beta or nabla_j == nabla_tilde

    # Fragility: a theta/zeta tie at the value deciding tau, or a near miss
    # in either comparison that ruled the row non-attainable.  A row
    # certified attainable by some cell that clears the strictness test with
    # margin is immune to tie flips elsewhere.
    robustly_attainable = attainable and (nabla_j == one_minus_beta or witness)
    borderline = not robustly_attainable and low <= tau + BORDERLINE_EPS
    if not attainable:
        borderline = (
            borderline
            or abs(nabla_tilde - nabla_j) <= BORDERLINE_EPS
            or abs(one_minus_beta - tau) <= BORDERLINE_EPS
        )
    return RowDiagnostics(
        row=j,
        nabla_j=nabla_j,
        tau_j=tau,
        one_minus_beta=one_minus_beta,
        attainable=attainable,
        argmin_col=argmin,
        borderline=borderline,
        cells=cells,
        nabla_tilde_j=nabla_tilde,
    )


def _goguen_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    """Row whose tau is the least max(theta, zeta) over its supporting cells."""
    row = base_row(
        system,
        j,
        cells,
        ((i, c.zeta if c.zeta > c.theta else c.theta) for i, c in enumerate(cells) if c.support),
    )
    # theta <= zeta on supporting cells, so the min of the zetas is an
    # equivalent form of tau (up to one ulp when a tie is split by float
    # rounding).
    _, tau_via_zeta = least((i, c.zeta) for i, c in enumerate(cells) if c.support)
    if not abs(row.tau_j - tau_via_zeta) <= 1e-12:
        raise InvariantViolation(
            f"row {j}: tau {row.tau_j!r} differs from the least zeta {tau_via_zeta!r}"
        )
    return row


def _luka_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    return base_row(system, j, cells, enumerate(cell.zeta for cell in cells))


#: Each kind's row rule `row(system, j, cells)`, which turns the cells of
#: row j, by the kind's entry of `FLOAT.cells`, into its `RowDiagnostics`.
_ROW_RULES = {
    ImplicationKind.GODEL: _godel_row,
    ImplicationKind.GOGUEN: _goguen_row,
    ImplicationKind.LUKASIEWICZ: _luka_row,
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
    rule = _ROW_RULES[system.kind]
    cells = column_scan(system.gamma, system.beta, FLOAT.cells[system.kind])
    rows = tuple(rule(system, j, row) for j, row in enumerate(cells))
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
    return FLOAT.cells[system.kind]([entry[col] for entry in system.gamma], system.beta)[row]


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
