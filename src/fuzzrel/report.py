"""Shared result types and report skeleton of the closed-form solvers.

The three min-implication solvers differ in the formula of their cell
statistics and in the set of columns each row aggregates over, not in how a
report is put together.  Every cell statistic of cell (j, i) is a max over
the rows l of column i of an implicator-specific threshold of
(gamma[l][i], beta[l]), so a solver supplies only the formula
`stats(g, b, column)` of one cell, with g = gamma[j][i], b = beta[j] and
`column` the pairs (gamma[l][i], beta[l]) in row order.  `build_report`
checks the kind, evaluates every cell by `fuzzrel.algebra.column_scan` (the
scan the max-t distances use too), lets the solver turn each row's cells
into a `RowDiagnostics` from `base_row` and aggregates the rows into a
`ChebyshevReport`; `checked_cell` evaluates one cell for the public
`*_cell` functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import ImplicationKind, column_scan
from .errors import KindMismatch

#: Width of the numeric window around strict-comparison ties inside which
#: the minimum/infimum classification is reported as fragile.
BORDERLINE_EPS = 1e-9


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


def checked_cell(system, row: int, col: int, stats):
    """`stats` of the (row, col) cell (0-based) of `system`; a pair outside
    the system's matrix raises IndexError."""
    if not 0 <= row < system.m:
        raise IndexError(f"row {row} out of range for {system.m} rows")
    if not 0 <= col < system.n:
        raise IndexError(f"col {col} out of range for {system.n} columns")
    column = tuple(zip([entry[col] for entry in system.gamma], system.beta))
    return stats(system.gamma[row][col], system.beta[row], column)


def least(candidates) -> tuple[float, int | None]:
    """(tau, argmin) over (column, value) pairs: the first least value and
    its column, or (1.0, None) when there are no candidates."""
    tau, argmin = 1.0, None
    for i, value in candidates:
        if argmin is None or value < tau:
            tau, argmin = value, i
    return tau, argmin


def base_row(system, row: int, cells: tuple, candidates) -> RowDiagnostics:
    """Diagnostics of a row, attainable and not borderline; tau and its
    column are the `least` of the (column, value) `candidates`.  Godel rows
    amend the attainability fields with `dataclasses.replace`."""
    tau, argmin = least(candidates)
    one_minus_beta = 1.0 - system.beta[row]
    return RowDiagnostics(
        row=row,
        nabla_j=min(one_minus_beta, tau),
        tau_j=tau,
        one_minus_beta=one_minus_beta,
        attainable=True,
        argmin_col=argmin,
        borderline=False,
        cells=cells,
    )


def build_report(system, kind: ImplicationKind, stats, row_diagnostics) -> ChebyshevReport:
    """Report of `system` from its cells `stats(gamma[j][i], beta[j], column
    i)` and rows `row_diagnostics(system, j, cells)`.

    nabla is the max of the row distances.  The verdict is MINIMUM when
    every row at nabla is attainable.  Rows strictly below the max cannot
    affect membership at nabla, except when they sit within BORDERLINE_EPS
    of it: a row tied with nabla in exact arithmetic but split off by float
    rounding could change the verdict, so such near-ties are reported as
    fragile too.
    """
    if system.kind is not kind:
        raise KindMismatch(
            f"expected a {kind.value.capitalize()} system, got kind {system.kind.value!r}"
        )
    cells = column_scan(system.gamma, system.beta, stats)
    rows = tuple(row_diagnostics(system, j, row) for j, row in enumerate(cells))
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
