"""Closed-form Chebyshev distance for Lukasiewicz-implication systems.

The bounded-sum arithmetic of this kind collapses the cell statistics to a
single value per (row, column) pair:

    zeta[j][i] = max over all l of
                 luka_threshold(1 - gamma[j][i], 1 - gamma[l][i], beta[l], beta[j])

    tau_j   = min over ALL columns i of zeta[j][i]
    nabla_j = min(1 - beta[j], tau_j),   nabla = max_j nabla_j.

Note that tau_j ranges over every column, including those with a zero matrix
entry: the three solvers share one report skeleton, `report.build_report`,
but each aggregates over its own set of columns, because those sets
genuinely differ between kinds.  The shifted right-hand side varies
continuously under this implication, so the distance is always achieved and
every report carries the MINIMUM verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ImplicationKind, pos
from .operators import FuzzySystem
from .report import ChebyshevReport, RowDiagnostics, attained_row, build_report, check_cell


@dataclass(frozen=True)
class LukaCellStats:
    zeta: float


def luka_threshold(u: float, v: float, x: float, y: float) -> float:
    """Least delta with ((x - delta)^+ - v)^+ <= min(y + delta, 1) - u.

    Equals max((u - y)^+, min((x - v)^+, (x - y + u - v)^+ / 2)), evaluated
    in exactly this expanded form so float behaviour matches hand-checked
    values.
    """
    return max(pos(u - y), min(pos(x - v), pos(x - y + u - v) / 2.0))


def luka_cell(system: FuzzySystem, row: int, col: int) -> LukaCellStats:
    """Compute the cell statistic for one (row, col) pair (0-based)."""
    check_cell(system, row, col)
    gamma, beta = system.gamma, system.beta
    g = gamma[row][col]
    zeta = max(
        luka_threshold(1.0 - g, 1.0 - gamma[l][col], beta[l], beta[row])
        for l in range(system.m)
    )
    return LukaCellStats(zeta)


def luka_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Lukasiewicz-implication system."""
    return build_report(system, ImplicationKind.LUKASIEWICZ, luka_cell, _luka_row)


def _luka_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    return attained_row(system, j, cells, enumerate(cell.zeta for cell in cells))
