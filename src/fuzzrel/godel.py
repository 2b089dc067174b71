"""Closed-form Chebyshev distance for Godel-implication systems.

For each row j and column i the computation aggregates two statistics over
the rows l of the system:

    theta[j][i] = max over {l : gamma[j][i] <= gamma[l][i]} of (beta[l] - gamma[j][i])
    zeta[j][i]  = max over all l of godel_threshold(beta[l], gamma[l][i], beta[j])

A column i with gamma[j][i] > 0 "supports" row j.  With

    tau_j = min over supporting i of max(theta[j][i], zeta[j][i])   (1 if none)

the row distance is nabla_j = min(1 - beta[j], tau_j) and the distance of
beta to the consistent set is nabla = max_j nabla_j.

Unlike the other two kinds, the distance here is not always achieved.  A row
achieves nabla_j iff nabla_j = 1 - beta[j], or nabla_j equals

    nabla_tilde_j = min over {supporting i : theta[j][i] < zeta[j][i]} of zeta[j][i]

(1 if the set is empty).  The strictness of theta < zeta is essential: the
minimum/infimum dichotomy genuinely flips on it, so the comparison is made
exactly on the computed floats and a `borderline` flag is raised whenever a
decision sits within BORDERLINE_EPS of the tie, letting callers know the
verdict is numerically fragile.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import FLOAT, ImplicationKind
from .operators import FuzzySystem
from .report import (
    BORDERLINE_EPS,
    ChebyshevReport,
    RowDiagnostics,
    base_row,
    build_report,
    checked_cell,
)


@dataclass(frozen=True)
class GodelCellStats:
    """Statistics of one (row, column) cell.

    theta may be negative and is kept signed.  `support` records whether the
    cell's matrix entry is positive, `borderline` whether theta and zeta are
    within BORDERLINE_EPS of each other on a supporting cell.
    """

    theta: float
    zeta: float
    support: bool
    borderline: bool


godel_threshold = FLOAT.godel_threshold


def godel_cell(system: FuzzySystem, row: int, col: int) -> GodelCellStats:
    """Compute the cell statistics for one (row, col) pair (0-based)."""
    return checked_cell(system, row, col, _godel_stats)


def _godel_stats(g: float, b: float, column) -> GodelCellStats:
    # The cell's own row always qualifies, so the max is never over an empty set.
    theta = max(bl - g for gl, bl in column if g <= gl)
    zeta = max(godel_threshold(bl, gl, b) for gl, bl in column)
    support = g > 0.0
    borderline = support and abs(theta - zeta) <= BORDERLINE_EPS
    return GodelCellStats(theta, zeta, support, borderline)


def godel_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Godel-implication system."""
    return build_report(system, ImplicationKind.GODEL, _godel_stats, _godel_row)


def _godel_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    row = base_row(
        system, j, cells, ((i, max(c.theta, c.zeta)) for i, c in enumerate(cells) if c.support)
    )
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
