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

from dataclasses import dataclass

from .algebra import FLOAT, ImplicationKind
from .operators import FuzzySystem
from .report import (
    BORDERLINE_EPS,
    ChebyshevReport,
    RowDiagnostics,
    build_report,
    check_cell,
    least,
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
    check_cell(system, row, col)
    gamma, beta = system.gamma, system.beta
    g = gamma[row][col]
    # l = row always qualifies, so the max is never over an empty set.
    theta = max(beta[l] - g for l in range(system.m) if g <= gamma[l][col])
    zeta = max(godel_threshold(beta[l], gamma[l][col], beta[row]) for l in range(system.m))
    support = g > 0.0
    borderline = support and abs(theta - zeta) <= BORDERLINE_EPS
    return GodelCellStats(theta, zeta, support, borderline)


def godel_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Godel-implication system."""
    return build_report(system, ImplicationKind.GODEL, godel_cell, _godel_row)


def _godel_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    one_minus_beta = 1.0 - system.beta[j]
    tau, argmin = least(
        (i, max(cell.theta, cell.zeta)) for i, cell in enumerate(cells) if cell.support
    )

    nabla_tilde = 1.0
    for cell in cells:
        if cell.support and cell.theta < cell.zeta:
            nabla_tilde = min(nabla_tilde, cell.zeta)

    nabla_j = min(one_minus_beta, tau)
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
