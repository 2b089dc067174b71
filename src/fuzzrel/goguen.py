"""Closed-form Chebyshev distance for Goguen-implication systems.

The column scan and the report skeleton are those of every solver,
`report.build_report`; this module supplies the cell formula, adapted to
the product t-norm:

    theta[j][i] = max over {l : gamma[j][i] <= gamma[l][i], gamma[l][i] > 0}
                  of (beta[l] - gamma[j][i] / gamma[l][i])        (0 if empty)
    zeta[j][i]  = max over all l of
                  goguen_threshold(gamma[j][i], beta[l], gamma[l][i], beta[j])

    tau_j   = min over supporting i of max(theta[j][i], zeta[j][i])  (1 if none)
    nabla_j = min(1 - beta[j], tau_j),   nabla = max_j nabla_j.

On supporting cells theta <= zeta always holds, so tau_j is also the min of
the zetas; the implementation checks that both forms agree and raises
InvariantViolation when they do not.  The distance is always achieved here,
so every report carries the MINIMUM verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import ImplicationKind, pos
from .errors import InvariantViolation
from .operators import FuzzySystem
from .report import (
    ChebyshevReport,
    RowDiagnostics,
    base_row,
    build_report,
    checked_cell,
    least,
)


@dataclass(frozen=True)
class GoguenCellStats:
    """Statistics of one (row, column) cell; theta is kept signed."""

    theta: float
    zeta: float
    support: bool


def goguen_threshold(u: float, x: float, y: float, z: float) -> float:
    """Least delta with y * (x - delta)^+ / u <= min(z + delta, 1).

    Defined as 0 when u = 0 or y = 0; otherwise

        max((x - u/y)^+, min((x*y - u*z)^+ / (u + y), 1 - z)).

    The zero cases make the division total; no epsilon-regularisation is
    applied.
    """
    if u == 0.0 or y == 0.0:
        return 0.0
    return max(pos(x - u / y), min(pos(x * y - u * z) / (u + y), 1.0 - z))


def goguen_cell(system: FuzzySystem, row: int, col: int) -> GoguenCellStats:
    """Compute the cell statistics for one (row, col) pair (0-based)."""
    return checked_cell(system, row, col, _goguen_stats)


def _goguen_stats(g: float, b: float, column) -> GoguenCellStats:
    theta = max((bl - g / gl for gl, bl in column if gl > 0.0 and g <= gl), default=None)
    support = g > 0.0
    if theta is None:
        # A supporting cell always dominates its own row, so the empty-set
        # convention theta = 0 is only ever reachable on non-supporting cells.
        if support:
            raise InvariantViolation(f"supporting cell with entry {g!r} dominates no row")
        theta = 0.0
    zeta = max(goguen_threshold(g, bl, gl, b) for gl, bl in column)
    return GoguenCellStats(theta, zeta, support)


def goguen_distance(system: FuzzySystem) -> ChebyshevReport:
    """Chebyshev distance report for a Goguen-implication system."""
    return build_report(system, ImplicationKind.GOGUEN, _goguen_stats, _goguen_row)


def _goguen_row(system: FuzzySystem, j: int, cells: tuple) -> RowDiagnostics:
    row = base_row(
        system, j, cells, ((i, max(c.theta, c.zeta)) for i, c in enumerate(cells) if c.support)
    )
    # theta <= zeta on supporting cells, so the min of the zetas is an
    # equivalent form of tau (up to one ulp when a tie is split by float
    # rounding).
    tau_via_zeta, _ = least((i, c.zeta) for i, c in enumerate(cells) if c.support)
    if not abs(row.tau_j - tau_via_zeta) <= 1e-12:
        raise InvariantViolation(
            f"row {j}: tau {row.tau_j!r} differs from the least zeta {tau_via_zeta!r}"
        )
    return row
