"""Closed-form Chebyshev distances for max-t-norm systems.

A `MaxTSystem` pairs a matrix `a` (n rows, m columns) with a right-hand side
`b` (n entries); a solution is any x with max_j T(a[i][j], x[j]) = b[i] for
every row i.  For each of the three t-norms there is a closed formula for
the sup-norm distance of `b` to the set of consistent right-hand sides:

    min t-norm      max_i min_j max((b[i] - a[i][j])^+,
                                    max_k godel_threshold(b[i], a[k][j], b[k]))
    product         max_i min_j max_k maxprod_threshold(a[i][j], b[i], a[k][j], b[k])
    Lukasiewicz     max_i min_j max_k maxluka_threshold(1 - a[i][j], b[i], a[k][j], b[k])

Each distance equals min{delta : lower_shift(b, delta) <= maxt_closure(a,
kind, upper_shift(b, delta))} and is always achieved.  This module exists as
a cross-validation target for the min-implication solvers: both families are
checked against the same bisection oracle.  The cell formulas are written
once in `fuzzrel.algebra.arithmetic` and scanned by the reports' column
scan, `fuzzrel.algebra.column_scan`; this module binds their float
instance, and `fuzzrel.oracle.exact_maxt_distance` runs the same formulas
on exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FLOAT, ImplicationKind, Matrix, Vector, unit_system


@dataclass(frozen=True)
class MaxTSystem:
    """A max-t-norm system: matrix `a`, right-hand side `b`, kind."""

    a: Matrix
    b: Vector
    kind: ImplicationKind

    def __post_init__(self):
        unit_system(self, "a", "b")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def m(self) -> int:
        return len(self.a[0])


maxprod_ratio = FLOAT.maxprod_ratio
maxprod_threshold = FLOAT.maxprod_threshold
maxluka_threshold = FLOAT.maxluka_threshold


def maxt_distance(system: MaxTSystem) -> float:
    """Chebyshev distance of `b` to the consistent set of the max-t system."""
    return FLOAT.maxt_distance(system.a, system.b, system.kind)
