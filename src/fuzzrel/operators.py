"""Systems of min-implication relational equations and their closure maps.

A `FuzzySystem` pairs a matrix gamma (m rows, n columns) with a right-hand
side beta (m entries) under one implication kind; a solution is any vector x
in the unit cube with

    min_i (gamma[j][i] -> x[i]) = beta[j]   for every row j.

`potential_solution` builds the canonical candidate

    epsilon = max_t_compose(gamma^t, kind, beta),

which is the greatest solution whenever any solution exists, and
`check_consistency` decides solvability by recomposing epsilon and measuring
the sup-norm residual.

`closure` is the map that sends a candidate right-hand side xi to the
right-hand side actually realised by the best attempt at solving for it:

    closure(xi) = min_impl_compose(gamma, kind, max_t_compose(gamma^t, kind, xi)).

It is inflationary (xi <= closure(xi)), increasing and idempotent, and its
fixed points are exactly the consistent right-hand sides.  `maxt_closure` is
the analogous map for max-t-norm systems, used here for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FLOAT,
    ImplicationKind,
    Matrix,
    Vector,
    max_t_compose,
    min_impl_compose,
    sup_distance,
    transpose,
    unit_matrix,
    unit_vector,
)
from .errors import DimensionMismatch

#: Tolerance for equality of computed vectors (consistency residuals,
#: idempotence checks).  The arithmetic behind any component is a handful of
#: additions and multiplications, so 1e-9 dominates accumulated float error
#: while still rejecting genuine mismatches.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FuzzySystem:
    """A min-implication system: matrix `gamma`, right-hand side `beta`, kind."""

    gamma: Matrix
    beta: Vector
    kind: ImplicationKind

    def __post_init__(self):
        object.__setattr__(self, "gamma", unit_matrix(self.gamma, "gamma"))
        object.__setattr__(self, "beta", unit_vector(self.beta, "beta"))
        if len(self.gamma) != len(self.beta):
            raise DimensionMismatch(
                f"gamma has {len(self.gamma)} rows but beta has {len(self.beta)} entries"
            )
        if not isinstance(self.kind, ImplicationKind):
            raise TypeError(f"kind: expected ImplicationKind, got {self.kind!r}")

    @property
    def m(self) -> int:
        return len(self.gamma)

    @property
    def n(self) -> int:
        return len(self.gamma[0])


@dataclass(frozen=True)
class ConsistencyResult:
    """Outcome of a consistency check.

    `epsilon` is always populated: it is the greatest solution when the
    system is consistent and still the canonical candidate otherwise, so
    downstream code never has to recompute it.
    """

    consistent: bool
    epsilon: Vector
    residual: float


def potential_solution(system: FuzzySystem) -> Vector:
    """Greatest-solution candidate epsilon = max_t_compose(gamma^t, kind, beta)."""
    return max_t_compose(transpose(system.gamma), system.kind, system.beta)


def check_consistency(system: FuzzySystem, tol: float = DEFAULT_TOL) -> ConsistencyResult:
    """Decide whether the system is solvable.

    Equivalent to testing closure(beta) == beta: the system is consistent
    iff recomposing the candidate epsilon reproduces beta, up to `tol` in
    sup norm.  The residual is reported so callers can re-judge borderline
    inputs with their own threshold.
    """
    if tol < 0.0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    epsilon = potential_solution(system)
    recomposed = min_impl_compose(system.gamma, system.kind, epsilon)
    residual = sup_distance(recomposed, system.beta)
    return ConsistencyResult(residual <= tol, epsilon, residual)


def closure(system: FuzzySystem, xi: Vector) -> Vector:
    """Project a candidate right-hand side onto the consistent set from above.

    closure(xi)[j] = min_i (gamma[j][i] -> max_l T(gamma[l][i], xi[l])).
    Inflationary, increasing and idempotent; closure(xi) is always a
    consistent right-hand side.
    """
    if len(xi) != system.m:
        raise DimensionMismatch(f"xi has {len(xi)} entries, expected {system.m}")
    return FLOAT.closure(system.gamma, system.kind, xi)


def maxt_closure(a: Matrix, kind: ImplicationKind, c: Vector) -> Vector:
    """Closure map for max-t-norm systems with matrix `a`.

    maxt_closure(c) = max_t_compose(a, kind, min_impl_compose(a^t, kind, c)).
    Fixed points are exactly the right-hand sides of consistent max-t systems.
    """
    if len(c) != len(a):
        raise DimensionMismatch(f"c has {len(c)} entries, expected {len(a)}")
    return FLOAT.maxt_closure(a, kind, c)
