"""Unit-interval algebra: t-norms, residual implicators, compositions.

Three t-norm / residuum pairs are supported, selected by `ImplicationKind`:

    GODEL        T(x, y) = min(x, y)        x -> y = 1 if x <= y else y
    GOGUEN       T(x, y) = x * y            x -> y = 1 if x <= y else y / x
    LUKASIEWICZ  T(x, y) = (x + y - 1)^+    x -> y = min(1 - x + y, 1)

Each residuum is the adjoint of its t-norm: T(x, z) <= y iff z <= x -> y.
On top of the scalar operations sit the two matrix-vector compositions used
by every solver in this package:

    max_t_compose     out[i] = max_j T(M[i][j], v[j])
    min_impl_compose  out[j] = min_i (M[j][i] -> v[i])

and the shifted bounds of a vector, `shifted_bounds(v, delta)`, which bracket
the closed sup-norm ball of radius delta around v inside the unit cube.

These formulas, together with the scalar thresholds and the distance loop of
the max-t closed forms, are written once in `arithmetic`, over the zero and
one of a number type.  `FLOAT` binds them to floats and supplies this
module's public functions; the oracle binds them to `Fraction` to run the
same formulas in exact rational arithmetic.  A float operand that meets a
Fraction silently rounds the result to a float, so exact callers pass only
values of the instance's own type, such as its `zero` as a slack.

All functions are pure and all aggregates are tuples, so values are
immutable and safe to share between threads.  Branch-selecting comparisons
(the x <= y test inside a residuum) are exact on purpose: the residua are
genuinely discontinuous there and blurring the branch point with a tolerance
would change results.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .errors import DimensionMismatch, DomainError

Vector = tuple[float, ...]
Matrix = tuple[tuple[float, ...], ...]

# Values within CLAMP_EPS of [0, 1] are clamped onto the interval; anything
# further out is rejected.  Decimal inputs survive round-tripping through
# arithmetic that drifts by a few ulps without poisoning invariants.
CLAMP_EPS = 1e-12


class ImplicationKind(Enum):
    """A t-norm together with its residual implicator."""

    GODEL = "godel"
    GOGUEN = "goguen"
    LUKASIEWICZ = "lukasiewicz"


def transpose(matrix: Matrix) -> Matrix:
    return tuple(zip(*matrix))


#: The shared formulas bound to one number type; built by `arithmetic`.
Arithmetic = namedtuple(
    "Arithmetic",
    "zero pos t_norm residuum max_t_compose min_impl_compose closure maxt_closure"
    " shifted_bounds godel_threshold maxprod_ratio maxprod_threshold maxluka_threshold"
    " maxt_distance",
)


def arithmetic(zero, one) -> Arithmetic:
    """Bind the shared formulas to the number type of `zero` and `one`.

    Every literal the formulas need is derived from these two once, here, so
    the functions never mix number types: given operands of that type, each
    returns a value of that type.
    """
    two = one + one
    godel, goguen = ImplicationKind.GODEL, ImplicationKind.GOGUEN

    def pos(x):
        """Positive part, max(x, 0)."""
        return x if x > zero else zero

    def t_norm(kind: ImplicationKind, x, y):
        """Apply the t-norm selected by `kind`."""
        if kind is godel:
            return x if x < y else y
        if kind is goguen:
            return x * y
        s = x + y - one
        return s if s > zero else zero

    def residuum(kind: ImplicationKind, x, y):
        """Apply the residual implicator selected by `kind`.

        The branch x > y implies x > 0, so the Goguen quotient never divides
        by zero.
        """
        if x <= y:
            return one
        if kind is godel:
            return y
        if kind is goguen:
            return y / x
        return one - x + y

    def max_t_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
        """Row-wise max of t-norms: out[i] = max_j T(matrix[i][j], vec[j])."""
        if not matrix or len(matrix[0]) != len(vec):
            raise DimensionMismatch(
                f"max_t_compose: matrix has {len(matrix[0]) if matrix else 0} columns, "
                f"vector has {len(vec)} entries"
            )
        return tuple(
            max(t_norm(kind, mij, vj) for mij, vj in zip(row, vec)) for row in matrix
        )

    def min_impl_compose(matrix: Matrix, kind: ImplicationKind, vec: Vector) -> Vector:
        """Row-wise min of residua: out[j] = min_i (matrix[j][i] -> vec[i])."""
        if not matrix or len(matrix[0]) != len(vec):
            raise DimensionMismatch(
                f"min_impl_compose: matrix has {len(matrix[0]) if matrix else 0} columns, "
                f"vector has {len(vec)} entries"
            )
        return tuple(
            min(residuum(kind, mij, vj) for mij, vj in zip(row, vec)) for row in matrix
        )

    def closure(gamma: Matrix, kind: ImplicationKind, xi: Vector) -> Vector:
        """min_impl_compose(gamma, kind, max_t_compose(gamma^t, kind, xi)); see
        `fuzzrel.operators.closure`."""
        return min_impl_compose(gamma, kind, max_t_compose(transpose(gamma), kind, xi))

    def maxt_closure(a: Matrix, kind: ImplicationKind, c: Vector) -> Vector:
        """max_t_compose(a, kind, min_impl_compose(a^t, kind, c)); see
        `fuzzrel.operators.maxt_closure`."""
        return max_t_compose(a, kind, min_impl_compose(transpose(a), kind, c))

    def shifted_bounds(vec: Vector, delta) -> tuple[Vector, Vector]:
        """Componentwise lower/upper shift of `vec` by `delta`, clipped to [0, 1].

        lower[i] = (vec[i] - delta)^+ and upper[i] = min(vec[i] + delta, 1), so
        for any c in the unit cube: ||vec - c||_inf <= delta iff lower <= c <= upper.
        """
        lower = tuple(pos(v - delta) for v in vec)
        upper = tuple(min(v + delta, one) for v in vec)
        return lower, upper

    def godel_threshold(x, y, z):
        """Least delta with min(y, (x - delta)^+) <= min(z + delta, 1).

        Equals min((x - z)^+ / 2, (y - z)^+).
        """
        return min(pos(x - z) / two, pos(y - z))

    def maxprod_ratio(u, x, y, z):
        """Quotient term of the product threshold: (x*y - u*z)^+ / (u + y), or x
        when u = 0."""
        if u == zero:
            return x
        return pos(x * y - u * z) / (u + y)

    def maxprod_threshold(u, x, y, z):
        """Scalar threshold for max-product systems:
        max((x - u)^+, min(maxprod_ratio(u, x, y, z), (y - z)^+))."""
        return max(pos(x - u), min(maxprod_ratio(u, x, y, z), pos(y - z)))

    def maxluka_threshold(u, x, y, z):
        """Scalar threshold for max-Lukasiewicz systems:
        min(x, max(v^+, (v + y - z)^+ / 2)) with v = x + u - 1."""
        v = x + u - one
        return min(x, max(pos(v), pos(v + y - z) / two))

    def maxt_distance(a: Matrix, b: Vector, kind: ImplicationKind):
        """Chebyshev distance of `b` to the consistent right-hand sides of the
        max-t system with matrix `a` (see `fuzzrel.maxt`)."""
        columns = transpose(a)
        worst = zero
        for row, x in zip(a, b):
            best = None
            for u, column in zip(row, columns):
                if kind is godel:
                    value = max(
                        pos(x - u),
                        max(godel_threshold(x, y, z) for y, z in zip(column, b)),
                    )
                elif kind is goguen:
                    value = max(maxprod_threshold(u, x, y, z) for y, z in zip(column, b))
                else:
                    complement = one - u
                    value = max(
                        maxluka_threshold(complement, x, y, z) for y, z in zip(column, b)
                    )
                best = value if best is None else min(best, value)
            worst = max(worst, best)
        return worst

    scope = locals()
    return Arithmetic(*(scope[name] for name in Arithmetic._fields))


FLOAT = arithmetic(0.0, 1.0)
pos = FLOAT.pos
t_norm = FLOAT.t_norm
residuum = FLOAT.residuum
max_t_compose = FLOAT.max_t_compose
min_impl_compose = FLOAT.min_impl_compose
shifted_bounds = FLOAT.shifted_bounds


def unit(value, name: str = "value") -> float:
    """Validate a scalar as a unit-interval value.

    Rejects NaN and anything further than CLAMP_EPS outside [0, 1]; values
    within the clamp window are snapped onto the interval.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name}: expected a number, got {type(value).__name__}")
    x = float(value)
    if math.isnan(x):
        raise DomainError(f"{name}: NaN is not a unit-interval value")
    if x <= 0.0:  # also turns -0.0 into 0.0
        if x < -CLAMP_EPS:
            raise DomainError(f"{name}: {x!r} is outside [0, 1]")
        return 0.0
    if x > 1.0:
        if x > 1.0 + CLAMP_EPS:
            raise DomainError(f"{name}: {x!r} is outside [0, 1]")
        return 1.0
    return x


def unit_vector(values, name: str = "vector") -> Vector:
    """Validate a non-empty sequence of unit-interval values."""
    entries = tuple(unit(v, f"{name}[{i}]") for i, v in enumerate(values))
    if not entries:
        raise DomainError(f"{name}: must have at least one entry")
    return entries


def unit_matrix(rows, name: str = "matrix") -> Matrix:
    """Validate a non-empty rectangular grid of unit-interval values."""
    grid = tuple(
        tuple(unit(v, f"{name}[{i}][{j}]") for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    if not grid or not grid[0]:
        raise DomainError(f"{name}: must have at least one row and one column")
    width = len(grid[0])
    for i, row in enumerate(grid):
        if len(row) != width:
            raise DimensionMismatch(
                f"{name}: row {i} has {len(row)} entries, expected {width}"
            )
    return grid


def sup_distance(u: Vector, v: Vector) -> float:
    """Sup-norm distance max_i |u[i] - v[i]|."""
    if len(u) != len(v):
        raise DimensionMismatch(f"sup_distance: lengths {len(u)} and {len(v)} differ")
    return max(abs(a - b) for a, b in zip(u, v))


def leq(u: Vector, v: Vector, slack: float = 0.0) -> bool:
    """Componentwise u <= v, optionally allowing `slack` of float drift.

    Exact callers pass a slack of their own number type; the float default
    would round a Fraction comparison.
    """
    if len(u) != len(v):
        raise DimensionMismatch(f"leq: lengths {len(u)} and {len(v)} differ")
    return all(a <= b + slack for a, b in zip(u, v))
