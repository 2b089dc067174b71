"""Shared fixtures: the small regression systems used across the suite."""

import pytest
from hypothesis import settings

from fuzzrel import FuzzySystem, ImplicationKind

# `--hypothesis-profile=ci` makes every property test draw the same examples
# on every run, and drops the per-example deadline, which a slow or busy
# runner would otherwise trip on the larger systems.
settings.register_profile("ci", derandomize=True, deadline=None)

# One 2x2 matrix exercises all three implication kinds with different
# right-hand sides; the values trip every branch of the solvers.
SHARED_MATRIX = ((0.6, 0.49), (0.26, 0.9))


@pytest.fixture
def consistent_godel() -> FuzzySystem:
    """Solvable system: its candidate solution recomposes exactly."""
    return FuzzySystem(SHARED_MATRIX, (0.58, 0.88), ImplicationKind.GODEL)


@pytest.fixture
def inconsistent_godel() -> FuzzySystem:
    """Unsolvable system with distance 0.15, attained."""
    return FuzzySystem(SHARED_MATRIX, (0.1, 0.4), ImplicationKind.GODEL)


@pytest.fixture
def infimum_godel() -> FuzzySystem:
    """Unsolvable system whose distance 0.15 is approached but never
    attained: the approximation set is empty."""
    return FuzzySystem(((0.41, 0.07), (0.29, 0.31)), (0.88, 0.46), ImplicationKind.GODEL)


@pytest.fixture
def inconsistent_goguen() -> FuzzySystem:
    """Unsolvable product-kind system with distance 0.044/0.86."""
    return FuzzySystem(SHARED_MATRIX, (0.1, 0.4), ImplicationKind.GOGUEN)


@pytest.fixture
def inconsistent_luka() -> FuzzySystem:
    """Unsolvable bounded-sum-kind system with distance 0.3."""
    return FuzzySystem(SHARED_MATRIX, (0.1, 0.4), ImplicationKind.LUKASIEWICZ)


@pytest.fixture
def tied_godel() -> FuzzySystem:
    """Hand-built system with theta == zeta at the deciding cell of row 0:
    the attainability classification is genuinely fragile there, so the
    report must carry the borderline flag."""
    return FuzzySystem(((0.4,), (0.4,)), (0.2, 0.6), ImplicationKind.GODEL)
