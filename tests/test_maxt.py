"""Max-t-norm distances: scalar thresholds and formula/oracle agreement."""

import random
from fractions import Fraction

import pytest

from fuzzrel import (
    DimensionMismatch,
    ImplicationKind,
    MaxTSystem,
    bisect_infimum,
    exact_maxt_distance,
    exact_maxt_membership,
    goguen_threshold,
    max_t_compose,
    maxluka_threshold,
    maxprod_ratio,
    maxprod_threshold,
    maxt_closure,
    maxt_distance,
    shifted_bounds,
)
from fuzzrel.algebra import leq
from helpers import iter_random_systems

SLACK = 1e-9


def maxt_membership(system: MaxTSystem, delta: float, slack: float = SLACK) -> bool:
    """The oracle predicate: lower shift of b below the closure of its
    upper shift."""
    lower, upper = shifted_bounds(system.b, delta)
    return leq(lower, maxt_closure(system.a, system.kind, upper), slack)


def random_maxt_systems(master_seed: int, count: int, kind: ImplicationKind, decimals=2):
    for base in iter_random_systems(master_seed, count, kind=kind, decimals=decimals):
        yield MaxTSystem(base.gamma, base.beta, kind)


class TestScalarThresholds:
    def test_ratio_zero_case(self):
        assert maxprod_ratio(0.0, 0.7, 0.3, 0.9) == 0.7

    def test_ratio_quotient(self):
        assert maxprod_ratio(0.3, 0.6, 0.4, 0.2) == pytest.approx(0.18 / 0.7, abs=1e-15)

    def test_prod_threshold_vanishes(self):
        assert maxprod_threshold(0.8, 0.5, 0.2, 0.4) == 0.0

    def test_prod_threshold_bridges_to_goguen(self):
        assert goguen_threshold(0.3, 0.6, 0.4, 0.2) == pytest.approx(
            maxprod_threshold(0.3 / 0.4, 0.6, 1.0, 0.2), abs=1e-12
        )

    def test_luka_threshold_zero_at_zero(self):
        assert maxluka_threshold(0.4, 0.0, 0.7, 0.2) == 0.0

    def test_luka_threshold_neutral_shift(self):
        assert maxluka_threshold(1.0, 0.5, 0.4, 0.4) == pytest.approx(0.5, abs=1e-12)

    def test_luka_threshold_hand_checked(self):
        assert maxluka_threshold(0.6, 0.5, 0.4, 0.3) == pytest.approx(0.1, abs=1e-12)


class TestMaxTSystem:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            MaxTSystem(((0.1, 0.2),), (0.3, 0.4), ImplicationKind.GODEL)

    def test_dimensions(self):
        system = MaxTSystem(((0.1, 0.2), (0.3, 0.4), (0.5, 0.6)), (0.1, 0.2, 0.3),
                            ImplicationKind.GOGUEN)
        assert (system.n, system.m) == (3, 2)


class TestMaxTDistance:
    @pytest.mark.parametrize("kind", list(ImplicationKind))
    def test_consistent_rhs_distance_zero(self, kind):
        rng = random.Random(71)
        for _ in range(20):
            a = tuple(tuple(round(rng.random(), 2) for _ in range(3)) for _ in range(3))
            xi = tuple(round(rng.random(), 2) for _ in range(3))
            b = max_t_compose(a, kind, xi)
            assert maxt_distance(MaxTSystem(a, b, kind)) <= 1e-9

    @pytest.mark.parametrize("kind", list(ImplicationKind))
    def test_zero_rhs_distance_zero(self, kind):
        system = MaxTSystem(((0.4, 0.9), (0.7, 0.1)), (0.0, 0.0), kind)
        assert maxt_distance(system) == 0.0

    @pytest.mark.parametrize("kind,seed", [
        (ImplicationKind.GODEL, 72),
        (ImplicationKind.GOGUEN, 73),
        (ImplicationKind.LUKASIEWICZ, 74),
    ])
    def test_agrees_with_bisection(self, kind, seed):
        for system in random_maxt_systems(seed, 150, kind):
            delta = maxt_distance(system)
            estimate = bisect_infimum(lambda d: maxt_membership(system, d))
            assert delta == pytest.approx(estimate.inf_value, abs=1e-6)

    @pytest.mark.parametrize("kind,seed", [
        (ImplicationKind.GODEL, 75),
        (ImplicationKind.GOGUEN, 76),
        (ImplicationKind.LUKASIEWICZ, 77),
    ])
    def test_distance_is_attained(self, kind, seed):
        # decided exactly: the boundary sits on residuum branch points
        for decimals in (2, None):
            for system in random_maxt_systems(seed, 150, kind, decimals):
                delta_exact = exact_maxt_distance(system)
                assert abs(maxt_distance(system) - float(delta_exact)) <= 1e-12
                assert exact_maxt_membership(system, delta_exact)

    @pytest.mark.parametrize("kind", list(ImplicationKind))
    def test_exact_distance_is_a_fraction(self, kind):
        consistent = MaxTSystem(((0.4, 0.9), (0.7, 0.1)), (0.0, 0.0), kind)
        inconsistent = MaxTSystem(((0.6, 0.26), (0.49, 0.9)), (0.1, 0.4), kind)
        assert type(exact_maxt_distance(consistent)) is Fraction
        assert exact_maxt_distance(consistent) == 0
        assert type(exact_maxt_distance(inconsistent)) is Fraction
